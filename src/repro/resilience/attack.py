"""Information-warfare attack / fault-injection campaigns.

The paper evaluates resiliency against "information warfare attacks" on a
battlefield network.  For the reproduction, attacks are scripted campaigns of
fault events injected into the execution backend at chosen (virtual) times:
killing a single replica, taking down a whole node, or repeatedly targeting
whichever replicas of a logical thread are currently alive (the "persistent
adversary" that regeneration is designed to outlast).

Campaigns are data (a list of :class:`AttackEvent`), so they can be stored in
benchmark configurations, shown in reports and generated randomly from a
seed.  The :class:`ScriptedAdversary` is what arms them on a backend.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from ..logging_utils import get_logger
from ..scp.sim_backend import SimBackend

_LOG = get_logger("resilience.attack")

#: Supported attack kinds.
KILL_THREAD = "kill_thread"
KILL_REPLICA = "kill_replica"
FAIL_NODE = "fail_node"


@dataclass(frozen=True)
class AttackEvent:
    """One scheduled fault.

    Attributes
    ----------
    time:
        Virtual (or wall-clock) seconds after the start of the run.
    kind:
        One of :data:`KILL_THREAD` (kill every live replica of a logical
        thread), :data:`KILL_REPLICA` (kill one specific physical replica or
        the first live replica of a logical thread), :data:`FAIL_NODE`
        (crash a whole workstation).
    target:
        Logical thread name, physical id, or node name depending on ``kind``.
    """

    time: float
    kind: str
    target: str

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError("attack time must be non-negative")
        if self.kind not in (KILL_THREAD, KILL_REPLICA, FAIL_NODE):
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if not self.target:
            raise ValueError("attack target must be non-empty")


@dataclass
class AttackScenario:
    """A named campaign of attack events."""

    name: str
    events: List[AttackEvent] = field(default_factory=list)

    def add(self, time: float, kind: str, target: str) -> "AttackScenario":
        self.events.append(AttackEvent(time=time, kind=kind, target=target))
        return self

    def sorted_events(self) -> List[AttackEvent]:
        return sorted(self.events, key=lambda e: e.time)

    def __len__(self) -> int:
        return len(self.events)

    # -------------------------------------------------------------- factories
    @classmethod
    def single_worker_kill(cls, worker: str, *, at: float) -> "AttackScenario":
        """Kill one replica of one worker (the paper's basic shadow-thread case)."""
        return cls(name=f"kill-{worker}", events=[AttackEvent(at, KILL_REPLICA, worker)])

    @classmethod
    def node_outage(cls, node: str, *, at: float) -> "AttackScenario":
        """Take a whole workstation down."""
        return cls(name=f"node-outage-{node}", events=[AttackEvent(at, FAIL_NODE, node)])

    @classmethod
    def sustained_assault(cls, workers: Sequence[str], *, start: float, interval: float,
                          rounds: int, seed: int = 0) -> "AttackScenario":
        """Repeatedly kill a randomly chosen worker replica every ``interval`` seconds."""
        if rounds < 1 or interval <= 0:
            raise ValueError("rounds must be >= 1 and interval positive")
        rng = np.random.default_rng(seed)
        events = [AttackEvent(start + i * interval, KILL_REPLICA,
                              str(rng.choice(list(workers)))) for i in range(rounds)]
        return cls(name="sustained-assault", events=events)

    @classmethod
    def group_wipeout(cls, worker: str, *, at: float, replicas: int) -> "AttackScenario":
        """Kill every replica of one worker near-simultaneously.

        This is the scenario static replication cannot survive but resilient
        regeneration can, and is the core of the recovery ablation benchmark.
        """
        events = [AttackEvent(at + 1e-3 * i, KILL_REPLICA, worker) for i in range(replicas)]
        return cls(name=f"wipeout-{worker}", events=events)


class ScriptedAdversary:
    """Arms an :class:`AttackScenario` on an execution backend."""

    def __init__(self, backend: SimBackend, scenario: AttackScenario) -> None:
        self.backend = backend
        self.scenario = scenario
        self.executed: List[AttackEvent] = []
        self.skipped: List[AttackEvent] = []

    # ------------------------------------------------------------------- arm
    def arm(self) -> None:
        """Schedule every event of the scenario on the backend's clock
        (the simulated backend's ``schedule``)."""
        for event in self.scenario.sorted_events():
            self.backend.schedule(event.time, lambda e=event: self._execute(e),
                                  label=f"attack:{event.kind}:{event.target}")

    # --------------------------------------------------------------- execute
    def _execute(self, event: AttackEvent) -> bool:
        outcome = False
        if event.kind == FAIL_NODE:
            victims = self.backend.fail_node(event.target)
            outcome = bool(victims)
        elif event.kind == KILL_REPLICA:
            outcome = self._kill_one(event.target)
        elif event.kind == KILL_THREAD:
            outcome = self._kill_all(event.target)
        record = self.executed if outcome else self.skipped
        record.append(event)
        _LOG.info("attack %s on %s at t=%.3f -> %s", event.kind, event.target,
                  event.time, "hit" if outcome else "no effect")
        return outcome

    def _kill_one(self, target: str) -> bool:
        # Physical id given directly?
        if "#" in target:
            return bool(self.backend.kill_thread(target))
        live = self.backend.live_replicas(target)
        if not live:
            return False
        return bool(self.backend.kill_thread(live[0]))

    def _kill_all(self, logical: str) -> bool:
        live = list(self.backend.live_replicas(logical))
        hit = False
        for physical_id in live:
            hit = bool(self.backend.kill_thread(physical_id)) or hit
        return hit


__all__ = [
    "AttackEvent",
    "AttackScenario",
    "ScriptedAdversary",
    "KILL_THREAD",
    "KILL_REPLICA",
    "FAIL_NODE",
]
