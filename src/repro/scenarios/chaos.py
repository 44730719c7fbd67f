"""Chaos profiles: fault injection layered on the stage executor.

The third, optional, half of a scenario.  Every profile drives the same
session-wide stage executor the pipeline engine runs on (reached through
:meth:`repro.api.session.FusionSession.stage_executor`):

* :class:`KillStorm` queues SIGKILLs through the executor's
  :meth:`~repro.scp.stages.TransportStageExecutor.inject_kill` chaos hook --
  worker processes die mid-stage exactly as an OOM kill or node loss
  would, and crash recovery re-dispatches their tasks;
* :class:`Straggler` occupies worker slots with long sleep tasks, so real
  fusions contend with a slow worker the way they would on a loaded
  workstation;
* :class:`MemoryPressure` occupies slots with tasks that allocate and
  hold large buffers, driving allocator churn alongside the fusions.

Kill injection needs real processes (a host thread cannot be SIGKILLed);
the storm raises an actionable error on thread-backed executors.  The
slot-occupying profiles work on any executor.
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from ..scp.stages import TransportStageExecutor

StageExecutor = TransportStageExecutor

#: Pipeline stage names a kill storm targets (see repro.core.streaming).
PIPELINE_STAGES: Tuple[str, ...] = ("screen", "covariance", "project")


def straggler_sleep(seconds: float) -> float:
    """Slot-occupying stage task: hold a worker for ``seconds``."""
    time.sleep(seconds)
    return seconds


def occupy_memory(megabytes: float, dwell_seconds: float) -> int:
    """Slot-occupying stage task: allocate and hold ``megabytes`` briefly."""
    block = np.ones(max(1, int(megabytes * 1024 * 1024 // 8)),
                    dtype=np.float64)
    time.sleep(dwell_seconds)
    return int(block.nbytes)


class ChaosProfile:
    """Base profile: hooks the simulator calls around a trace replay."""

    kind = "none"

    def start(self, executor: StageExecutor, requests: int) -> None:
        """Called once before the first request is submitted."""

    def on_request(self, executor: StageExecutor,
                   index: int) -> List["Future[object]"]:
        """Called right before request ``index`` is submitted; returns any
        chaos-task futures the simulator must drain before closing."""
        return []

    def describe(self) -> str:
        raise NotImplementedError


@dataclass(frozen=True)
class KillStorm(ChaosProfile):
    """SIGKILL the next task of each targeted stage, ``rounds`` times.

    Kills are spread across the replay (one round per request until the
    budget is spent) rather than queued all at once, so recovery is
    exercised repeatedly and no request index escapes the storm window.
    """

    stages: Tuple[str, ...] = PIPELINE_STAGES
    rounds: int = 2

    kind = "kill-storm"

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a kill storm needs at least one target stage")
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")

    def _require_killable(self, executor: StageExecutor) -> StageExecutor:
        # Capability check on the executor's transport, not an isinstance
        # ladder: any transport whose workers can die to SIGKILL (forked
        # pool slots, socket node-agent workers, future cluster hosts)
        # supports the storm.
        if not getattr(executor, "supports_kill", False):
            raise ValueError(
                "the 'kill-storm' chaos profile SIGKILLs worker processes, "
                "which thread-backed executors do not have; run the scenario "
                "on a process backend (e.g. --backend process:2 or socket:2)")
        return executor

    def start(self, executor: StageExecutor, requests: int) -> None:
        self._require_killable(executor)

    def on_request(self, executor: StageExecutor,
                   index: int) -> List["Future[object]"]:
        if index < self.rounds:
            killable = self._require_killable(executor)
            for stage in self.stages:
                killable.inject_kill(stage)
        return []

    def describe(self) -> str:
        return (f"SIGKILL storm: {self.rounds} round(s) over stages "
                f"{'/'.join(self.stages)}")


@dataclass(frozen=True)
class Straggler(ChaosProfile):
    """Occupy a worker slot with a ``seconds``-long task every ``every``
    requests: the slow-worker condition the paper's cluster story assumes."""

    seconds: float = 0.3
    every: int = 2

    kind = "straggler"

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError("seconds must be positive")
        if self.every < 1:
            raise ValueError("every must be >= 1")

    def on_request(self, executor: StageExecutor,
                   index: int) -> List["Future[object]"]:
        if index % self.every:
            return []
        return [executor.submit("chaos-straggler", straggler_sleep,
                                self.seconds)]

    def describe(self) -> str:
        return (f"straggler: a {self.seconds * 1000:.0f}ms slot hog every "
                f"{self.every} request(s)")


@dataclass(frozen=True)
class MemoryPressure(ChaosProfile):
    """Occupy a worker slot with a large held allocation every ``every``
    requests, so fusions run against allocator and cache pressure."""

    megabytes: float = 48.0
    dwell_seconds: float = 0.15
    every: int = 2

    kind = "memory-pressure"

    def __post_init__(self) -> None:
        if self.megabytes <= 0:
            raise ValueError("megabytes must be positive")
        if self.dwell_seconds <= 0:
            raise ValueError("dwell_seconds must be positive")
        if self.every < 1:
            raise ValueError("every must be >= 1")

    def on_request(self, executor: StageExecutor,
                   index: int) -> List["Future[object]"]:
        if index % self.every:
            return []
        return [executor.submit("chaos-memory", occupy_memory,
                                self.megabytes, self.dwell_seconds)]

    def describe(self) -> str:
        return (f"memory pressure: {self.megabytes:.0f}MB held "
                f"{self.dwell_seconds * 1000:.0f}ms every "
                f"{self.every} request(s)")


__all__ = ["PIPELINE_STAGES", "ChaosProfile", "KillStorm", "Straggler",
           "MemoryPressure", "occupy_memory", "straggler_sleep"]
