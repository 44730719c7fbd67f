"""Resilience coordinator: computational resiliency for one backend run.

Section 2 of the paper is one mechanism: a mission-critical thread is
replicated, a lost replica is detected and regenerated elsewhere with its
checkpointed state, and routing is rebound to the new replica.  The
coordinator is that mechanism, and the single object an application (or
the ``resilient`` engine, :mod:`repro.api.engines`) creates to obtain it.
Given an execution backend, a cluster model and a
:class:`~repro.config.ResilienceConfig`, it

* keeps one :class:`ReplicaGroup` per logical thread (live members and the
  counters the report prints),
* arms failure detection (heartbeats and periodic sweeps in virtual time on
  the simulated backend, immediate death notifications on the wall-clock
  backends),
* regenerates a lost replica of a critical thread on a node chosen by the
  :class:`~repro.resilience.resource.ResourceManager`, restoring the
  group's most recent checkpoint,
* keeps one log of :class:`RecoveryEvent` from which the report derives
  recoveries and reconfigurations alike, and
* optionally arms an attack scenario and/or a camouflage policy.

What is replicated, and where, is data: the critical flag and replica count
of each :class:`~repro.scp.thread.ThreadSpec` (the replication level of
:class:`~repro.config.ResilienceConfig`), placed by the backend's
shifted round-robin (:func:`~repro.scp.runtime.plan_placement`).  Routing,
dead-letter replay and duplicate suppression belong to the SCP backends.
The application's thread programs are never modified -- the paper's
"application independent library" property.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Set

from ..cluster.machine import Cluster
from ..config import ResilienceConfig
from ..logging_utils import get_logger
from ..scp.errors import PlacementError
from ..scp.runtime import Application, Backend
from ..scp.serialization import payload_nbytes
from ..scp.sim_backend import ProtocolConfig, SimBackend
from ..scp.thread import ThreadSpec, parse_physical, physical_name
from .attack import AttackScenario, ScriptedAdversary
from .camouflage import CamouflagePolicy
from .detector import HeartbeatFailureDetector, SuspicionRecord
from .resource import ResourceManager

_LOG = get_logger("resilience.coordinator")

#: Safety valve against regeneration storms under sustained attack.
MAX_REGENERATIONS_PER_GROUP = 64
#: Charge the transfer of the restored state (size / link bandwidth) to the
#: new replica's start-up delay (simulated backend only).
STATE_TRANSFER = True

# Reasons of the losses that never reach regeneration, so are not
# reconfigurations.
_STATIC = "regeneration disabled (static replication)"
_BUDGET = "regeneration budget exhausted"


def protocol_config_for(config: ResilienceConfig,
                        *, base_message_cost_s: float = 1.5e-3) -> ProtocolConfig:
    """Derive the simulated protocol-cost model from a resilience config.

    The per-message CPU overhead is ``protocol_overhead`` of a typical
    message's software cost, and acknowledgements are enabled; together with
    heartbeat traffic this reproduces the paper's observation of roughly 10%
    overhead on top of the cost of replication itself.
    """
    return ProtocolConfig(per_message_cpu_s=config.protocol_overhead * base_message_cost_s,
                          ack_enabled=True)


@dataclass
class ReplicaGroup:
    """Live replicas and counters of one logical thread.

    The target level is ``spec.replicas``; ``next_index`` only grows, so a
    regenerated replica never reuses a physical id, and ``incarnation`` is
    carried in the new replica's context so the application can tell a
    rejoin from an initial announcement.
    """

    spec: ThreadSpec
    members: Set[str]
    next_index: int
    lost: int = 0
    regenerated: int = 0
    incarnation: int = 0


@dataclass
class RecoveryEvent:
    """Outcome of one recovery attempt (a migration is one too)."""

    time: float
    logical: str
    failed_physical: str
    replacement_physical: Optional[str]
    node: Optional[str]
    succeeded: bool
    reason: str = ""


class ResilienceCoordinator:
    """Applies computational resiliency to one backend run."""

    def __init__(self, backend: Backend, cluster: Optional[Cluster],
                 config: ResilienceConfig) -> None:
        self.backend = backend
        self.cluster = cluster if cluster is not None else getattr(backend, "cluster", None)
        self.config = config
        # Without a cluster model (wall-clock backends) there is no node to
        # choose: the backend places the replacement itself.
        self.resources = (ResourceManager(self.cluster)
                          if self.cluster is not None else None)
        self.groups: Dict[str, ReplicaGroup] = {}
        self.events: List[RecoveryEvent] = []
        self.detector: Optional[HeartbeatFailureDetector] = None
        self.adversary: Optional[ScriptedAdversary] = None
        self.camouflage: Optional[CamouflagePolicy] = None
        self._attached = False

    # ---------------------------------------------------------------- attach
    def attach(self, app: Application) -> None:
        """Wire resiliency onto ``app`` before the backend run starts."""
        if self._attached:
            raise RuntimeError("coordinator already attached to an application")
        self._attached = True
        for spec in app.specs:
            self.groups[spec.name] = ReplicaGroup(
                spec=spec, next_index=spec.replicas,
                members={physical_name(spec.name, r) for r in range(spec.replicas)})

        if isinstance(self.backend, SimBackend):
            self._arm_heartbeats(self.backend, app)
        else:
            # Wall-clock backends: rely on immediate death notifications (a
            # killed thread, a SIGKILLed worker process); heartbeat plumbing
            # would add latency without adding information.
            self.backend.subscribe_thread_death(self._on_death_notification)

    def _arm_heartbeats(self, backend: SimBackend, app: Application) -> None:
        detector = HeartbeatFailureDetector.from_config(
            self.config, clock=lambda: backend.now, on_suspect=self._on_suspect)
        self.detector = detector
        monitor = ("manager" if "manager" in self.cluster.node_names
                   else self.cluster.node_names[0])
        backend.enable_heartbeats(self.config.heartbeat_period,
                                  detector.on_heartbeat, monitor_node=monitor)
        for spec in app.specs:
            if spec.critical:
                for pid in spec.physical_ids():
                    detector.watch(pid)
        period = self.config.heartbeat_period

        def sweep() -> None:
            detector.sweep()
            backend.schedule(period, sweep, label="resilience:sweep")

        backend.schedule(period, sweep, label="resilience:sweep")

    # -------------------------------------------------------------- callbacks
    def _on_suspect(self, physical_id: str, record: SuspicionRecord) -> None:
        if self.detector is None:
            return
        self.detector.forget(physical_id)
        event = self.on_replica_lost(physical_id, reason="suspected")
        if event is not None and event.replacement_physical is not None:
            self.detector.watch(event.replacement_physical)

    def _on_death_notification(self, physical_id: str, logical: str, reason: str) -> None:
        group = self.groups.get(logical)
        if reason == "shutdown" or group is None:
            return
        if not group.spec.critical:
            # Non-critical threads (the manager / the sensor) are not part of
            # the resiliency contract; their loss is reported, not repaired.
            _LOG.warning("non-critical thread %s died (%s); not regenerating",
                         physical_id, reason)
            return
        self.on_replica_lost(physical_id, reason=reason)

    # -------------------------------------------------------------- recovery
    def record_loss(self, physical_id: str) -> Optional[ReplicaGroup]:
        """Drop a dead replica from its group.

        Returns the group only when ``physical_id`` was one of its *current*
        members; a stale or duplicate notification (a suspicion arriving
        after the replica was already replaced) returns ``None`` so it
        triggers no spurious regeneration.
        """
        group = self.groups.get(parse_physical(physical_id)[0])
        if group is None or physical_id not in group.members:
            return None
        group.members.remove(physical_id)
        group.lost += 1
        return group

    def on_replica_lost(self, physical_id: str,
                        reason: str = "failure") -> Optional[RecoveryEvent]:
        """Handle the loss of a physical replica: record it, then regenerate
        unless regeneration is off (static replication, the baseline of
        :mod:`repro.baselines.static_replication`) or the group's budget is
        spent."""
        group = self.record_loss(physical_id)
        if group is None:
            _LOG.debug("loss of untracked thread %s ignored", physical_id)
            return None
        if self.config.regenerate and group.regenerated < MAX_REGENERATIONS_PER_GROUP:
            return self.regenerate(group.spec.name, physical_id, reason)
        refusal = _STATIC if not self.config.regenerate else _BUDGET
        return self._log(RecoveryEvent(self.backend.now, group.spec.name, physical_id,
                                       None, None, False, refusal))

    def regenerate(self, logical: str, failed_physical: str, reason: str) -> RecoveryEvent:
        """Spawn a replacement replica of ``logical`` on a fresh node.

        The new replica restores the group's latest checkpoint and carries
        the next incarnation number; the backend rebinds routing and replays
        dead-lettered messages to it.  Failure recovery calls this after
        :meth:`record_loss`; camouflage calls it before retiring a live
        replica.
        """
        group = self.groups[logical]
        now = self.backend.now
        node: Optional[str] = None
        if self.resources is not None:
            try:
                node = self.resources.select_node(memory_bytes=group.spec.memory_bytes,
                                                  group_members=group.members)
            except PlacementError as err:
                _LOG.warning("reconfiguration of %s aborted: %s", logical, err)
                return self._log(RecoveryEvent(now, logical, failed_physical,
                                               None, None, False, str(err)))

        restored = self.backend.checkpoint_of(logical)
        spawn_kwargs: Dict[str, Any] = dict(replica=group.next_index, node=node,
                                            restored=restored,
                                            incarnation=group.incarnation + 1)
        group.next_index += 1
        if (STATE_TRANSFER and restored is not None and self.cluster is not None
                and hasattr(self.backend, "spawn_cost_s")):
            # Ship the restored state from a surviving replica's node.
            spawn_kwargs["extra_delay"] = self.cluster.interconnect.link.message_cost(
                payload_nbytes(restored))
        new_physical = self.backend.spawn_thread(group.spec, **spawn_kwargs)

        group.members.add(new_physical)
        group.incarnation += 1
        group.regenerated += 1
        _LOG.info("regenerated %s: %s -> %s on %s (reason: %s)", logical,
                  failed_physical, new_physical, node, reason)
        return self._log(RecoveryEvent(now, logical, failed_physical, new_physical,
                                       node, True, reason))

    def _log(self, event: RecoveryEvent) -> RecoveryEvent:
        self.events.append(event)
        return event

    # ------------------------------------------------------- optional layers
    def arm_attack(self, scenario: AttackScenario) -> ScriptedAdversary:
        """Schedule a fault-injection campaign on the backend."""
        self.adversary = ScriptedAdversary(self.backend, scenario)
        self.adversary.arm()
        return self.adversary

    def enable_camouflage(self, *, period: float, logical_threads: Sequence[str],
                          seed: int = 0, max_migrations: Optional[int] = None
                          ) -> CamouflagePolicy:
        """Enable periodic migration of the given threads."""
        if not self._attached:
            raise RuntimeError("attach() must be called before enabling camouflage")
        self.camouflage = CamouflagePolicy(
            self, period=period, logical_threads=list(logical_threads), seed=seed,
            max_migrations=max_migrations)
        self.camouflage.arm()
        return self.camouflage

    # ---------------------------------------------------------------- report
    def report(self) -> Dict[str, object]:
        """Consolidated resiliency activity report for a finished run."""
        # Every event that reached regeneration is one reconfiguration of
        # the communication structure: completed, or aborted for want of a
        # node.
        reconfigured = [e for e in self.events if e.reason not in (_STATIC, _BUDGET)]
        return {
            "replication": {
                name: {"live": len(g.members), "target": g.spec.replicas,
                       "lost": g.lost, "regenerated": g.regenerated,
                       "incarnation": g.incarnation}
                for name, g in self.groups.items()},
            "reconfigurations": {
                "total": len(reconfigured),
                "completed": sum(e.succeeded for e in reconfigured),
                "aborted": sum(not e.succeeded for e in reconfigured),
                "by_logical": {
                    logical: sum(e.logical == logical for e in reconfigured)
                    for logical in sorted({e.logical for e in reconfigured})},
            },
            "recoveries": sum(e.succeeded for e in self.events),
            "failed_recoveries": sum(not e.succeeded for e in self.events),
            "suspicions": [r.physical_id for r in self.detector.suspicion_history()]
            if self.detector else [],
            "attacks_executed": len(self.adversary.executed) if self.adversary else 0,
            "migrations": self.camouflage.successful_migrations() if self.camouflage else 0,
        }


__all__ = ["ResilienceCoordinator", "ReplicaGroup", "RecoveryEvent",
           "MAX_REGENERATIONS_PER_GROUP", "STATE_TRANSFER", "protocol_config_for"]
