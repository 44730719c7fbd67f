"""Resilience coordinator: wiring the library onto an application run.

The coordinator is the single object an application (or the
``resilient`` engine, :mod:`repro.api.engines`) has to create in order
to obtain computational resiliency.  Given an execution backend, a cluster
model and a :class:`~repro.config.ResilienceConfig`, it

* derives the replication policy and the replica placement,
* registers every critical thread's replica group,
* arms failure detection (heartbeats + periodic sweeps in virtual time on
  the simulated backend, immediate death notifications on the local backend),
* connects detection to the recovery service so lost replicas are
  regenerated and communication reconfigured, and
* optionally arms an attack scenario and/or a camouflage policy.

The application's thread programs are never modified -- the paper's
"application independent library" property.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..cluster.machine import Cluster
from ..config import ResilienceConfig
from ..logging_utils import get_logger
from ..scp.runtime import Application
from ..scp.sim_backend import ProtocolConfig, SimBackend
from .attack import AttackScenario, ScriptedAdversary
from .camouflage import CamouflagePolicy
from .detector import HeartbeatFailureDetector, SuspicionRecord
from .policy import ReplicationPolicy
from .reconfigure import ReconfigurationProtocol
from .recovery import RecoveryService
from .replication import ReplicationManager
from .resource import ResourceManager

_LOG = get_logger("resilience.coordinator")


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


class ResilienceCoordinator:
    """Applies computational resiliency to one backend run."""

    def __init__(self, backend, cluster: Optional[Cluster], config: ResilienceConfig, *,
                 policy: Optional[ReplicationPolicy] = None,
                 monitor_node: Optional[str] = None,
                 pinned: Optional[Dict[str, str]] = None) -> None:
        self.backend = backend
        self.cluster = cluster if cluster is not None else getattr(backend, "cluster", None)
        self.config = config
        self.policy = policy or ReplicationPolicy.from_config(config)
        self.monitor_node = monitor_node
        self.pinned = dict(pinned or {})

        self.replication = ReplicationManager()
        self.reconfiguration = ReconfigurationProtocol()
        if self.cluster is not None:
            self.resources = ResourceManager(self.cluster)
        else:
            self.resources = None  # local backend: placement is a no-op
        self.recovery: Optional[RecoveryService] = None
        self.detector: Optional[HeartbeatFailureDetector] = None
        self.adversary: Optional[ScriptedAdversary] = None
        self.camouflage: Optional[CamouflagePolicy] = None
        self._attached = False

    # ---------------------------------------------------------------- attach
    def attach(self, app: Application) -> Optional[Dict[str, str]]:
        """Wire resiliency onto ``app`` before the backend run starts.

        Returns the replica placement map for the simulated backend (to be
        passed to ``backend.run(app, placement=...)``) or ``None`` for
        backends that do not place threads on modelled nodes.
        """
        if self._attached:
            raise RuntimeError("coordinator already attached to an application")
        self._attached = True

        # Replica groups for every thread, critical or not (non-critical ones
        # simply have a target level of 1 and are not regenerated unless the
        # policy says so).
        for spec in app.specs:
            self.replication.add_group(spec, self.policy.replicas_for(spec))

        self.recovery = RecoveryService(
            backend=self.backend,
            replication=self.replication,
            resources=self.resources if self.resources is not None
            else _NullResourceManager(),
            reconfiguration=self.reconfiguration,
            regenerate=self.config.regenerate,
        )

        self._arm_detection(app)

        if self.resources is not None:
            placement = self.policy.plan_placement(
                app.specs,
                worker_nodes=[n for n in self.cluster.node_names if n != "manager"],
                pinned=self.pinned)
            return placement
        return None

    # -------------------------------------------------------------- detection
    def _arm_detection(self, app: Application) -> None:
        clock = (lambda: self.backend.now) if hasattr(self.backend, "now") else (lambda: 0.0)
        self.detector = HeartbeatFailureDetector.from_config(
            self.config, clock=clock, on_suspect=self._on_suspect)

        if isinstance(self.backend, SimBackend):
            monitor = self.monitor_node
            if monitor is None and self.cluster is not None:
                monitor = ("manager" if "manager" in self.cluster.node_names
                           else self.cluster.node_names[0])
            self.backend.enable_heartbeats(self.config.heartbeat_period,
                                           self.detector.on_heartbeat,
                                           monitor_node=monitor)
            for spec in app.specs:
                if self.policy.critical(spec):
                    for pid in spec.physical_ids():
                        self.detector.watch(pid)
            self._schedule_sweep()
        else:
            # Local backend: rely on immediate death notifications (thread
            # kills are observable in-process); heartbeat plumbing would add
            # wall-clock latency without adding information.
            self.backend.subscribe_thread_death(self._on_death_notification)

    def _schedule_sweep(self) -> None:
        period = self.config.heartbeat_period

        def sweep() -> None:
            self.detector.sweep()
            self.backend.schedule(period, sweep, label="resilience:sweep")

        self.backend.schedule(period, sweep, label="resilience:sweep")

    # -------------------------------------------------------------- callbacks
    def _on_suspect(self, physical_id: str, record: SuspicionRecord) -> None:
        if self.recovery is None:
            return
        if self.detector is not None:
            self.detector.forget(physical_id)
        event = self.recovery.on_replica_lost(physical_id, reason="suspected")
        if event is not None and event.succeeded and self.detector is not None:
            self.detector.watch(event.replacement_physical)

    def _on_death_notification(self, physical_id: str, logical: str, reason: str) -> None:
        if self.recovery is None or reason == "shutdown":
            return
        if not self.replication.has_group(logical):
            return
        group = self.replication.group(logical)
        if not self.policy.critical(group.spec):
            # Non-critical threads (the manager / the sensor) are not part of
            # the resiliency contract; their loss is reported, not repaired.
            _LOG.warning("non-critical thread %s died (%s); not regenerating",
                         physical_id, reason)
            return
        event = self.recovery.on_replica_lost(physical_id, reason=reason)
        if event is not None and self.detector is not None and event.succeeded:
            self.detector.watch(event.replacement_physical)

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
        if self.recovery is None:
            raise RuntimeError("attach() must be called before enabling camouflage")
        self.camouflage = CamouflagePolicy(
            backend=self.backend, replication=self.replication, recovery=self.recovery,
            period=period, logical_threads=list(logical_threads), seed=seed,
            max_migrations=max_migrations, )
        self.camouflage.arm()
        return self.camouflage

    # ---------------------------------------------------------------- report
    def report(self) -> Dict[str, object]:
        """Consolidated resiliency activity report for a finished run."""
        return {
            "replication": self.replication.summary(),
            "reconfigurations": self.reconfiguration.summary(),
            "recoveries": len(self.recovery.successful_recoveries()) if self.recovery else 0,
            "failed_recoveries": len(self.recovery.failed_recoveries()) if self.recovery else 0,
            "suspicions": [r.physical_id for r in self.detector.suspicion_history()]
            if self.detector else [],
            "attacks_executed": len(self.adversary.executed) if self.adversary else 0,
            "migrations": self.camouflage.successful_migrations() if self.camouflage else 0,
        }


class _NullResourceManager:
    """Placement stand-in for backends without a cluster model (local threads)."""

    cluster = None

    def select_node(self, **_kwargs) -> Optional[str]:
        return None

    def nodes_hosting_group(self, _members) -> List[str]:
        return []


__all__ = ["ResilienceCoordinator", "protocol_config_for"]
