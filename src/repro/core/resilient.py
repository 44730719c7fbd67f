"""Resilient distributed fusion: distributed engine + computational resiliency.

The engine behind ``repro.fuse(cube, engine="resilient")`` is the
configuration the paper actually evaluates: every worker thread is
replicated (level 2 in Section 4), the manager -- the sensor -- is not,
heartbeat failure detection and dynamic regeneration are armed, and the
more expensive group-communication protocols (acknowledgement and
sequencing overheads) are charged by the simulated backend.  An optional
attack scenario and camouflage policy can be layered on without touching the
algorithm code.

The fusion output of a resilient run is identical to the plain distributed
run and to the sequential reference -- resiliency only changes *how long*
the run takes and *what it survives*, which is exactly what the paper's
Figure 4 measures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..config import FusionConfig, ResilienceConfig
from ..data.cube import HyperspectralCube
from ..resilience.attack import AttackScenario
from ..resilience.coordinator import ResilienceCoordinator, protocol_config_for
from ..resilience.policy import ReplicationPolicy
from ..scp.runtime import Application
from .distributed import (MANAGER_NAME, DistributedRunOutcome, _DistributedPCT)


@dataclass
class ResilientRunOutcome(DistributedRunOutcome):
    """A distributed run outcome augmented with the resiliency report."""

    resilience_report: Dict[str, object] = None  # type: ignore[assignment]

    @property
    def replicas_regenerated(self) -> int:
        return int(self.metrics.replicas_regenerated)

    @property
    def failures_injected(self) -> int:
        return int(self.metrics.failures_injected)


class _ResilientPCT(_DistributedPCT):
    """Distributed spectral-screening PCT with computational resiliency.

    Takes the arguments of :class:`~repro.core.distributed._DistributedPCT`
    (``cluster``, ``backend``, ``n_components``, ``full_projection``,
    ``prefetch``, ``reassign_timeout``) except ``protocol`` and
    ``share_replica_results``, which are derived from the resilience
    configuration, plus:

    Parameters
    ----------
    config:
        Fusion configuration.  ``config.resilience`` supplies the resiliency
        parameters; when it is ``None`` the paper's defaults
        (:class:`~repro.config.ResilienceConfig` with level 2) are used.
    backend:
        ``"sim"`` (default), ``"local"`` or ``"process"``.  On the two real
        backends failure detection relies on immediate death notifications
        (a crashed worker process is observed by the parent) rather than on
        modelled heartbeats, and regeneration spawns genuine replacements.
    attack:
        Optional :class:`~repro.resilience.attack.AttackScenario` injected
        during the run.
    camouflage_period:
        When set, critical threads are periodically migrated with this
        period (seconds) as a camouflage measure.
    """

    def __init__(self, config: Optional[FusionConfig] = None, *,
                 attack: Optional[AttackScenario] = None,
                 camouflage_period: Optional[float] = None,
                 **distributed_options) -> None:
        config = config or FusionConfig()
        self.resilience = config.resilience or ResilienceConfig()
        # The backend context of the base engine, with the resiliency
        # protocol's cost model charged on the simulated backend.
        super().__init__(
            config, protocol=protocol_config_for(self.resilience),
            share_replica_results=not self.resilience.execute_replicas,
            **distributed_options)
        self.attack = attack
        self.camouflage_period = camouflage_period

    # ----------------------------------------------------------------- pieces
    def build_application(self, cube: HyperspectralCube) -> Application:
        """The same manager/worker application, with workers replicated."""
        return super().build_application(
            cube, worker_replicas=self.resilience.replication_level)

    # ------------------------------------------------------------------ fuse
    def fuse(self, cube: HyperspectralCube) -> ResilientRunOutcome:
        """Run the resilient fusion end to end."""
        backend = self.make_backend()
        app = self.build_application(cube)

        pinned = {MANAGER_NAME: "manager"} \
            if (self.cluster is not None and "manager" in self.cluster.node_names) else {}
        coordinator = ResilienceCoordinator(
            backend, self.cluster, self.resilience,
            policy=ReplicationPolicy.from_config(self.resilience),
            pinned=pinned)
        placement = coordinator.attach(app)

        if self.attack is not None:
            coordinator.arm_attack(self.attack)
        if self.camouflage_period is not None:
            coordinator.enable_camouflage(
                period=self.camouflage_period,
                logical_threads=self.worker_names(),
                seed=self.config.seed)

        run = self._execute(backend, app, placement=placement,
                            until_thread=MANAGER_NAME)
        outcome = self._package(run)
        outcome.metrics.replication_level = self.resilience.replication_level
        report = coordinator.report()
        outcome.result.metadata["resilience"] = report
        outcome.result.metadata["mode"] = "resilient"
        return ResilientRunOutcome(result=outcome.result, metrics=outcome.metrics,
                                   run=run, resilience_report=report)


__all__ = ["ResilientRunOutcome"]
