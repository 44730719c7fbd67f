"""Baseline: static replication without regeneration.

Section 2 contrasts two designs: conventional replication, which "provides
graceful degradation of system performance to the point of failure", and
computational resiliency, which regenerates lost replicas to restore
operational readiness.  This baseline is the former: the same replication
level, the same detection machinery, but recovery disabled.

Under a mild attack (one replica of a group lost) the static configuration
still completes -- the surviving shadow carries the work.  Under a group
wipe-out it cannot: the run stalls until the manager's optional reassignment
timeout rescues it at the application level, or fails outright.  The recovery
ablation benchmark (``bench_ablation_recovery``) runs both configurations
under the same attack scenarios and tabulates completion and run time.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from ..config import FusionConfig, ResilienceConfig
from ..core.resilient import ResilientRunOutcome, _ResilientPCT
from ..data.cube import HyperspectralCube
from ..resilience.attack import AttackScenario


class StaticReplicationPCT(_ResilientPCT):
    """Replicated distributed fusion with regeneration switched off.

    Accepts the same arguments as the resilient engine
    (:mod:`repro.core.resilient`: cluster, backend, attack scenario, ...) but forces
    ``resilience.regenerate = False`` so lost replicas stay lost.  A
    ``reassign_timeout`` may be supplied to emulate an application that
    protects itself (manager-level task reassignment) instead of relying on
    the library.
    """

    def __init__(self, config: Optional[FusionConfig] = None, *,
                 attack: Optional[AttackScenario] = None,
                 reassign_timeout: Optional[float] = None,
                 **kwargs) -> None:
        config = config or FusionConfig()
        resilience = config.resilience or ResilienceConfig()
        static_resilience = dataclasses.replace(resilience, regenerate=False)
        config = config.with_resilience(static_resilience)
        super().__init__(config, attack=attack, reassign_timeout=reassign_timeout, **kwargs)

    def fuse(self, cube: HyperspectralCube) -> ResilientRunOutcome:
        outcome = super().fuse(cube)
        outcome.result.metadata["mode"] = "static-replication"
        return outcome


__all__ = ["StaticReplicationPCT"]
