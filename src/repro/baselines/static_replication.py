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
from typing import Any, Optional

from ..api.facade import fuse
from ..api.request import FusionReport
from ..config import FusionConfig, ResilienceConfig
from ..data.cube import HyperspectralCube


def fuse_static_replication(cube: HyperspectralCube,
                            config: Optional[FusionConfig] = None,
                            **options: Any) -> FusionReport:
    """Replicated distributed fusion with regeneration switched off.

    Runs the resilient engine (``options`` are :func:`repro.fuse` options:
    backend, cluster, attack scenario, ...) but forces
    ``resilience.regenerate = False`` so lost replicas stay lost.  A
    ``reassign_timeout`` may be supplied to emulate an application that
    protects itself (manager-level task reassignment) instead of relying on
    the library.
    """
    config = config or FusionConfig()
    resilience = config.resilience or ResilienceConfig()
    config = config.with_resilience(
        dataclasses.replace(resilience, regenerate=False))
    report = fuse(cube, engine="resilient", config=config, **options)
    report.result.metadata["mode"] = "static-replication"
    return report


__all__ = ["fuse_static_replication"]
