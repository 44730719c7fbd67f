"""What a named scenario is.

A :class:`Scenario` bundles the three halves of a workload:

* a scene specification (:class:`~repro.scenarios.scenes.SceneSpec`) --
  what is fused,
* an arrival process (:class:`~repro.scenarios.arrivals.ArrivalProcess`)
  -- when requests arrive, and
* an optional chaos profile (:class:`~repro.scenarios.chaos.ChaosProfile`)
  -- what goes wrong while they run.

The scenarios themselves, and the name lookups over them, are the closed
tuple in :mod:`repro.scenarios.library`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .arrivals import ArrivalProcess
from .chaos import ChaosProfile
from .scenes import SceneSpec


@dataclass(frozen=True)
class Scenario:
    """One named workload: scene x arrivals x (optional) chaos.

    Attributes
    ----------
    name / description:
        Lookup key and the one-liner shown by ``simulate --list``.
    scene:
        Scene specification the trace's cubes are generated from.
    arrivals:
        Arrival process a seeded trace is drawn from.
    chaos:
        Optional chaos profile layered on the stage executor.
    requests:
        Default trace length (overridable per run).
    thresholds:
        Optional per-request screening-threshold cycle; non-empty makes
        the scenario a threshold sweep (request ``i`` uses
        ``thresholds[i % len]``).
    """

    name: str
    description: str
    scene: SceneSpec
    arrivals: ArrivalProcess
    chaos: Optional[ChaosProfile] = None
    requests: int = 8
    thresholds: Tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.requests < 1:
            raise ValueError("requests must be >= 1")
        for threshold in self.thresholds:
            if threshold <= 0:
                raise ValueError("sweep thresholds must be positive")


__all__ = ["Scenario"]
