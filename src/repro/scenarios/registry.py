"""Named-scenario registry.

Mirrors the engine/backend/lint-rule registries: scenarios are registered
under a one-word name, lookups of unknown names raise a ValueError that
lists what *is* registered, and downstream code can register its own
scenarios without touching this module.

A :class:`Scenario` bundles the three halves of a workload:

* a scene specification (:class:`~repro.scenarios.scenes.SceneSpec`) --
  what is fused,
* an arrival process (:class:`~repro.scenarios.arrivals.ArrivalProcess`)
  -- when requests arrive, and
* an optional chaos profile (:class:`~repro.scenarios.chaos.ChaosProfile`)
  -- what goes wrong while they run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..registry import Registry
from .arrivals import ArrivalProcess
from .chaos import ChaosProfile
from .scenes import SceneSpec


@dataclass(frozen=True)
class Scenario:
    """One named workload: scene x arrivals x (optional) chaos.

    Attributes
    ----------
    name / description:
        Registry identity and the one-liner shown by ``simulate --list``.
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


_SCENARIOS: Registry[Scenario] = Registry(
    "scenario", hint="(repro-fusion simulate --list shows details)")


def register_scenario(scenario: Scenario) -> Scenario:
    """Register ``scenario`` under its name; returns it for chaining."""
    return _SCENARIOS.add(scenario.name, scenario)


def scenario_names() -> List[str]:
    """Sorted names of every registered scenario."""
    return _SCENARIOS.names()


def describe_scenarios() -> Dict[str, str]:
    """``name -> one-line description`` for help text and docs."""
    return {name: _SCENARIOS.get(name).description for name in scenario_names()}


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario; unknown names raise actionably."""
    return _SCENARIOS.get(name)


__all__ = ["Scenario", "register_scenario", "scenario_names",
           "describe_scenarios", "get_scenario"]
