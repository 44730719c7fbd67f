"""The built-in scenario library.

Twelve named workloads spanning the three axes the ROADMAP asks for --
scene diversity (thumbnails through deep band stacks, low-contrast /
high-noise / camouflage variants, threshold sweeps), arrival diversity
(steady, bursty, heavy-tail) and chaos (SIGKILL storms, stragglers,
memory pressure).  Each is sized to run end-to-end in seconds on a
developer machine; ``--quick`` shrinks them further for CI smoke jobs.
They form the closed tuple :data:`SCENARIOS`, which every lookup below
reads: a new scenario is one more entry.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .arrivals import BurstyArrivals, HeavyTailArrivals, SteadyArrivals
from .chaos import KillStorm, MemoryPressure, Straggler
from .registry import Scenario
from .scenes import SceneSpec

SCENARIOS: Tuple[Scenario, ...] = (
    # --------------------------------------------------------- scene shapes
    Scenario(
        name="thumbnail",
        description="16px thumbnails at the 8-band floor: the smallest legal "
                    "cubes, one camouflaged target each",
        scene=SceneSpec(bands=8, rows=16, cols=16, vehicles=0, camouflaged=1,
                        distinct=3),
        arrivals=SteadyArrivals(interval=0.02),
        requests=8),

    Scenario(
        name="deep-bands",
        description="512-band stacks over a small footprint: spectral depth "
                    "instead of spatial extent",
        scene=SceneSpec(bands=512, rows=20, cols=20, vehicles=1, camouflaged=1,
                        distinct=2),
        arrivals=SteadyArrivals(interval=0.05),
        requests=4),

    Scenario(
        name="low-contrast",
        description="low spectral variability + strong sub-pixel mixing: "
                    "screening resolves few unique spectra",
        scene=SceneSpec(bands=32, rows=32, cols=32, vehicles=2, camouflaged=1,
                        spectral_variability=0.03, mixing_strength=0.7,
                        distinct=2),
        arrivals=SteadyArrivals(interval=0.05),
        requests=6),

    Scenario(
        name="high-noise",
        description="sensor SNR divided by six: noise-dominated scenes the "
                    "screening threshold must not be inflated by",
        scene=SceneSpec(bands=48, rows=32, cols=32, vehicles=2, camouflaged=1,
                        noise_scale=6.0, distinct=2),
        arrivals=SteadyArrivals(interval=0.05),
        requests=6),

    Scenario(
        name="camouflage",
        description="camouflage-heavy scenes (Figure 3's hard case): most "
                    "targets hidden under netting",
        scene=SceneSpec(bands=64, rows=40, cols=40, vehicles=1, camouflaged=4,
                        distinct=2),
        arrivals=SteadyArrivals(interval=0.05),
        requests=6),

    Scenario(
        name="threshold-sweep",
        description="one scene fused under a cycling screening-threshold "
                    "sweep (unique-set size from tens to hundreds)",
        scene=SceneSpec(bands=32, rows=32, cols=32, vehicles=2, camouflaged=1,
                        distinct=1),
        arrivals=SteadyArrivals(interval=0.02),
        requests=8,
        thresholds=(0.02, 0.05, 0.08, 0.12)),

    # ------------------------------------------------------ arrival shapes
    Scenario(
        name="steady",
        description="nominal steady traffic over midsize scenes: the baseline "
                    "every other scenario is compared against",
        scene=SceneSpec(bands=32, rows=32, cols=32, vehicles=2, camouflaged=1,
                        distinct=2),
        arrivals=SteadyArrivals(interval=0.05),
        requests=8),

    Scenario(
        name="bursty",
        description="bursts of four near-simultaneous requests: admission and "
                    "backpressure under load spikes",
        scene=SceneSpec(bands=32, rows=32, cols=32, vehicles=2, camouflaged=1,
                        distinct=2),
        arrivals=BurstyArrivals(burst=4, gap=0.25, within=0.002),
        requests=8),

    Scenario(
        name="heavy-tail",
        description="Pareto inter-arrival gaps: many quick arrivals, rare "
                    "long lulls",
        scene=SceneSpec(bands=32, rows=32, cols=32, vehicles=2, camouflaged=1,
                        distinct=2),
        arrivals=HeavyTailArrivals(scale=0.01, alpha=1.2, cap=0.5),
        requests=10),

    # -------------------------------------------------------- chaos shapes
    Scenario(
        name="kill-storm",
        description="bursty traffic while workers are SIGKILLed mid-stage "
                    "every round: crash recovery under load (process backend)",
        scene=SceneSpec(bands=24, rows=32, cols=32, vehicles=2, camouflaged=1,
                        distinct=2),
        arrivals=BurstyArrivals(burst=3, gap=0.2, within=0.002),
        chaos=KillStorm(rounds=2),
        requests=6),

    Scenario(
        name="straggler",
        description="steady traffic while slot-hogging sleep tasks emulate a "
                    "slow worker",
        scene=SceneSpec(bands=24, rows=32, cols=32, vehicles=2, camouflaged=1,
                        distinct=2),
        arrivals=SteadyArrivals(interval=0.05),
        chaos=Straggler(seconds=0.3, every=2),
        requests=6),

    Scenario(
        name="memory-pressure",
        description="steady traffic while workers allocate and hold large "
                    "buffers between fusions",
        scene=SceneSpec(bands=24, rows=32, cols=32, vehicles=2, camouflaged=1,
                        distinct=2),
        arrivals=SteadyArrivals(interval=0.05),
        chaos=MemoryPressure(megabytes=48.0, dwell_seconds=0.15, every=2),
        requests=6),
)

_BY_NAME: Dict[str, Scenario] = {scenario.name: scenario
                                 for scenario in SCENARIOS}


def scenario_names() -> List[str]:
    """Sorted names of every scenario."""
    return sorted(_BY_NAME)


def describe_scenarios() -> Dict[str, str]:
    """``name -> one-line description`` for help text and docs."""
    return {name: _BY_NAME[name].description for name in scenario_names()}


def get_scenario(name: str) -> Scenario:
    """Look up a scenario; an unknown name raises a :class:`ValueError`
    listing the scenarios."""
    try:
        return _BY_NAME[name]
    except (KeyError, TypeError):
        raise ValueError(
            f"unknown scenario {name!r}; registered scenarios: "
            f"{', '.join(scenario_names())} (repro-fusion simulate --list "
            f"shows details)") from None


__all__ = ["SCENARIOS", "scenario_names", "describe_scenarios",
           "get_scenario"]
