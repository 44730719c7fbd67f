"""Scenario library and traffic/chaos simulator.

A *scenario* names a reproducible workload: a scene specification (what
is fused), an arrival process (when requests arrive) and an optional
chaos profile (what goes wrong while they run).  The built-in library
(:mod:`repro.scenarios.library`) registers twelve of them -- from 16px
thumbnails to 512-band stacks, steady through heavy-tail traffic, SIGKILL
storms through memory pressure -- and :func:`run_simulation` replays a
seeded trace of any of them against any engine x backend pair, emitting a
schema-versioned throughput/latency/recovery report.

``repro-fusion simulate <scenario>`` is the CLI front door.
"""

from .arrivals import (TRACE_SCHEMA, ArrivalProcess, BurstyArrivals,
                       HeavyTailArrivals, SteadyArrivals, Trace, record_trace)
from .chaos import (PIPELINE_STAGES, ChaosProfile, KillStorm, MemoryPressure,
                    Straggler)
from .registry import (Scenario, describe_scenarios, get_scenario,
                       register_scenario, scenario_names)
from .scenes import SceneSpec
from .simulate import (QUICK_REQUEST_CAP, SIMULATE_SCHEMA, SimulationResult,
                       run_simulation)

from . import library  # noqa: F401  (registers the built-in scenarios)

__all__ = [
    "TRACE_SCHEMA", "ArrivalProcess", "SteadyArrivals", "BurstyArrivals",
    "HeavyTailArrivals", "Trace", "record_trace",
    "PIPELINE_STAGES", "ChaosProfile", "KillStorm", "Straggler",
    "MemoryPressure",
    "Scenario", "register_scenario", "get_scenario", "scenario_names",
    "describe_scenarios",
    "SceneSpec",
    "QUICK_REQUEST_CAP", "SIMULATE_SCHEMA", "SimulationResult",
    "run_simulation",
]
