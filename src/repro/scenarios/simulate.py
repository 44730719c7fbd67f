"""Trace replay: drive a scenario against an engine x backend pair.

``repro-fusion simulate <scenario>`` lands here.  One simulation:

1. resolves the named scenario and draws (or loads) its seeded arrival
   trace,
2. materialises the scenario's cube cycle,
3. opens a :class:`~repro.api.session.FusionSession` on the requested
   engine x backend, arms the chaos profile on the session's stage
   executor, and replays the trace through :meth:`FusionSession.submit`
   at the recorded offsets,
4. measures per-request latency (submission to completion, queueing
   included) and end-to-end throughput, collects the executor's recovery
   counters, optionally verifies every composite bit-for-bit against the
   sequential reference, and
5. emits one schema-versioned JSON report (:data:`SIMULATE_SCHEMA`;
   ``repro-fusion simulate --json`` writes it as is).

Outstanding chaos kill requests are *cancelled and reported* at the end
of every replay -- the reused session executor must never leak a kill
into a later run (:meth:`~repro.scp.stages.TransportStageExecutor.
cancel_kills` does the accounting).
"""

from __future__ import annotations

import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from ..api.facade import fuse
from ..api.request import FusionReport, FusionRequest
from ..api.session import FusionSession
from ..config import FusionConfig, ScreeningConfig
from .arrivals import Trace, record_trace
from .library import get_scenario
from .registry import Scenario

#: Schema tag of the report :meth:`SimulationResult.record` serialises.
SIMULATE_SCHEMA = "repro-fusion/simulate-report/v1"

#: Requests a ``--quick`` run is capped at (CI smoke sizing).
QUICK_REQUEST_CAP = 4


@dataclass
class SimulationResult:
    """Everything one trace replay produced.

    ``reports`` holds the live :class:`FusionReport` objects (composites
    included) for callers that verify or post-process; :meth:`record`
    serialises the measured half into a JSON-ready dict.
    """

    scenario: str
    engine: str
    backend: str
    seed: int
    quick: bool
    trace: Trace
    scene_label: str
    arrivals_label: str
    chaos_label: Optional[str]
    latencies_ms: List[float]
    makespan_seconds: float
    recovery: Dict[str, Any]
    parity: Dict[str, Any]
    reports: List[FusionReport] = field(default_factory=list)

    @property
    def requests(self) -> int:
        return self.trace.requests

    @property
    def throughput_rps(self) -> float:
        return self.requests / max(self.makespan_seconds, 1e-9)

    def latency_percentile(self, q: float) -> float:
        return float(np.percentile(np.asarray(self.latencies_ms), q))

    def record(self) -> Dict[str, Any]:
        """The JSON-serialisable simulate report (:data:`SIMULATE_SCHEMA`)."""
        return {
            "schema": SIMULATE_SCHEMA,
            "scenario": self.scenario,
            "engine": self.engine,
            "backend": self.backend,
            "seed": self.seed,
            "quick": self.quick,
            "requests": self.requests,
            "scene": self.scene_label,
            "arrivals": self.arrivals_label,
            "chaos": self.chaos_label,
            "throughput_rps": self.throughput_rps,
            "latency_p50_ms": self.latency_percentile(50.0),
            "latency_p95_ms": self.latency_percentile(95.0),
            "trace": self.trace.to_dict(),
            "latencies_ms": [round(value, 3) for value in self.latencies_ms],
            "makespan_seconds": self.makespan_seconds,
            "recovery": self.recovery,
            "parity": self.parity,
        }

    def summary(self) -> str:
        from ..analysis.report import dict_table

        rows: Dict[str, object] = {
            "scenario": self.scenario,
            "engine x backend": f"{self.engine} x {self.backend}",
            "scene": self.scene_label,
            "arrivals": self.arrivals_label,
            "requests": self.requests,
            "throughput": f"{self.throughput_rps:.2f} req/s",
            "latency p50/p95": (f"{self.latency_percentile(50.0):.0f} / "
                                f"{self.latency_percentile(95.0):.0f} ms"),
        }
        if self.chaos_label:
            rows["chaos"] = self.chaos_label
            rows["recovery"] = (
                f"{self.recovery.get('kills_delivered', 0)} kill(s) "
                f"delivered, {self.recovery.get('retries', 0)} retri(es), "
                f"{self.recovery.get('kills_cancelled', 0)} cancelled")
        if self.parity.get("verified"):
            rows["parity"] = ("bit-identical to sequential"
                              if self.parity.get("ok")
                              else "PARITY VIOLATION (see payload)")
        return dict_table(f"simulate {self.scenario}", rows)


def _threshold_config(threshold: float) -> FusionConfig:
    return FusionConfig(screening=ScreeningConfig(angle_threshold=threshold))


def run_simulation(scenario: Union[str, Scenario], *,
                   engine: str = "pipeline",
                   backend: Optional[str] = None,
                   requests: Optional[int] = None,
                   seed: int = 0,
                   quick: bool = False,
                   trace: Optional[Trace] = None,
                   verify: bool = True,
                   workers: Optional[int] = None,
                   max_inflight: Optional[int] = None) -> SimulationResult:
    """Replay one scenario trace against ``engine`` x ``backend``.

    ``trace`` replays a recorded arrival sequence verbatim (its length
    wins over ``requests``); otherwise a fresh trace is drawn from the
    scenario's arrival process, deterministically per ``seed``.
    ``verify`` fuses each distinct cube/threshold pair once with the
    sequential reference engine and diffs every composite bit-for-bit.
    """
    if isinstance(scenario, str):
        scenario = get_scenario(scenario)
    chaos = scenario.chaos
    if chaos is not None and engine != "pipeline":
        raise ValueError(
            f"scenario {scenario.name!r} carries the {chaos.kind!r} chaos "
            f"profile, which drives the streaming stage executor; run it "
            f"with engine='pipeline' (got engine={engine!r})")
    if backend is None:
        if engine == "sequential":
            backend = None
        elif chaos is not None and chaos.kind == "kill-storm":
            backend = "process:2"
        else:
            backend = "local"

    scene = scenario.scene.quick() if quick else scenario.scene
    if trace is None:
        count = requests if requests is not None else scenario.requests
        if quick:
            count = min(count, QUICK_REQUEST_CAP)
        trace = record_trace(scenario.arrivals, scenario.name, seed=seed,
                             requests=count)
    count = trace.requests

    cubes = scene.build_cubes(seed, count)
    overrides: List[Dict[str, Any]] = []
    for index in range(count):
        if scenario.thresholds:
            threshold = scenario.thresholds[index % len(scenario.thresholds)]
            overrides.append({"config": _threshold_config(threshold)})
        else:
            overrides.append({})

    session_options: Dict[str, Any] = {"engine": engine, "backend": backend,
                                       "workers": workers}
    if engine == "pipeline" and max_inflight is not None:
        session_options["max_inflight"] = max_inflight

    reports: List[FusionReport] = []
    latencies_ms: List[Optional[float]] = [None] * count
    completions: List[Optional[float]] = [None] * count
    chaos_futures: List["Future[object]"] = []

    with FusionSession(**session_options) as session:
        executor = session.stage_executor() if engine == "pipeline" else None
        retries_before = executor.retries if executor is not None else 0
        kills_before = (sum(executor.kills_delivered.values())
                        if executor is not None else 0)
        if chaos is not None:
            assert executor is not None  # guaranteed by the engine check
            chaos.start(executor, count)

        futures: List["Future[FusionReport]"] = []
        clock_start = time.perf_counter()
        for index, offset in enumerate(trace.offsets):
            now = time.perf_counter() - clock_start
            if offset > now:
                time.sleep(offset - now)
            if chaos is not None and executor is not None:
                chaos_futures.extend(chaos.on_request(executor, index))
            submitted = time.perf_counter()

            def _complete(done: "Future[FusionReport]", *, slot: int = index,
                          t0: float = submitted) -> None:
                finished = time.perf_counter()
                latencies_ms[slot] = (finished - t0) * 1000.0
                completions[slot] = finished - clock_start

            future = session.submit(cubes[index % len(cubes)],
                                    **overrides[index])
            future.add_done_callback(_complete)
            futures.append(future)

        for future in futures:
            reports.append(future.result())
        for pending in chaos_futures:
            pending.result(timeout=120.0)

        # The reused session executor must never carry a kill request into
        # the next run: drain leftovers and surface them in the report.
        cancelled: Dict[str, int] = (executor.cancel_kills()
                                     if executor is not None else {})
        recovery: Dict[str, Any] = {
            "profile": chaos.kind if chaos is not None else "none",
            "retries": ((executor.retries - retries_before)
                        if executor is not None else 0),
            "kills_delivered": ((sum(executor.kills_delivered.values())
                                 - kills_before)
                                if executor is not None else 0),
            "kills_cancelled": int(sum(cancelled.values())),
            "chaos_tasks": len(chaos_futures),
        }

        parity: Dict[str, Any] = {"verified": 0, "ok": True, "mismatches": []}
        if verify:
            reference_reports: Dict[Tuple[int, Optional[float]],
                                    FusionReport] = {}
            for index, report in enumerate(reports):
                cube_index = index % len(cubes)
                threshold = (scenario.thresholds[index
                                                 % len(scenario.thresholds)]
                             if scenario.thresholds else None)
                key = (cube_index, threshold)
                if key not in reference_reports:
                    # The unique-set union depends on the partition, and
                    # backend specs like "process:2" hint the worker count;
                    # the sequential reference must resolve the exact same
                    # effective config or the comparison is meaningless.
                    resolved = FusionRequest(
                        cube=cubes[cube_index], engine=engine,
                        backend=backend, workers=workers,
                        config=overrides[index].get("config"),
                    ).resolved_config()
                    reference_reports[key] = fuse(cubes[cube_index],
                                                  engine="sequential",
                                                  config=resolved)
                reference = reference_reports[key]
                parity["verified"] += 1
                if not np.array_equal(report.composite, reference.composite):
                    parity["ok"] = False
                    parity["mismatches"].append(index)

    resolved = [value for value in latencies_ms if value is not None]
    done_offsets = [value for value in completions if value is not None]
    makespan = max(done_offsets) if done_offsets else 0.0

    return SimulationResult(
        scenario=scenario.name,
        engine=engine,
        backend=session_options["backend"] or "inline",
        seed=seed,
        quick=quick,
        trace=trace,
        scene_label=scene.label(),
        arrivals_label=scenario.arrivals.describe(),
        chaos_label=chaos.describe() if chaos is not None else None,
        latencies_ms=resolved,
        makespan_seconds=makespan,
        recovery=recovery,
        parity=parity,
        reports=reports)


__all__ = ["QUICK_REQUEST_CAP", "SIMULATE_SCHEMA", "SimulationResult",
           "run_simulation"]
