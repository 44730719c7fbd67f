"""One benchmark run of one workload: the untraced and the traced pass.

``run.py`` executes this in a subprocess of its own, so CPU and memory
accounting, ``/dev/shm`` residue and stray processes all belong to exactly
one workload, and the parent can read the child's stderr for
``resource_tracker`` complaints after the interpreter has exited.

Untraced pass (``--trace 0``) -- the gated numbers:

1. generate the seeded cubes, fuse each once on ``sequential`` at the
   workload's resolved config (the references every composite is diffed
   against, bit for bit);
2. :data:`SESSIONS` times over: ``open_session()`` -> first verified
   composite (one ``setup_s`` sample), warm up (every cube once, so caches
   are full and lazy set-up is done), run the closed loop for an equal share
   of the measured window with CPU sampled at its edges, close;
3. report the median session's throughput, latency and CPU, the tail percentile over
   all sessions' requests, the median ``setup_s``;
4. run the hygiene gate; a violation taints every request of the run.

Traced pass (``--trace 1``) -- the per-layer numbers: a quarter-length
untraced window and a quarter-length traced window on one warm session
(their medians give ``trace.overhead_share``), then the layer probes of
``probes.py`` on the same cubes, then the budget.
"""

from __future__ import annotations

import os
import platform
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.data.shared import owned_segment_names
from repro.scp.pool import default_start_method

from . import probes
from .hostproc import HygieneGate, cpu_seconds, descendants, peak_rss_mib
from .probes import Metrics, Prober, metric
from .stats import median, percentile, samples_beyond, summarize
from .trace import TraceRecorder, self_time_by_name
from .workloads import (KILL_STAGES, Workload, WindowResult, cube_digest, drive,
                        generate_cubes, sequential_reference)

#: Fresh sessions an untraced run measures; every rate it reports is the
#: median session's, and ``setup_s`` the median of their set-up times.
SESSIONS = 3

#: The gated tail latency.  A 24 s run completes about 90 requests on the
#: slowest workload: p80 is the highest round percentile that keeps at least
#: ten samples beyond it there (p90 would have nine), and it still lies
#: inside the killed quarter of ``socket_killstorm``.
TAIL_PERCENTILE = 80.0

#: Least warm-up of a session (it also serves every cube at least once).
WARMUP_SECONDS = 0.5

#: open/fuse/close cycles behind ``api.session.open_s`` / ``close_s``.
SETUP_CYCLES = 5

#: Sequential runs behind ``baseline.sequential_fuse_s_p50`` in the traced pass.
BASELINE_SAMPLES = 12

#: A budget residual above this share is an unmeasured layer: warn.
RESIDUAL_WARNING = 0.25

#: Environment variables that pin BLAS/OpenMP thread counts, as recorded in
#: the reproducibility block.
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class Inputs:
    """The seeded cubes of a run, their digests and sequential references."""

    def __init__(self, workload: Workload, seed: int, baseline_samples: int) -> None:
        t0 = time.perf_counter()
        self.cubes = generate_cubes(workload, seed)
        self.generate_s = time.perf_counter() - t0
        self.digests = [cube_digest(cube) for cube in self.cubes]
        self.references: List[np.ndarray] = []
        self.sequential_s: List[float] = []
        self.unique_set_sizes: List[int] = []
        for cube in self.cubes:
            composite, seconds, unique = sequential_reference(workload, cube)
            self.references.append(composite)
            self.sequential_s.append(seconds)
            self.unique_set_sizes.append(unique)
        index = 0
        while len(self.sequential_s) < baseline_samples:
            cube = self.cubes[index % len(self.cubes)]
            self.sequential_s.append(sequential_reference(workload, cube)[1])
            index += 1


def reproducibility(workload: Workload, seed: int, inputs: Inputs) -> Dict[str, Any]:
    """What a reader needs to rerun this exact measurement."""
    return {
        "workload": workload.name,
        "seed": seed,
        "cube_sha256": inputs.digests,
        "unique_set_sizes": inputs.unique_set_sizes,
        "git_sha": _git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "start_method": default_start_method(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "data.hydice.generate_s": inputs.generate_s,
    }


def _git_sha() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly (the driver's
    checkout is not a git repository; then there is none to report)."""
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref:"):
            return head
        with open(os.path.join(root, ".git", head[4:].strip()), encoding="ascii") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _open_first(workload: Workload, inputs: Inputs) -> Tuple[Any, float, float]:
    """``open_session()`` -> first verified composite.

    Returns ``(session, open_s, setup_s)``; ``setup_s`` is what a user waits
    for before the first result, scene generation excluded.
    """
    t0 = time.perf_counter()
    session = repro.open_session(**workload.session_options())
    try:
        t_open = time.perf_counter()
        report = session.fuse(inputs.cubes[0])
        t_first = time.perf_counter()
        if not np.array_equal(report.composite, inputs.references[0]):
            raise AssertionError("first composite of a fresh session differs from the "
                                 "sequential reference")
    except BaseException:
        session.close()
        raise
    return session, t_open - t0, t_first - t0


class WarmSession:
    """One session's life: open, first composite, warm-up, windows, close.

    The warm-up serves every cube once (at least), so caches are full and
    lazy set-up is done before anything is timed.  The request counter runs
    on through warm-up and windows, so the cube cycle never restarts.
    """

    def __init__(self, workload: Workload, inputs: Inputs) -> None:
        self.workload = workload
        self.inputs = inputs
        self.session, _open_s, self.setup_s = _open_first(workload, inputs)
        self.watch: Tuple[int, ...] = ()
        self.served = 1
        try:
            self.warmup = self.window(WARMUP_SECONDS, min_requests=len(inputs.cubes))
        except BaseException:
            self.close()
            raise

    def window(self, seconds: float, **options: Any) -> WindowResult:
        result = drive(self.session, self.workload, self.inputs.cubes, self.inputs.references,
                       seconds=seconds, first_request=self.served, **options)
        self.served += result.attempted
        return result

    def close(self) -> None:
        # Workers seen now are waited for by the hygiene gate even if their
        # parent dies first (the socket transport's, once the agent is killed).
        self.watch = tuple(descendants())
        self.session.close()


def _merge(windows: Sequence[WindowResult]) -> WindowResult:
    """The windows of a run's sessions as one, for totals and counters."""
    merged = WindowResult(records=[], elapsed=0.0, errors=[])
    for window in windows:
        merged.records += window.records
        merged.errors += window.errors
        merged.elapsed += window.elapsed
        merged.retries += window.retries
        merged.kills_cancelled += window.kills_cancelled
        merged.segments_created += window.segments_created
        for total, part in ((merged.kills_requested, window.kills_requested),
                            (merged.kills_delivered, window.kills_delivered)):
            for stage, count in part.items():
                total[stage] = total.get(stage, 0) + count
    return merged


def run_untraced(workload: Workload, seed: int, seconds: float) -> Dict[str, Any]:
    """The gated numbers: :data:`SESSIONS` fresh sessions, each measured for
    an equal share of ``seconds``; every rate is the median session's.

    Sessions differ from one another by more than windows of one session do
    (worker placement, memory layout), so the median over sessions is what
    steadies a run; the tail percentile needs the samples and is taken over
    all of them.
    """
    gate = HygieneGate.arm()
    inputs = Inputs(workload, seed, baseline_samples=0)
    sessions: List[WarmSession] = []
    windows: List[WindowResult] = []
    rates: List[Dict[str, float]] = []
    rss = 0.0
    for _ in range(SESSIONS):
        warm = WarmSession(workload, inputs)
        try:
            cpu0 = cpu_seconds()
            window = warm.window(seconds / SESSIONS)
            cpu1 = cpu_seconds()
            rss = max(rss, peak_rss_mib())
        finally:
            warm.close()
        completed = window.attempted - window.failed
        if completed == 0:
            raise RuntimeError(f"no request of {workload.name} completed: {window.errors[:3]}")
        sessions.append(warm)
        windows.append(window)
        rates.append({"throughput_cubes_per_s": completed / window.elapsed,
                      "latency_s_p50": median(window.latencies),
                      "setup_s": warm.setup_s,
                      "cpu_s_per_cube": (cpu1 - cpu0) / completed})
    violations = gate.check(owned_segment_names(),
                            watch=tuple(pid for warm in sessions for pid in warm.watch))

    merged = _merge(windows)
    count = len(merged.latencies)
    beyond = samples_beyond(count, TAIL_PERCENTILE)
    note = (f"latency samples: n={count} over {SESSIONS} sessions, {beyond} beyond "
            f"p{TAIL_PERCENTILE:g}"
            + ("" if beyond >= 10 else " (fewer than 10: read the tail with the count in mind)"))

    def median_session(name: str) -> float:
        return median([rate[name] for rate in rates])

    metrics: Metrics = {
        "throughput_cubes_per_s": metric(median_session("throughput_cubes_per_s"), "cubes/s"),
        "latency_s_p50": metric(median_session("latency_s_p50"), "s"),
        f"latency_s_p{TAIL_PERCENTILE:g}": metric(
            percentile(merged.latencies, TAIL_PERCENTILE), "s"),
        "setup_s": metric(median_session("setup_s"), "s"),
        "cpu_s_per_cube": metric(median_session("cpu_s_per_cube"), "s"),
        "peak_rss_mb": metric(rss, "MiB"),
    }
    warmups = _merge([warm.warmup for warm in sessions])
    return _result(workload, seed, inputs, merged, warmups, violations, metrics, notes=[note],
                   detail={"latencies_s": merged.latencies, "sessions": rates})


def _result(workload: Workload, seed: int, inputs: Inputs, window: WindowResult,
            warmup: WindowResult, violations: List[str], metrics: Metrics, *,
            notes: List[str], detail: Dict[str, Any]) -> Dict[str, Any]:
    """The run record: the contract's four keys plus a ``detail`` block."""
    attempted = window.attempted
    failed = window.failed
    errors = list(warmup.errors) + list(window.errors)
    if warmup.failed or violations:
        # A dirty exit or a wrong warm-up composite puts every number of the
        # run in doubt: all of its requests count as failed.
        failed = attempted
    delivered, requested = window.kills_delivered, window.kills_requested
    if sum(delivered.values()) + window.kills_cancelled != sum(requested.values()):
        violations = violations + [f"kill storm: requested {requested}, delivered {delivered}, "
                                   f"cancelled {window.kills_cancelled}"]
        failed = attempted
    if len(requested) == len(KILL_STAGES) and len(delivered) < len(KILL_STAGES):
        # The storm reached every stage, so every stage must have lost a worker.
        violations = violations + [f"kill storm delivered no kill to: "
                                   f"{sorted(set(requested) - set(delivered))}"]
        failed = attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "detail": {
            **detail,
            "reproducibility": reproducibility(workload, seed, inputs),
            "failed_share": failed / attempted,
            "hygiene_violations": violations,
            "errors": errors[:20],
            "kills": {"requested": requested, "delivered": delivered,
                      "cancelled": window.kills_cancelled, "retries": window.retries},
            "notes": notes,
        },
    }


# ---------------------------------------------------------------------------
# Traced pass
# ---------------------------------------------------------------------------

def run_traced(workload: Workload, seed: int, seconds: float, *, smoke: bool,
               trace_path: str) -> Dict[str, Any]:
    recorder = TraceRecorder(enabled=True)
    prober = Prober(recorder, smoke=smoke)
    gate = HygieneGate.arm()
    inputs = Inputs(workload, seed, baseline_samples=prober.repeats(BASELINE_SAMPLES))

    part = max(seconds / 4.0, 1.0)
    warm = WarmSession(workload, inputs)
    try:
        untraced = warm.window(part)
        window = warm.window(part, recorder=recorder, watch_segments=True)
    finally:
        warm.close()
    violations = gate.check(owned_segment_names(), watch=warm.watch)
    if window.attempted == window.failed or untraced.attempted == untraced.failed:
        raise RuntimeError(f"no request of {workload.name} completed: {window.errors[:3]}")
    setup = _setup_cycles(workload, inputs, prober.repeats(SETUP_CYCLES))

    metrics: Metrics = {"data.hydice.generate_s": metric(inputs.generate_s, "s")}
    metrics.update(_session_metrics(setup, window))
    metrics.update(_executor_metrics(window))
    metrics.update(_layer_probes(prober, workload, inputs, window))
    metrics["data.shared.residue_segments"] = metric(
        len(owned_segment_names()) + len(gate.residue()), "count")

    latency_p50 = median(window.latencies)
    sequential_p50 = median(inputs.sequential_s)
    metrics["baseline.sequential_fuse_s_p50"] = metric(sequential_p50, "s")
    metrics["baseline.speedup_vs_sequential"] = metric(sequential_p50 / latency_p50, "ratio")
    metrics["trace.overhead_share"] = metric(
        latency_p50 / median(untraced.latencies) - 1.0, "ratio")
    budget, warnings = _budget(workload, metrics, window)
    metrics.update(budget)

    recorder.write(trace_path, {"workload": workload.name, "seed": seed})
    self_p50 = {name: median(values)
                for name, values in sorted(self_time_by_name(recorder.spans).items())}
    return _result(workload, seed, inputs, window, warm.warmup, violations, metrics,
                   notes=[f"latency samples (traced window): n={len(window.latencies)}"] + warnings,
                   detail={"latencies_s": window.latencies, "spans": len(recorder.spans),
                           "span_self_s_p50": self_p50})


def _setup_cycles(workload: Workload, inputs: Inputs, cycles: int) -> Dict[str, List[float]]:
    """Open -> first composite -> close, ``cycles`` times, each phase timed."""
    samples: Dict[str, List[float]] = {"open": [], "close": [], "spawned": []}
    for _ in range(cycles):
        session, open_s, _setup_s = _open_first(workload, inputs)
        samples["spawned"].append(float(session.spawned_processes))
        t0 = time.perf_counter()
        session.close()
        samples["close"].append(time.perf_counter() - t0)
        samples["open"].append(open_s)
    return samples


def _session_metrics(setup: Dict[str, List[float]], window: WindowResult) -> Metrics:
    return {
        "api.session.open_s": metric(median(setup["open"]), "s"),
        "api.session.close_s": metric(median(setup["close"]), "s"),
        "api.session.spawned_processes": metric(median(setup["spawned"]), "count"),
        # Owned segments that appeared during the warm window are cube
        # placements: the output pool's segments were all created in warm-up.
        "api.session.placement_hit_ratio": metric(
            max(0.0, 1.0 - window.segments_created / window.attempted), "ratio"),
    }


def _executor_metrics(window: WindowResult) -> Metrics:
    """How the workload itself used the stage executor in the traced window
    (all zero, ratio 1, on a workload that has no stage executor)."""
    resolved = sum(record.stage_tasks for record in window.records if record.ok)
    return {
        "scp.stages.retries": metric(window.retries, "count"),
        "scp.stages.kills_delivered": metric(sum(window.kills_delivered.values()), "count"),
        "scp.stages.kills_cancelled": metric(window.kills_cancelled, "count"),
        "scp.stages.useful_ratio": metric(
            resolved / (resolved + window.retries) if resolved else 1.0, "ratio"),
    }


def _layer_probes(prober: Prober, workload: Workload, inputs: Inputs,
                  window: WindowResult) -> Metrics:
    cubes, references = inputs.cubes, inputs.references
    metrics: Metrics = {}
    metrics.update(probes.probe_facade(prober, workload, cubes[0]))
    metrics.update(probes.probe_session_cache(prober, workload, cubes))
    metrics.update(probes.probe_shared(prober, cubes[0]))
    metrics.update(probes.probe_pool(prober))
    metrics.update(probes.probe_serialization(prober))
    for kind in probes.TRANSPORTS:
        metrics.update(probes.probe_transport_and_stages(prober, kind))
    metrics.update(probes.probe_kernels(prober, workload, cubes[0]))
    metrics.update(probes.probe_sim_backend(prober, cubes[0]))

    # The engine a workload runs is read from its own traced window; the
    # other engine gets a short serial loop on the same cubes.
    loop = dict(cubes=cubes, references=references, requests=4)
    if workload.engine == "pipeline":
        pipeline = window
        resilient = probes.engine_loop(prober, workload, engine="resilient",
                                       backend="process:2", options={"replication": 2}, **loop)
    else:
        resilient = window
        pipeline = probes.engine_loop(prober, workload, engine="pipeline",
                                      backend="process:2", options={}, **loop)
    distributed = probes.engine_loop(prober, workload, engine="distributed",
                                     backend="process:2", options={}, **loop)
    metrics.update(probes.streaming_metrics(pipeline))
    metrics.update(probes.resilient_metrics(resilient, distributed))
    return metrics


#: Report stage -> the kernel probe that prices one request's worth of it.
STAGE_KERNELS = {"screening": "core.steps.screening.s_p50",
                 "covariance": "core.kernels.covariance.s_p50",
                 "projection": "core.kernels.project_map.s_p50"}


def _budget(workload: Workload, metrics: Metrics,
            window: WindowResult) -> Tuple[Metrics, List[str]]:
    """Where one request's wall clock goes, as shares of the traced p50.

    Pipeline workloads are priced round by round.  A parallel stage of
    ``n`` tasks on ``w`` workers takes ``ceil(n / w)`` barrier rounds (task
    counts come from the report); a round's kernel time is the stage's
    probed kernel time / ``n``.  The executor's wake-up latency
    (``hop_chain`` on the workload's transport) runs *while* the worker
    computes, so a round costs ``max(kernel, hop)``: the kernel part goes to
    ``kernel_share`` and only what the hop adds beyond it to ``hop_share``.
    The eigen-decomposition is serial kernel time.

    The resilient workload has no stage executor (``hop_share`` 0); its
    kernel time is the parallel kernels x replication copies spread over the
    cores the host has, plus eigen.

    ``placement_share`` is the share of requests that re-place their cube
    (1 - hit ratio) x the evicted-vs-cached request difference, and
    ``residual_share`` is what no probe explains.  Above 25 % it is printed
    as a warning: an unmeasured layer.
    """
    def value(name: str) -> float:
        return float(metrics[name]["value"])

    latency = median(window.latencies)
    records = [record for record in window.records if record.ok]
    kernel = value("core.steps.transform.eigen_s_p50")
    hop = 0.0
    transport = probes.BACKEND_TRANSPORT.get(workload.backend.split(":")[0])
    if workload.engine == "pipeline" and transport is not None:
        hop_cost = value(f"scp.stages.{transport}.hop_chain_s_p50")
        for stage, kernel_metric in STAGE_KERNELS.items():
            tasks = median([record.stage_invocations.get(stage, 0) for record in records])
            if tasks:
                rounds = -(-tasks // probes.WORKERS)
                per_round = value(kernel_metric) / tasks
                kernel += rounds * per_round
                hop += rounds * max(0.0, hop_cost - per_round)
    else:
        copies = int(workload.options.get("replication", 1))
        lanes = min(probes.WORKERS * copies, len(os.sched_getaffinity(0)))
        kernel += sum(value(name) for name in STAGE_KERNELS.values()) * copies / lanes

    miss_share = 1.0 - value("api.session.placement_hit_ratio")
    placement = miss_share * max(0.0, value("api.session.fuse_evicted_s_p50")
                                 - value("api.session.fuse_repeat_s_p50"))

    shares = {"kernel": kernel / latency, "hop": hop / latency,
              "placement": placement / latency}
    shares["residual"] = 1.0 - sum(shares.values())
    warnings = []
    if shares["residual"] > RESIDUAL_WARNING:
        warnings.append(f"WARNING budget residual {shares['residual']:.0%} of the request is "
                        f"explained by no probe: an unmeasured layer")
    return ({f"budget.{name}_share": metric(share, "ratio") for name, share in shares.items()},
            warnings)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_run(workload: Workload, seed: int, traced: bool, result: Dict[str, Any]) -> None:
    """Every metric by name with its unit, then notes and violations."""
    print(f"== {workload.name}  seed={seed}  {'traced' if traced else 'untraced'}  "
          f"({workload.engine} x {workload.backend}, {workload.rows}x{workload.cols}x"
          f"{workload.bands}, {workload.cubes} cubes, {workload.outstanding} outstanding)")
    for name, entry in result["metrics"].items():
        print(f"  {name:<46s} {entry['value']:>14.6g} {entry['unit']}")
    detail = result["detail"]
    print(f"  {'failed_share':<46s} {detail['failed_share']:>14.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    for note in detail["notes"]:
        print(f"  {note}")
    kills = detail["kills"]
    if workload.kill_every:
        print(f"  kills requested {kills['requested']}, delivered {kills['delivered']}, "
              f"cancelled {kills['cancelled']}, retries {kills['retries']}")
    for violation in detail["hygiene_violations"]:
        print(f"  HYGIENE {violation}")
    for error in detail["errors"][:5]:
        print(f"  ERROR {error}")
    summary = summarize(detail["latencies_s"]) if detail["latencies_s"] else None
    if summary is not None:
        print(f"  latency min {summary['min']:.4f}  p50 {summary['p50']:.4f}  max "
              f"{summary['max']:.4f} s; highest percentile n={summary['n']} supports: "
              f"p{summary['tail_percentile']:g} = {summary['tail']:.4f} s")
