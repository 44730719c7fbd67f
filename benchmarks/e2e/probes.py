"""Outside-in layer probes: one timed call into each layer's public functions.

The traced pass runs these after the workload window, on the same cubes the
workload used.  Every probe is timed from here -- around a public function
of the layer -- and recorded as a span; nothing under ``src/`` is
instrumented (spans inside the program are ROADMAP item 1, a later change).
Each metric is named ``<layer>.<what>`` with the layer being the repo module
that owns the code, so a later change to that module knows which numbers to
quote.

Probe tasks sent through the stage executor are stdlib callables
(``operator.add``, ``len``): stage functions travel to workers pickled by
reference, and the socket transport's node agent is a fresh interpreter that
could not import a function defined in a benchmark file.
"""

from __future__ import annotations

import operator
import pickle
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, List, Sequence, Tuple

import repro
from repro.api.engines import get_engine
from repro.api.request import FusionRequest
from repro.core.kernels import kernel_covariance_sum, kernel_project_and_map
from repro.core.partition import decompose, extract_subcube, subcube_pixel_matrix
from repro.core.profiling import measured_gemm_peak_gflops
from repro.core.steps.colormap import color_map_flops, component_statistics
from repro.core.steps.screening import (merge_unique_sets, screen_unique_set,
                                        screening_flops)
from repro.core.steps.statistics import (covariance_matrix, covariance_sum_flops,
                                         mean_vector, partition_pixel_matrix)
from repro.core.steps.transform import (PCTBasis, eigendecomposition_flops, project,
                                        projection_flops, transformation_matrix)
from repro.data.shared import OutputPool, SharedComposite, SharedCube
from repro.resilience.attack import AttackScenario
from repro.scp.pool import ProcessPool
from repro.scp.serialization import RESULT_SUFFIX, commit_spool_file, spool_root
from repro.scp.stages import TransportStageExecutor
from repro.scp.transport import (ForkedProcessTransport, InProcessTransport,
                                 SocketTransport, TaskFrame, collect_spool)

from .stats import median
from .trace import TraceRecorder
from .workloads import Workload, drive

Metrics = Dict[str, Dict[str, Any]]

#: Worker slots of every probe executor/transport (the build host's cores).
WORKERS = 2

#: Payload of the ``payload_256k`` and ``commit_256k`` probes.
PAYLOAD_256K = b"\xa5" * (256 * 1024)

#: Idle gap before each ``hop_idle`` task: longer than the executor's idle
#: router sleep (50 ms), so the task always finds the router parked.
IDLE_GAP_SECONDS = 0.08

#: Run time of the task the recovery probe kills (then re-runs).
RECOVERY_TASK_SECONDS = 0.01

#: Independent no-ops of the ``hop_burst`` probe.  At today's ~25 ms per task
#: on the process transports a larger burst would not fit the run-time cap.
BURST_TASKS = 40

#: Transports probed, by the short name used in metric names.
TRANSPORTS: Dict[str, Callable[[], Any]] = {
    "inprocess": lambda: InProcessTransport(workers=WORKERS),
    "forked": lambda: ForkedProcessTransport(),
    "socket": lambda: SocketTransport(workers=WORKERS),
}

#: Short transport name behind a pipeline workload's backend spec.
BACKEND_TRANSPORT = {"process": "forked", "socket": "socket"}


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


class Prober:
    """Times layer calls, records each as a span, scales repeat counts."""

    def __init__(self, recorder: TraceRecorder, *, smoke: bool = False) -> None:
        self.recorder = recorder
        self.smoke = smoke

    def repeats(self, count: int) -> int:
        """``count`` repeats in a full run, a third (at least 3) in a smoke run."""
        return max(3, count // 3) if self.smoke else count

    def timed(self, name: str, layer: str, fn: Callable[..., Any], *args: Any,
              **kwargs: Any) -> Tuple[Any, float]:
        t0 = time.perf_counter()
        value = fn(*args, **kwargs)
        t1 = time.perf_counter()
        self.recorder.add(name, layer, t0, t1, probe=True)
        return value, t1 - t0

    def sample(self, name: str, layer: str, count: int, fn: Callable[..., Any],
               *args: Any, **kwargs: Any) -> List[float]:
        return [self.timed(name, layer, fn, *args, **kwargs)[1]
                for _ in range(self.repeats(count))]


# ---------------------------------------------------------------------------
# api.facade / api.session
# ---------------------------------------------------------------------------

def probe_facade(prober: Prober, workload: Workload, cube: Any) -> Metrics:
    def normalise() -> None:
        request = FusionRequest(cube=cube, **workload.session_options())
        request.resolved_config()
        get_engine(request.engine)

    samples = prober.sample("normalise", "api.facade", 200, normalise)
    return {"api.facade.normalise_s_p50": metric(median(samples), "s")}


def probe_session_cache(prober: Prober, workload: Workload, cubes: Sequence[Any]) -> Metrics:
    """A request on a cached cube against one whose placement was evicted.

    ``max_placements=1`` and two alternating cubes make every second-phase
    request re-place its cube; the loop is serial on every workload, so the
    difference between the two medians is the placement cost and nothing else.
    """
    options = {key: value for key, value in workload.session_options().items()
               if key != "max_inflight"}
    with repro.open_session(max_placements=1, **options) as session:
        session.fuse(cubes[0])
        repeat = prober.sample("fuse_repeat", "api.session", 6, session.fuse, cubes[0])
        evicted = [prober.timed("fuse_evicted", "api.session", session.fuse,
                                cubes[(index + 1) % 2])[1] for index in range(prober.repeats(6))]
    return {"api.session.fuse_repeat_s_p50": metric(median(repeat), "s"),
            "api.session.fuse_evicted_s_p50": metric(median(evicted), "s")}


# ---------------------------------------------------------------------------
# data.shared / scp.pool / scp.serialization
# ---------------------------------------------------------------------------

def probe_shared(prober: Prober, cube: Any) -> Metrics:
    place: List[float] = []
    for _ in range(prober.repeats(8)):
        shared, seconds = prober.timed("place_cube", "data.shared", SharedCube.from_cube, cube)
        shared.close()
        place.append(seconds)
    create: List[float] = []
    for _ in range(prober.repeats(8)):
        composite, seconds = prober.timed("composite_create", "data.shared",
                                          SharedComposite.create, cube.rows, cube.cols, 3)
        composite.close()
        create.append(seconds)
    acquire: List[float] = []
    with OutputPool(max_segments=4) as pool:
        pool.release(pool.acquire(cube.rows, cube.cols, 3))  # allocate once, off the clock
        for _ in range(prober.repeats(60)):
            placement, seconds = prober.timed("output_pool_acquire", "data.shared",
                                              pool.acquire, cube.rows, cube.cols, 3)
            pool.release(placement)
            acquire.append(seconds)
    place_p50 = median(place)
    return {"data.shared.place_cube_s_p50": metric(place_p50, "s"),
            "data.shared.place_cube_mb_per_s": metric(cube.data.nbytes / 1e6 / place_p50, "MB/s"),
            "data.shared.composite_create_s_p50": metric(median(create), "s"),
            "data.shared.output_pool_acquire_s_p50": metric(median(acquire), "s")}


def probe_pool(prober: Prober) -> Metrics:
    spawn: List[float] = []
    for _ in range(prober.repeats(3)):
        with ProcessPool() as pool:
            spawn.append(prober.timed("ensure", "scp.pool", pool.ensure, WORKERS)[1])
    return {"scp.pool.spawn_s_per_worker": metric(median(spawn) / WORKERS, "s")}


def probe_serialization(prober: Prober) -> Metrics:
    """Spool commit and scan on the same filesystem the transports spool to."""
    spool = tempfile.mkdtemp(prefix="scp-e2e-probe-", dir=spool_root())
    try:
        commit_1k = prober.sample("commit_1k", "scp.serialization", 60, commit_spool_file,
                                  spool, "0-1" + RESULT_SUFFIX, PAYLOAD_256K[:1024])
        commit_256k = prober.sample("commit_256k", "scp.serialization", 30, commit_spool_file,
                                    spool, "0-1" + RESULT_SUFFIX, PAYLOAD_256K)
        collect_spool(spool)
        payload = pickle.dumps(3, protocol=pickle.HIGHEST_PROTOCOL)
        scan: List[float] = []
        for _ in range(prober.repeats(12)):
            for task in range(8):
                commit_spool_file(spool, f"{task}-1{RESULT_SUFFIX}", payload)
            committed, seconds = prober.timed("scan_8", "scp.serialization", collect_spool, spool)
            if len(committed) != 8:
                raise AssertionError(f"spool scan returned {len(committed)} of 8 commits")
            scan.append(seconds)
    finally:
        shutil.rmtree(spool, ignore_errors=True)
    return {"scp.serialization.commit_1k_s_p50": metric(median(commit_1k), "s"),
            "scp.serialization.commit_256k_s_p50": metric(median(commit_256k), "s"),
            "scp.serialization.scan_s_p50": metric(median(scan), "s")}


# ---------------------------------------------------------------------------
# scp.transport / scp.stages
# ---------------------------------------------------------------------------

def _roundtrip(transport: Any, task_id: int) -> int:
    """acquire -> send -> poll_committed -> release, with no executor between."""
    ref = transport.acquire()
    transport.send(ref, TaskFrame(task_id=task_id, attempt=1, stage="probe",
                                  fn=operator.add, args=(task_id, 1), kwargs={}))
    deadline = time.monotonic() + 30.0
    while True:
        committed = transport.poll_committed()
        if committed:
            break
        if time.monotonic() > deadline:
            raise TimeoutError("transport probe: no commit within 30 s")
        time.sleep(0.0002)
    transport.release(ref)
    return int(committed[0].value)


def probe_transport_and_stages(prober: Prober, kind: str) -> Metrics:
    """Substrate round trip first, then the executor on the very same
    transport, so ``hop - roundtrip`` is the executor's own share."""
    name = f"scp.stages.{kind}"
    layer = f"scp.stages/{kind}"
    results: Metrics = {}
    transport = TRANSPORTS[kind]()
    try:
        transport.start(WORKERS)
        _roundtrip(transport, 0)  # first task pays lazy set-up
        trips = [prober.timed("roundtrip", f"scp.transport/{kind}", _roundtrip, transport,
                              index + 1)[1] for index in range(prober.repeats(30))]
        results[f"scp.transport.{kind}.roundtrip_s_p50"] = metric(median(trips), "s")
        executor = TransportStageExecutor(transport, workers=WORKERS)
    except BaseException:
        transport.close()
        raise
    with executor:
        def task(fn: Callable[..., Any], *args: Any) -> Any:
            return executor.submit("probe", fn, *args).result(timeout=60)

        for index in range(WORKERS * 2):
            task(operator.add, index, 1)

        total = 0
        chain: List[float] = []
        for _ in range(prober.repeats(12)):
            total, seconds = prober.timed("hop_chain", layer, task, operator.add, total, 1)
            chain.append(seconds)
        results[f"{name}.hop_chain_s_p50"] = metric(median(chain), "s")

        idle: List[float] = []
        for _ in range(prober.repeats(6)):
            time.sleep(IDLE_GAP_SECONDS)
            idle.append(prober.timed("hop_idle", layer, task, operator.add, 1, 1)[1])
        results[f"{name}.hop_idle_s_p50"] = metric(median(idle), "s")

        burst = prober.repeats(BURST_TASKS)

        def run_burst() -> List[int]:
            futures = [executor.submit("probe", operator.add, index, 1) for index in range(burst)]
            return [future.result(timeout=60) for future in futures]

        values, seconds = prober.timed("hop_burst", layer, run_burst)
        if values != [index + 1 for index in range(burst)]:
            raise AssertionError(f"{kind} executor returned wrong burst results")
        results[f"{name}.hop_burst_s_per_task"] = metric(seconds / burst, "s")

        payload = prober.sample("payload_256k", layer, 10, task, len, PAYLOAD_256K)
        results[f"{name}.payload_256k_s_p50"] = metric(median(payload), "s")

        if executor.supports_kill:
            # The victim must still be running when the SIGKILL lands; a
            # no-op commits before the socket agent has relayed the kill.
            recovery: List[float] = []
            for _ in range(prober.repeats(4)):
                retries = executor.retries
                executor.inject_kill("probe-kill")
                _, seconds = prober.timed(
                    "recovery", layer, lambda: executor.submit(
                        "probe-kill", time.sleep, RECOVERY_TASK_SECONDS).result(timeout=60))
                if executor.retries > retries:
                    recovery.append(seconds)
            executor.cancel_kills()
            if not recovery:
                raise AssertionError(f"{kind} executor: no injected kill hit a running task")
            results[f"{name}.recovery_s_p50"] = metric(median(recovery), "s")
    return results


# ---------------------------------------------------------------------------
# core.steps / core.kernels
# ---------------------------------------------------------------------------

def probe_kernels(prober: Prober, workload: Workload, cube: Any) -> Metrics:
    """The kernels of one request, in one process, on the workload's cube, cut
    the way every engine cuts them: screening per sub-cube then merged,
    covariance per unique-set partition, one eigen-decomposition, the fused
    projection + colour map over the whole cube.  Each ``s_p50`` is the
    per-request total, so their sum is close to the sequential baseline.

    FLOP counts come from the repo's own ``*_flops`` cost models and bytes
    from array sizes (cache misses ignored), so ``ops_per_byte_computed`` is
    computed, not measured; the GEMM peak is measured in this same run so a
    rate can be read against it.
    """
    config = workload.resolved_config(cube)
    screening = config.screening
    dtype, compute = config.compute_dtype, config.compute
    workers = max(config.partition.workers, 1)
    blocks = [subcube_pixel_matrix(extract_subcube(cube, spec))
              for spec in decompose(cube.rows, min(config.partition.effective_subcubes, cube.rows))]
    n_pixels, bands = cube.pixels, cube.bands

    def screen() -> List[Any]:
        return [screen_unique_set(block, screening.angle_threshold,
                                  max_unique=screening.max_unique,
                                  sample_stride=screening.sample_stride,
                                  compute_dtype=dtype, compute=compute) for block in blocks]

    unique = merge_unique_sets(screen(), screening.angle_threshold,
                               max_unique=screening.max_unique,
                               rescreen=screening.rescreen_merge,
                               compute_dtype=dtype, compute=compute)
    screen_s = median(prober.sample("screening", "core.steps", 3, screen))
    mean = mean_vector(unique)
    parts = partition_pixel_matrix(unique, workers)

    def covariance_sums() -> List[Any]:
        return [kernel_covariance_sum(part, mean, compute=compute) for part in parts]

    cov_s = median(prober.sample("covariance", "core.kernels", 5, covariance_sums))
    covariance = covariance_matrix(covariance_sums(), total_pixels=unique.shape[0])
    eigen_s = median(prober.sample("eigen", "core.steps", 5, transformation_matrix,
                                   covariance, mean, n_components=bands))
    basis = transformation_matrix(covariance, mean, n_components=bands)
    stats_basis = PCTBasis(eigenvalues=basis.eigenvalues, components=basis.components[:3],
                           mean=basis.mean)
    stretch_mean, stretch_std = component_statistics(project(unique, stats_basis))
    project_s = median(prober.sample(
        "project_map", "core.kernels", 3, kernel_project_and_map, cube.data, basis,
        n_components=3, normalize=config.colormap.normalize_components,
        stretch_mean=stretch_mean, stretch_std=stretch_std, compute_dtype=dtype,
        compute=compute))

    n_unique = int(unique.shape[0])
    screen_flops = screening_flops(n_pixels, n_unique, bands)
    project_flops = projection_flops(n_pixels, bands, bands) + color_map_flops(n_pixels)
    flops = (screen_flops + covariance_sum_flops(n_unique, bands)
             + eigendecomposition_flops(bands) + project_flops)
    # Screening reads the pixels as float64; covariance reads the unique set;
    # projection reads the cube as stored and writes components + composite.
    moved = (n_pixels * bands * 8 + n_unique * bands * 8 + cube.data.nbytes
             + n_pixels * bands * 8 + n_pixels * 3 * 8)
    gemm_peak = measured_gemm_peak_gflops(refresh=True)
    return {
        "core.steps.screening.s_p50": metric(screen_s, "s"),
        "core.steps.screening.gflops": metric(screen_flops / screen_s / 1e9, "GFLOP/s"),
        "core.kernels.covariance.s_p50": metric(cov_s, "s"),
        "core.steps.transform.eigen_s_p50": metric(eigen_s, "s"),
        "core.kernels.project_map.s_p50": metric(project_s, "s"),
        "core.kernels.project_map.gflops": metric(project_flops / project_s / 1e9, "GFLOP/s"),
        "core.kernels.ops_per_byte_computed": metric(flops / moved, "flop/B"),
        "core.steps.unique_set_size": metric(n_unique, "count"),
        "host.gemm_peak_gflops": metric(gemm_peak, "GFLOP/s"),
    }


# ---------------------------------------------------------------------------
# Engines seen through their reports
# ---------------------------------------------------------------------------

def engine_loop(prober: Prober, workload: Workload, cubes: Sequence[Any],
                references: Sequence[Any], *, engine: str, backend: str,
                options: Dict[str, Any], requests: int) -> Any:
    """A short serial loop of another engine on the workload's cubes."""
    other = Workload(name=f"{engine}-probe", why="", engine=engine, backend=backend,
                     rows=workload.rows, cols=workload.cols, bands=workload.bands,
                     cubes=len(cubes), options=options)
    with repro.open_session(**other.session_options()) as session:
        session.fuse(cubes[0])
        t0 = time.perf_counter()
        window = drive(session, other, cubes, references, seconds=0.0,
                       min_requests=prober.repeats(requests))
        prober.recorder.add(f"{engine}_loop", f"core.{engine}", t0, time.perf_counter(),
                            probe=True, requests=window.attempted)
    if window.failed:
        raise AssertionError(f"{engine} x {backend} probe loop failed: {window.errors[:3]}")
    return window


def streaming_metrics(window: Any) -> Metrics:
    """``core.streaming.*`` from the public reports of a pipeline window."""
    records = [record for record in window.records if record.ok]
    results: Metrics = {}
    for stage in ("screening", "covariance", "eigendecomposition", "projection"):
        results[f"core.streaming.stage_s.{stage}"] = metric(
            median([record.stage_seconds.get(stage, 0.0) for record in records]), "s")
    results["core.streaming.tasks_per_request"] = metric(
        median([record.stage_tasks for record in records]), "count")
    results["core.streaming.tiles"] = metric(median([record.tiles for record in records]), "count")
    results["core.streaming.self_s"] = metric(
        median([record.latency - sum(record.stage_seconds.values()) for record in records]), "s")
    return results


def resilient_metrics(window: Any, distributed: Any) -> Metrics:
    """``core.resilient.*`` from ``report.metrics`` of a resilient window."""
    records = [record for record in window.records if record.ok]
    results = {f"core.resilient.{name}": metric(
        median([record.counters[name] for record in records]), unit)
        for name, unit in (("messages", "count"), ("bytes_sent", "B"),
                           ("duplicates_suppressed", "count"),
                           ("replicas_regenerated", "count"))}
    results["core.resilient.overhead_vs_distributed"] = metric(
        median(window.latencies) / median(distributed.latencies), "ratio")
    return results


def probe_sim_backend(prober: Prober, cube: Any) -> Metrics:
    """The Figure-4/5 cost model: virtual time and regeneration count of
    ``resilient x sim`` under one scripted worker kill must repeat exactly."""
    plain = repro.fuse(cube, engine="resilient", backend="sim", workers=WORKERS, replication=2)
    attack = AttackScenario.single_worker_kill("worker.0", at=0.3 * plain.elapsed_seconds)
    report, wall = prober.timed("resilient_sim_attack", "scp.sim_backend", repro.fuse, cube,
                                engine="resilient", backend="sim", workers=WORKERS,
                                replication=2, attack=attack)
    return {"scp.sim_backend.virtual_elapsed_s": metric(report.elapsed_seconds, "s"),
            "scp.sim_backend.replicas_regenerated": metric(report.replicas_regenerated, "count"),
            "scp.sim_backend.wall_s": metric(wall, "s")}
