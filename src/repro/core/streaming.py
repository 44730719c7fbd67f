"""Streaming tile-pipelined fusion: the ``pipeline`` engine.

Every other engine materialises the whole cube and runs the eight algorithm
steps as a barrier-synchronised batch, so peak memory is O(cube) per request
and a queue of requests executes strictly serially.  The paper's algorithm
is, however, embarrassingly parallel across row blocks everywhere except two
small global reductions, which suggests a *staged dataflow* instead:

.. code-block:: text

    tiles ──▶ screen ──▶ [merge + mean]  ──▶ covariance ──▶ [combine + eig
              (par)       (barrier)           partials        + stretch]
                                              (par)           (barrier)
                                                                 │
        output placement ◀── project + colour-map (par) ◀────────┘

Each parallel stage is a set of pure *stage tasks* executed through the
session's :class:`~repro.scp.stages.TransportStageExecutor`, on whatever
workers the backend spec names (:func:`~repro.scp.transport.
transport_for_spec`: :class:`~repro.scp.pool.ProcessPool` slots, a socket
node agent, or host threads for the ``local``/``sim`` specs).  The engine
class, :class:`~repro.api.engines.PipelineEngine`, only hands a request and
its session's executor to :func:`execute_pipeline_request`.  The two
barriers are tiny: merging unique sets, a ``bands x bands``
eigen-decomposition and the colour-stretch statistics -- all independent of
image size.  Because the transport bounds the tasks in flight and the
session the requests (``max_inflight``), several independent fusions can
stream through one executor concurrently (that is what :meth:`repro.api.
session.FusionSession.fuse_stream` does) with bounded memory.

Bit-identity
------------
The pipeline engine produces *bit-identical* composites to the sequential
reference for the same :class:`~repro.api.request.FusionRequest`:

* screening uses the exact sub-cube decomposition of the request's
  partition configuration (``config.partition.effective_subcubes``) and the
  per-block unique sets are merged in block order -- the same greedy pass,
  in the same order, as :class:`~repro.core.pipeline.SpectralScreeningPCT`;
* covariance partials follow :func:`~repro.core.steps.statistics.
  partition_pixel_matrix`'s split of the merged unique set and are combined
  in partition order (float summation order preserved);
* the eigen-decomposition barrier pins one global basis and one set of
  colour-stretch constants, after which projection and colour mapping are
  per-pixel operations run in fixed-width, zero-padded pixel panels
  (:data:`~repro.core.steps.transform.PANEL_PIXELS`), so the host BLAS
  takes one path whatever the tile, and any row tiling of step 7/8
  reassembles to the untiled result exactly, however few pixels a tile
  holds.  ``tile_rows`` therefore only tunes streaming granularity,
  never the output, which is what the tiling property tests assert for
  arbitrary cube shapes and tilings.

Placement
---------
The paper's Figure 5 is a granularity trade: over-decompose 2-3x to overlap,
and lose once the per-unit overhead beats the unit's work.  Within a split
request the transport already supplies the overlap (each worker holds its
next task while it runs one), so steps 7-8 are cut into one tile per worker
(:func:`default_tile_rows` has the measurements).  Spreading one
request over the workers costs it six or more hops and four barriers in
its driver thread, whatever its size; below a measured crossover that costs
more than the kernels it spreads, and small cubes are better parallelised
*across* the stream (``max_inflight``) than within themselves.

So :func:`execute_pipeline_request` decides, once per request and from its
shape alone, *where* the stage tasks run -- never how the work is cut:

* ``cube.pixels * cube.bands <=`` :data:`WHOLE_REQUEST_MAX_SAMPLES` --
  placement ``"request"``: one stage task (:func:`fuse_whole_request`) runs
  :func:`run_pipeline` itself on one worker, against an inline executor
  (submit = run now), and waits for nothing in the driver: zero barriers.
* larger -- placement ``"stages"``: :func:`run_pipeline` runs in the driver
  and submits per-stage tasks to the shared executor, as described above.

Both placements execute the same :func:`run_pipeline`: the same
``decompose``, the same ``merge_unique_sets`` order, the same
``partition_pixel_matrix(unique, workers)`` and the same tile plan (explicit
``tile_rows`` / ``subcubes`` are honoured inside the worker), so the bits
cannot differ -- ``tests/test_streaming_placement.py`` holds the two
against each other and against the sequential reference on both sides of
the constant.  Both also have one result path, whatever the transport: the
driver borrows one :class:`~repro.data.shared.SharedComposite` output
placement per request, the projection tiles are written straight into it
(:func:`project_tile_into`; a worker thread maps the same segment the
driver does), and the driver copies the pixels out once the plan is done.
The decision has no knob: no request field, session option, flag or
environment variable selects it.  The constant's docstring carries the
measured table (``benchmarks/bench_fig5_granularity.py``).  The report says
what happened: ``metadata["placement"]``, ``metadata["stage_tasks"]`` (tasks
through the executor: 1 for a whole request) next to ``stage_invocations``
(kernel calls per stage, the same on both); stage clocks are taken where the
stage ran.

Chaos keeps working because a whole-request task declares the stages it
``covers`` and :meth:`~repro.scp.stages.TransportStageExecutor.inject_kill`
fires on the next task that *runs* a stage.  A failed or abandoned whole
request discards its placement like a failed split run does (a straggler
may still be writing); a retried one rewrites the same bytes.

Not here: running the covariance partials in the driver for split requests
(they cost ~1-2 ms of a ~50 ms request).  ``benchmarks/e2e`` fails a
kill-storm run in which a stage that was sent a kill dispatched no task, so
that change has to arrive together with a benchmark change of its own.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import Future
from contextlib import contextmanager
from dataclasses import replace
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.metrics import RunMetrics
from ..config import FusionConfig, ScreeningConfig
from ..data.cube import CubeError, HyperspectralCube
from ..data.shared import (SegmentPool, SharedComposite, SharedCompositeHandle,
                           output_tile_views)
from .kernels import kernel_covariance_sum, kernel_project_and_map
from .partition import SubcubeSpec, decompose, subcube_pixel_matrix
from .pipeline import FusionResult, SpectralScreeningPCT
from .profiling import stage_timings_from_result
from .steps.colormap import component_statistics
from .steps.screening import merge_unique_sets, screen_unique_set
from .steps.statistics import (covariance_matrix, mean_vector,
                               partition_pixel_matrix)
from .steps.transform import PCTBasis, project, transformation_matrix


# ---------------------------------------------------------------------------
# Tile planning
# ---------------------------------------------------------------------------

def plan_tiles(rows: int, tile_rows: int) -> List[SubcubeSpec]:
    """Split ``rows`` scene rows into contiguous tiles of ~``tile_rows`` rows.

    Delegates to :func:`~repro.core.partition.decompose`, so tiles inherit
    its invariants: contiguous, non-overlapping, exhaustive, sizes differing
    by at most one row.
    """
    if rows < 1:
        raise ValueError("rows must be >= 1")
    if tile_rows < 1:
        raise ValueError(f"tile_rows must be >= 1, got {tile_rows}")
    count = min(rows, max(1, math.ceil(rows / tile_rows)))
    return decompose(rows, count)


def default_tile_rows(rows: int, workers: int) -> int:
    """Default streaming granularity: one tile per worker, at least one row.

    The paper's Figure 5 over-decomposes 2-3x so that communication
    overlaps computation.  The stage transport already overlaps them one
    level down: each worker runs one task and holds the next
    (:data:`~repro.scp.transport.TASKS_PER_WORKER`), so a second tile per
    worker buys no overlap and costs one more task round trip -- receiving
    and mapping the cube (~0.6 ms of worker CPU), committing the result and
    unmapping the cube (~0.3-0.4 ms each), and 1.2-1.7 ms idle between a
    worker's two tiles of a 256x256x64 request.  Measured on a shared
    2-vCPU host, one BLAS thread, one warm session, blocks of fuses at one
    tile per worker against two, alternating:

    =====================  =======================  ======================
    scene, spec            1 client, p50 latency    4 outstanding, cubes/s
    =====================  =======================  ======================
    256x256x64, process:2  48.2 -> 45.1 ms (16/20)  23.8 -> 25.2 (9/10)
    128x128x64, socket:2   26.6 -> 23.1 ms (16/20)  44.8 -> 50.0 (10/10)
    =====================  =======================  ======================

    (rounds won in brackets).  ``benchmarks/e2e``'s ``pipe_acceptance``,
    24 s windows, alternating parent/change runs: p50 44.2 -> 40.5 ms, 10
    of 10 pairs.  A whole request (:func:`fuse_whole_request`) cuts the
    same tiles and runs them inline.  An explicit ``tile_rows``
    still overrides this; tiling never changes the output.
    """
    return max(1, math.ceil(rows / max(workers, 1)))


# ---------------------------------------------------------------------------
# Stage tasks (pure module-level functions: picklable, deterministic,
# safely re-runnable after a slot crash)
# ---------------------------------------------------------------------------

def screen_tile(cube: HyperspectralCube, spec: SubcubeSpec,
                screening: ScreeningConfig,
                compute: str = "numpy") -> np.ndarray:
    """Stage 1 task: spectral screening of one sub-cube block, in place."""
    block_pixels = subcube_pixel_matrix(
        cube.data[:, spec.row_start:spec.row_stop])
    return screen_unique_set(block_pixels, screening.angle_threshold,
                             max_unique=screening.max_unique,
                             sample_stride=screening.sample_stride,
                             compute=compute)


def covariance_partial(part: np.ndarray, mean: np.ndarray,
                       compute: str = "numpy") -> np.ndarray:
    """Stage 2 task: covariance sum of one unique-set partition."""
    return kernel_covariance_sum(part, mean, compute=compute)


def project_tile_into(cube: HyperspectralCube, spec: SubcubeSpec,
                      basis: PCTBasis, n_components: int, normalize: bool,
                      stretch_mean: np.ndarray, stretch_std: np.ndarray,
                      out: SharedCompositeHandle,
                      compute_dtype: str = "float64",
                      compute: str = "numpy") -> Tuple[int, int]:
    """Stage 3 task: fused projection + colour mapping of one output tile,
    written straight into the request's output placement ``out``.

    The cube's rows are read in place, and the kernel's ``out=`` path
    computes into the placement views (no tile-sized temporaries, nothing
    through the result spool); only the row range is acknowledged back.
    Safe under crash retry: tiles own disjoint row ranges and the
    computation is deterministic, so re-running a killed task rewrites the
    same bytes.
    """
    with output_tile_views(out, spec.row_start, spec.row_stop) as views:
        components_view, composite_view = views
        kernel_project_and_map(
            cube.data[:, spec.row_start:spec.row_stop], basis,
            n_components=n_components, normalize=normalize,
            stretch_mean=stretch_mean, stretch_std=stretch_std,
            compute_dtype=compute_dtype, compute=compute,
            components_out=components_view, composite_out=composite_view)
    return spec.row_start, spec.row_stop


# ---------------------------------------------------------------------------
# The staged DAG driver
# ---------------------------------------------------------------------------

def _gather(futures: Sequence) -> List:
    """Await stage futures in submission order, surfacing the first error."""
    return [future.result() for future in futures]


def _validate_row_coverage(acks: Sequence[Tuple[int, int]], rows: int) -> None:
    """Assert the acknowledged zero-copy writes tile the rows exactly once."""
    covered = np.zeros(rows, dtype=bool)
    for start, stop in acks:
        if covered[start:stop].any():
            raise ValueError(f"rows {start}:{stop} were written twice")
        covered[start:stop] = True
    if not covered.all():
        missing = int(np.count_nonzero(~covered))
        raise ValueError(f"output placement is missing {missing} rows")


@contextmanager
def _borrowed_placement(output_pool: Optional[SegmentPool], rows: int, cols: int,
                        n_components: int) -> Iterator[SharedComposite]:
    """One run's output placement: reusable after success, retired after failure.

    A block that raises may leave straggler tasks still writing into the
    segment (workers are not cancelled when the driver gives up), so the
    placement is discarded then, never reissued to another run.
    """
    if output_pool is None:
        with SharedComposite.create(rows, cols, n_components) as placement:
            yield placement
        return
    placement = output_pool.acquire(rows, cols, n_components)
    try:
        yield placement
    except BaseException:
        output_pool.discard(placement)
        raise
    output_pool.release(placement)


def _copy_out(placement: SharedComposite) -> Tuple[np.ndarray, np.ndarray]:
    """``(components, composite)`` copied out of a fully written placement."""
    components = np.array(placement.components)
    composite = np.array(placement.composite)
    if placement.closed:
        # A racing session.close() force-released the placement (only
        # possible for a direct fuse() the close cannot join); the copies
        # above may be the swapped-out stubs, so fail loudly rather than
        # return corrupt pixels.
        raise CubeError("output placement was released under the run "
                        "(session closed mid-fuse)")
    return components, composite


def run_pipeline(cube: HyperspectralCube, config: FusionConfig, executor,
                 out: SharedCompositeHandle, *, n_components: int = 3,
                 tile_rows: Optional[int] = None) -> FusionResult:
    """Drive one cube through the staged screen/statistics/transform DAG.

    ``executor`` is a :class:`~repro.scp.stages.TransportStageExecutor` on
    any transport (or the inline executor of a whole-request task); several
    concurrent ``run_pipeline`` calls may share one executor, which is how
    independent cubes overlap.

    ``out`` is the caller's output placement: every projection tile is
    written into it (:func:`project_tile_into`), on every transport, and the
    returned result carries zero-row ``composite`` / ``components`` -- the
    pixels are in the placement, for the caller to copy out
    (:func:`execute_pipeline_request` does).  ``tile_rows`` cannot change
    the pixels -- tiling is output-invariant past the eigen-decomposition
    barrier.
    """
    reference = SpectralScreeningPCT(config, n_components=n_components)
    screening = config.screening
    compute_dtype = config.compute_dtype
    compute = config.compute
    workers = max(config.partition.workers, 1)
    subcubes = min(config.partition.effective_subcubes, cube.rows)
    # Driver-side wall clock per stage (the stages barrier on _gather, so
    # the driver's elapsed time is the stage's critical-path time even
    # though the tasks themselves run on pool slots).
    stage_seconds: Dict[str, float] = {}
    stage_marks: Dict[str, float] = {}

    def _stage_done(stage: str, started: float) -> None:
        stage_seconds[stage] = time.perf_counter() - started

    # Stage 1: per-sub-cube screening (parallel), merged in block order.
    stage_marks["screening"] = time.perf_counter()
    screen_futures = [executor.submit("screen", screen_tile, cube, spec,
                                      screening, compute)
                      for spec in decompose(cube.rows, subcubes)]
    unique = merge_unique_sets(_gather(screen_futures), screening.angle_threshold,
                               max_unique=screening.max_unique,
                               rescreen=screening.rescreen_merge,
                               compute=compute)
    _stage_done("screening", stage_marks["screening"])

    # Barrier A: global mean, then the unique-set partition of step 4.
    stage_marks["mean"] = time.perf_counter()
    mean = mean_vector(unique)
    parts = partition_pixel_matrix(unique, workers)
    _stage_done("mean", stage_marks["mean"])

    # Stage 2: per-partition covariance sums (parallel), combined in order.
    stage_marks["covariance"] = time.perf_counter()
    cov_futures = [executor.submit("covariance", covariance_partial, part,
                                   mean, compute)
                   for part in parts]
    covariance = covariance_matrix(_gather(cov_futures),
                                   total_pixels=unique.shape[0])
    _stage_done("covariance", stage_marks["covariance"])

    # Barrier B: eigen-decomposition and global colour-stretch statistics.
    stage_marks["eigendecomposition"] = time.perf_counter()
    basis = transformation_matrix(covariance, mean, n_components=cube.bands)
    stats_basis = basis.leading(3)
    stretch_mean, stretch_std = component_statistics(project(unique, stats_basis))
    _stage_done("eigendecomposition", stage_marks["eigendecomposition"])

    # Stage 3: per-tile projection + colour mapping (parallel), written
    # straight into the output placement; each task acknowledges its rows
    # and carries only the eigenvectors the kernel reads.
    effective_tile_rows = (tile_rows if tile_rows is not None
                           else default_tile_rows(cube.rows, workers))
    normalize = config.colormap.normalize_components
    tiles = plan_tiles(cube.rows, effective_tile_rows)
    tile_basis = basis.leading(max(n_components, 3))
    stage_marks["projection"] = time.perf_counter()
    acks = _gather([executor.submit("project", project_tile_into, cube, spec,
                                    tile_basis, n_components, normalize,
                                    stretch_mean, stretch_std, out,
                                    compute_dtype, compute)
                    for spec in tiles])
    _stage_done("projection", stage_marks["projection"])
    _validate_row_coverage(acks, cube.rows)

    phase_flops = reference.estimate_phase_flops(cube, unique.shape[0])
    stage_rows = {"screening": cube.pixels, "mean": int(unique.shape[0]),
                  "covariance": int(unique.shape[0]), "projection": cube.pixels}
    # The pipeline's projection stage fuses steps 7 and 8 into one task, so
    # its FLOP estimate is the sum of both cost models.
    stage_flops = {"screening": phase_flops["screening"],
                   "mean": phase_flops["mean"],
                   "covariance": phase_flops["covariance"],
                   "eigendecomposition": phase_flops["eigendecomposition"],
                   "projection": phase_flops["projection"] + phase_flops["colormap"]}
    stage_invocations = {"screening": len(screen_futures), "mean": 1,
                         "covariance": len(cov_futures),
                         "eigendecomposition": 1, "projection": len(tiles)}
    metadata = {
        "mode": "pipeline",
        "angle_threshold": screening.angle_threshold,
        "n_components": n_components,
        "bands": cube.bands,
        "rows": cube.rows,
        "cols": cube.cols,
        "stretch_mean": stretch_mean,
        "stretch_std": stretch_std,
        "tile_rows": effective_tile_rows,
        "tiles": len(tiles),
        # Where the work ran and how many tasks that put through the
        # executor; execute_pipeline_request overwrites both ("request",
        # 1) on the result of a run it placed inside one task.
        # stage_invocations below keeps the per-stage kernel counts.
        "placement": "stages",
        "stage_tasks": len(screen_futures) + len(cov_futures) + len(tiles),
        "compute_dtype": compute_dtype,
        "compute": compute,
        "stage_seconds": stage_seconds,
        "stage_rows": stage_rows,
        "stage_invocations": stage_invocations,
        "stage_flops": stage_flops,
    }
    return FusionResult(composite=np.empty((0, cube.cols, 3)),
                        components=np.empty((0, cube.cols, n_components)),
                        basis=basis, unique_set_size=int(unique.shape[0]),
                        phase_flops=phase_flops, metadata=metadata)


# ---------------------------------------------------------------------------
# Request execution
# ---------------------------------------------------------------------------

#: Largest request, in samples (``cube.pixels * cube.bands``), that is placed
#: *whole*: one stage task runs all of :func:`run_pipeline` on one worker.
#: Larger requests are split into per-stage tasks across the workers.
#:
#: Measured, not derived: ``benchmarks/bench_fig5_granularity.py`` (the
#: "measured" series; re-run it before changing this -- CONTRIBUTING,
#: "Changing the plan constant").  On a shared 2-vCPU host, ``process:2``,
#: one BLAS thread, warm executor, 3 s closed loops, one projection tile
#: per worker on the split side, split -> whole:
#:
#: ====================  =====================  ======================
#: scene (samples)       1 client, p50 latency  4 outstanding, cubes/s
#: ====================  =====================  ======================
#: 64x64x32     (131 k)  12.7 -> 9.6 ms         87.4 -> 242.1
#: 96x96x32     (295 k)  16.2 -> 12.6 ms        82.8 -> 142.7
#: 128x128x32   (524 k)  17.4 -> 16.2 ms        75.7 -> 117.0
#: 96x96x64     (590 k)  19.5 -> 18.1 ms        65.8 -> 115.9
#: 128x128x64  (1.05 M)  22.4 -> 23.9 ms        52.7 -> 76.2
#: 256x256x64   (4.2 M)  45.0 -> 60.1 ms        26.2 -> 31.6
#: ====================  =====================  ======================
#:
#: Whole wins under load at every size and, for a lone client, up to
#: 590 k samples; it loses from 1.05 M up.  Earlier runs (two tiles per
#: worker, ``--quick`` and 3 s loops) had a lone client break even or lose
#: at 295-590 k, and three seeds at 112x112x32 gave whole one win and two
#: losses of ~12 %.  On ``local:2`` a lone client loses a little from 295 k
#: up (15.6 -> 16.3 ms in the run above).  ``1 << 18`` is the largest
#: power of two at which whole lost on neither ``process:2`` loop in any
#: run made.
#: Whatever it becomes, it must stay strictly
#: below 1 048 576: 128x128x64 is faster split for a single client, and a
#: request that size must keep dispatching ``screen`` /
#: ``covariance`` / ``project`` tasks for stage-targeted chaos
#: (``benchmarks/e2e``'s ``socket_killstorm``) to land on.
WHOLE_REQUEST_MAX_SAMPLES = 1 << 18

#: Labels of the stage tasks :func:`run_pipeline` submits -- the stages a
#: whole-request task covers, for :meth:`~repro.scp.stages.
#: TransportStageExecutor.inject_kill`.
STAGE_LABELS = ("screen", "covariance", "project")


class _InlineStages:
    """The executor of a whole-request task: ``submit`` runs the stage task
    now, on the calling worker, and returns its resolved future."""

    def submit(self, stage: str, fn: Callable, *args, **kwargs) -> Future:
        future: Future = Future()
        future.set_result(fn(*args, **kwargs))
        return future


def fuse_whole_request(cube: HyperspectralCube, config: FusionConfig,
                       n_components: int, tile_rows: Optional[int],
                       out: SharedCompositeHandle) -> FusionResult:
    """Stage task covering a whole request: every stage, on this worker.

    Calls :func:`run_pipeline` -- same decomposition, same merge order, same
    unique-set partition, same tiling as a split request, so the same bits --
    against an inline executor.  The tiles land in the caller's placement
    ``out``, so no array rides back with the result.  Pure and deterministic
    like every stage task: a retry after a worker death rewrites the same
    bytes into the same placement.
    """
    return run_pipeline(cube, config, _InlineStages(), out,
                        n_components=n_components, tile_rows=tile_rows)


def execute_pipeline_request(request, executor, *, backend_label: str,
                             output_pool: Optional[SegmentPool] = None):
    """Run one :class:`~repro.api.request.FusionRequest` on ``executor``.

    What the ``pipeline`` engine runs (:class:`~repro.api.engines.
    PipelineEngine`), on its session's executor -- one for every in-flight
    cube -- borrowing the output placement from the session's segment pool
    (``output_pool``).
    Returns the unified :class:`~repro.api.request.FusionReport`.

    This is where the request is *placed* (see the module docstring): at or
    below :data:`WHOLE_REQUEST_MAX_SAMPLES` it runs as one slot task, above
    it as per-stage tasks.  ``report.result.metadata["placement"]`` says
    which.  Either plan writes into the one output placement borrowed here,
    which is copied out after success and retired after a failure.
    """
    from ..api.request import FusionReport

    config = request.resolved_config()
    cube = request.cube
    n_components = request.n_components
    start = time.perf_counter()
    with _borrowed_placement(output_pool, cube.rows, cube.cols,
                             n_components) as placement:
        if cube.pixels * cube.bands <= WHOLE_REQUEST_MAX_SAMPLES:
            result = executor.submit(
                "request", fuse_whole_request, cube, config, n_components,
                request.tile_rows, placement.handle(),
                covers=STAGE_LABELS).result()
            result.metadata.update(placement="request", stage_tasks=1)
        else:
            result = run_pipeline(cube, config, executor, placement.handle(),
                                  n_components=n_components,
                                  tile_rows=request.tile_rows)
        components, composite = _copy_out(placement)
    result = replace(result, components=components, composite=composite)
    elapsed = time.perf_counter() - start
    metrics = RunMetrics(elapsed_seconds=elapsed, backend=backend_label,
                         workers=config.partition.workers,
                         subcubes=min(config.partition.effective_subcubes,
                                      cube.rows))
    return FusionReport(result=result, metrics=metrics, engine="pipeline",
                        backend=backend_label,
                        stage_timings=stage_timings_from_result(result))


__all__ = ["run_pipeline", "execute_pipeline_request",
           "WHOLE_REQUEST_MAX_SAMPLES", "STAGE_LABELS", "fuse_whole_request",
           "plan_tiles", "default_tile_rows",
           "screen_tile", "covariance_partial", "project_tile_into"]
