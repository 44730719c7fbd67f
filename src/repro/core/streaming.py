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
              reassemble ◀── project + colour-map (par) ◀────────┘

Each parallel stage is a set of pure *stage tasks* executed through a
:class:`~repro.scp.stages.TransportStageExecutor` on whatever workers the
backend spec names (:func:`~repro.scp.transport.transport_for_spec`:
:class:`~repro.scp.pool.ProcessPool` slots, a socket node agent, or host
threads for the ``local``/``sim`` specs).  The two barriers are tiny: merging unique
sets, a ``bands x bands`` eigen-decomposition and the colour-stretch
statistics -- all independent of image size.  Because the executor bounds
the number of tasks in flight, several independent fusions can stream
through one executor concurrently (that is what
:meth:`repro.api.session.FusionSession.fuse_stream` does) with bounded
memory and no cross-talk.

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
  per-pixel operations -- any row tiling of step 7/8 reassembles to the
  untiled result exactly.  ``tile_rows`` therefore only tunes streaming
  granularity, never the output, which is what the tiling property tests
  assert for arbitrary cube shapes and tilings.
"""

from __future__ import annotations

import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.metrics import RunMetrics
from ..config import FusionConfig, ScreeningConfig
from ..data.cube import CubeError, HyperspectralCube
from ..data.shared import (OutputPool, SharedComposite, SharedCompositeHandle,
                           SharedCube, output_tile_views)
from ..scp.runtime import Backend
from ..scp.stages import TransportStageExecutor
from ..scp.transport import transport_for_spec
from .kernels import kernel_covariance_sum, kernel_project_and_map
from .partition import (SubcubeSpec, decompose, extract_subcube,
                        reassemble_composite, subcube_pixel_matrix)
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
    """Default streaming granularity: ~2 tiles per worker, at least one row.

    Mirrors the paper's Figure-5 observation that 2-3x more work units than
    workers overlaps communication with computation without drowning in
    per-task overhead.
    """
    return max(1, math.ceil(rows / max(2 * workers, 1)))


# ---------------------------------------------------------------------------
# Stage tasks (pure module-level functions: picklable, deterministic,
# safely re-runnable after a slot crash)
# ---------------------------------------------------------------------------

def screen_tile(cube: HyperspectralCube, spec: SubcubeSpec,
                screening: ScreeningConfig,
                compute_dtype: str = "float64",
                compute: str = "numpy") -> np.ndarray:
    """Stage 1 task: spectral screening of one sub-cube block."""
    block_pixels = subcube_pixel_matrix(extract_subcube(cube, spec))
    return screen_unique_set(block_pixels, screening.angle_threshold,
                             max_unique=screening.max_unique,
                             sample_stride=screening.sample_stride,
                             compute_dtype=compute_dtype, compute=compute)


def covariance_partial(part: np.ndarray, mean: np.ndarray,
                       compute: str = "numpy") -> np.ndarray:
    """Stage 2 task: covariance sum of one unique-set partition."""
    return kernel_covariance_sum(part, mean, compute=compute)


def project_tile(cube: HyperspectralCube, spec: SubcubeSpec, basis: PCTBasis,
                 n_components: int, normalize: bool, stretch_mean: np.ndarray,
                 stretch_std: np.ndarray, compute_dtype: str = "float64",
                 compute: str = "numpy"):
    """Stage 3 task: fused projection + colour mapping of one output tile."""
    return kernel_project_and_map(
        extract_subcube(cube, spec), basis, n_components=n_components,
        normalize=normalize, stretch_mean=stretch_mean,
        stretch_std=stretch_std, compute_dtype=compute_dtype, compute=compute)


def project_tile_into(cube: HyperspectralCube, spec: SubcubeSpec,
                      basis: PCTBasis, n_components: int, normalize: bool,
                      stretch_mean: np.ndarray, stretch_std: np.ndarray,
                      out: SharedCompositeHandle,
                      compute_dtype: str = "float64",
                      compute: str = "numpy") -> Tuple[int, int]:
    """Stage 3 task, zero-copy variant: write the tile into ``out`` directly.

    The kernel's ``out=`` path computes straight into the shared-memory
    output placement views (no tile-sized temporaries, nothing through the
    result spool) and only the row range is acknowledged back.  Safe under
    crash retry: tiles own disjoint row ranges and the computation is
    deterministic, so re-running a killed task rewrites the same bytes.
    """
    with output_tile_views(out, spec.row_start, spec.row_stop) as views:
        components_view, composite_view = views
        kernel_project_and_map(
            extract_subcube(cube, spec), basis,
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


def run_pipeline(cube: HyperspectralCube, config: FusionConfig, executor, *,
                 n_components: int = 3, full_projection: bool = True,
                 tile_rows: Optional[int] = None,
                 output_pool: Optional[OutputPool] = None) -> FusionResult:
    """Drive one cube through the staged screen/statistics/transform DAG.

    ``executor`` is a :class:`~repro.scp.stages.TransportStageExecutor` on
    any transport; several concurrent ``run_pipeline`` calls may share one
    executor, which is how independent cubes overlap.

    The executor decides the result path of the projection stage: on
    process-backed executors (``executor.uses_processes``) workers write
    tiles straight into a :class:`~repro.data.shared.SharedComposite`
    placement, where the alternative would be pickling every tile through
    the spool; thread executors share the driver's address space and
    return the blocks in-process.  Both paths carry identical bytes, and
    ``tile_rows`` cannot change the composite either -- tiling is
    output-invariant past the eigen-decomposition barrier.
    ``output_pool`` lets sessions reuse placement segments across runs.
    """
    reference = SpectralScreeningPCT(config, n_components=n_components,
                                     full_projection=full_projection)
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
                                      screening, compute_dtype, compute)
                      for spec in decompose(cube.rows, subcubes)]
    unique = merge_unique_sets(_gather(screen_futures), screening.angle_threshold,
                               max_unique=screening.max_unique,
                               rescreen=screening.rescreen_merge,
                               compute_dtype=compute_dtype, compute=compute)
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
    rank = cube.bands if full_projection else n_components
    basis = transformation_matrix(covariance, mean, n_components=rank)
    stats_basis = PCTBasis(eigenvalues=basis.eigenvalues,
                           components=basis.components[:3], mean=basis.mean)
    stretch_mean, stretch_std = component_statistics(project(unique, stats_basis))
    _stage_done("eigendecomposition", stage_marks["eigendecomposition"])

    # Stage 3: per-tile projection + colour mapping (parallel).  Process
    # workers write straight into a shared-memory output placement and
    # acknowledge row ranges (zero-copy path); thread workers return their
    # blocks in-process and the driver reassembles them here.
    effective_tile_rows = (tile_rows if tile_rows is not None
                           else default_tile_rows(cube.rows, workers))
    normalize = config.colormap.normalize_components
    use_zero_copy = executor.uses_processes
    placement: Optional[SharedComposite] = None
    completed = False
    if use_zero_copy:
        placement = (output_pool.acquire(cube.rows, cube.cols, n_components)
                     if output_pool is not None
                     else SharedComposite.create(cube.rows, cube.cols,
                                                 n_components))
    try:
        if use_zero_copy:
            task, placed_args = project_tile_into, (placement.handle(),)
        else:
            task, placed_args = project_tile, ()
        stage_marks["projection"] = time.perf_counter()
        tiles = plan_tiles(cube.rows, effective_tile_rows)
        payloads = _gather([
            executor.submit("project", task, cube, spec, basis, n_components,
                            normalize, stretch_mean, stretch_std, *placed_args,
                            compute_dtype, compute)
            for spec in tiles])
        _stage_done("projection", stage_marks["projection"])
        if use_zero_copy:
            _validate_row_coverage(payloads, cube.rows)
            components = np.array(placement.components)
            composite = np.array(placement.composite)
            if placement.closed:
                # A racing session.close() force-released the placement
                # (only possible for a direct fuse() the close cannot
                # join); the copies above may be the swapped-out stubs, so
                # fail loudly rather than return corrupt pixels.
                raise CubeError("output placement was released under the "
                                "run (session closed mid-fuse)")
        else:
            components = reassemble_composite(
                [(spec, block[0]) for spec, block in zip(tiles, payloads)],
                cube.rows, cube.cols, channels=n_components)
            composite = reassemble_composite(
                [(spec, block[1]) for spec, block in zip(tiles, payloads)],
                cube.rows, cube.cols, channels=3)
        completed = True
    finally:
        if placement is not None:
            if output_pool is not None and completed:
                output_pool.release(placement)
            elif output_pool is not None:
                # Failed run: straggler tile tasks may still be writing, so
                # the segment is retired, never reissued to another run.
                output_pool.discard(placement)
            else:
                placement.close()

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
        "zero_copy": use_zero_copy,
        "stage_tasks": len(screen_futures) + len(cov_futures) + len(tiles),
        "compute_dtype": compute_dtype,
        "compute": compute,
        "stage_seconds": stage_seconds,
        "stage_rows": stage_rows,
        "stage_invocations": stage_invocations,
        "stage_flops": stage_flops,
    }
    return FusionResult(composite=composite, components=components, basis=basis,
                        unique_set_size=int(unique.shape[0]),
                        phase_flops=phase_flops, metadata=metadata)


# ---------------------------------------------------------------------------
# Request execution and the registered engine
# ---------------------------------------------------------------------------

def validate_pipeline_request(request, *, one_shot: bool) -> None:
    """Reject knobs the pipeline cannot honour, on every entry path.

    Shared by :meth:`PipelineEngine.run` and the session's streaming branch
    (which bypasses the engine), so an ignored option can never differ in
    behaviour between ``repro.fuse`` and ``session.fuse``.  ``one_shot``
    additionally rejects ``max_inflight``: a single run has no stream for
    it to schedule, whereas session-built requests legitimately carry it.
    """
    from ..api.engines import _reject_resilience_options

    _reject_resilience_options(request, "pipeline")
    if one_shot and request.max_inflight is not None:
        raise ValueError(
            "max_inflight schedules concurrent cubes across a session "
            "stream, which a one-shot run does not have; use "
            "repro.open_session(engine='pipeline', "
            "max_inflight=...).fuse_stream(cubes)")


def execute_pipeline_request(request, executor, *, backend_label: str,
                             output_pool: Optional[OutputPool] = None):
    """Run one :class:`~repro.api.request.FusionRequest` on ``executor``.

    Shared by :class:`PipelineEngine` (one-shot, private executor) and
    :class:`~repro.api.session.FusionSession` (streaming, one executor for
    every in-flight cube; sessions also pass their reusable ``output_pool``
    of zero-copy placements).  Returns the unified
    :class:`~repro.api.request.FusionReport`.
    """
    from ..api.request import FusionReport

    config = request.resolved_config()
    start = time.perf_counter()
    result = run_pipeline(request.cube, config, executor,
                          n_components=request.n_components,
                          full_projection=request.full_projection,
                          tile_rows=request.tile_rows,
                          output_pool=output_pool)
    elapsed = time.perf_counter() - start
    metrics = RunMetrics(elapsed_seconds=elapsed, backend=backend_label,
                         workers=config.partition.workers,
                         subcubes=min(config.partition.effective_subcubes,
                                      request.cube.rows))
    return FusionReport(result=result, metrics=metrics, engine="pipeline",
                        backend=backend_label,
                        stage_timings=stage_timings_from_result(result))


class PipelineEngine:
    """Streaming tile-pipelined fusion on pooled processes or host threads.

    Registered as ``"pipeline"`` by :mod:`repro.api.engines`.  One-shot runs
    build (and tear down) a private stage executor; sessions keep a shared
    executor alive instead and bypass :meth:`run` -- see
    :meth:`repro.api.session.FusionSession.fuse_stream`.
    """

    uses_backend = True

    def validate(self, request, backend: Optional[Backend] = None) -> None:
        validate_pipeline_request(request, one_shot=True)

    def slots_needed(self, config) -> int:
        """One pool slot per worker (stage slots carry no manager)."""
        return config.partition.workers

    def run(self, request, backend: Optional[Backend] = None):
        self.validate(request, backend)
        spec = request.backend_choice(default="process")
        if backend is not None or isinstance(spec, Backend):
            raise ValueError(
                "engine 'pipeline' executes stage tasks, not SCP programs; "
                "pass a backend spec string such as 'process:8', not a "
                "backend instance")
        workers = max(request.resolved_config().partition.workers, 1)
        executor = TransportStageExecutor(
            transport_for_spec(spec, workers=workers), workers=workers)
        placed: Optional[SharedCube] = None
        try:
            working = request
            if executor.uses_processes and not isinstance(request.cube, SharedCube):
                # Place the samples in shared memory once, so stage tasks
                # ship a tiny handle instead of pickling the cube per task.
                placed = SharedCube.from_cube(request.cube)
                working = request.replace(cube=placed)
            return execute_pipeline_request(working, executor,
                                            backend_label=str(spec))
        finally:
            executor.close()
            if placed is not None:
                placed.close()


__all__ = ["PipelineEngine", "run_pipeline",
           "execute_pipeline_request", "validate_pipeline_request",
           "plan_tiles", "default_tile_rows",
           "screen_tile", "covariance_partial", "project_tile",
           "project_tile_into"]
