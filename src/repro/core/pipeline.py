"""Sequential reference implementation of the spectral-screening PCT.

:class:`SpectralScreeningPCT` runs the eight algorithm steps of Section 3 in
a single process.  It is the ground truth against which the distributed and
resilient implementations are validated (their composites must match it
exactly), the baseline of the speed-up figures (the one-processor point of
Figure 4), and the simplest entry point of the library::

    from repro import SpectralScreeningPCT, HydiceGenerator

    cube = HydiceGenerator.quicklook_cube()
    result = SpectralScreeningPCT().fuse(cube)
    rgb = result.composite          # (rows, cols, 3) in [0, 1]
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from ..config import FusionConfig
from ..data.cube import HyperspectralCube
from .kernels import kernel_covariance_sum
from .partition import decompose, subcube_pixel_matrix
from .steps.colormap import color_map, color_map_flops, component_statistics
from .steps.screening import (merge_unique_sets, screen_unique_set,
                              screening_flops)
from .steps.statistics import (covariance_matrix, covariance_sum_flops,
                               mean_flops, mean_vector,
                               partition_pixel_matrix)
from .steps.transform import (PCTBasis, eigendecomposition_flops, project,
                              project_cube_block, projection_flops,
                              transformation_matrix)


@dataclass
class FusionResult:
    """Output of a fusion run (sequential, distributed or resilient).

    Attributes
    ----------
    composite:
        ``(rows, cols, 3)`` colour composite in [0, 1] (Figure 3 analogue).
    components:
        ``(rows, cols, n_components)`` principal component planes.
    basis:
        The :class:`~repro.core.steps.transform.PCTBasis` used for projection.
    unique_set_size:
        Number of pixel vectors retained by spectral screening (K).
    phase_flops:
        Estimated floating point work per algorithm phase; the simulated
        backend charges these against node speeds.
    metadata:
        Run provenance (configuration echo, worker counts, and so on).
    """

    composite: np.ndarray
    components: np.ndarray
    basis: PCTBasis
    unique_set_size: int
    phase_flops: Dict[str, float] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def shape(self):
        return self.composite.shape

    def total_flops(self) -> float:
        return float(sum(self.phase_flops.values()))


class SpectralScreeningPCT:
    """Sequential spectral-screening PCT fusion engine.

    Parameters
    ----------
    config:
        Full :class:`~repro.config.FusionConfig`; only the screening,
        partition and colour-map sections are used by the sequential path.
    n_components:
        Number of principal components *retained in the output*; the colour
        mapping uses the first three.  The basis holds *all* eigenvectors
        (the paper's formulation), and the cost model charges step 7 for
        every one; the kernel multiplies only the ``n_components`` leading
        ones.
    """

    def __init__(self, config: Optional[FusionConfig] = None, *,
                 n_components: int = 3) -> None:
        self.config = config or FusionConfig()
        if n_components < 3:
            raise ValueError("at least 3 components are required for colour mapping")
        self.n_components = n_components

    # ------------------------------------------------------------------ fuse
    def fuse(self, cube: HyperspectralCube) -> FusionResult:
        """Run all eight steps on ``cube`` and return the fusion result.

        The screening pass follows the same sub-cube decomposition the
        distributed implementation uses (``config.partition``): each sub-cube
        is screened independently and the per-sub-cube unique sets are merged
        (step 2).  With the default single sub-cube this is the plain
        algorithm; configured identically to a distributed run it produces a
        bit-identical composite, which is what the cross-implementation
        equivalence tests assert.

        Each step's wall clock and processed row count are recorded into
        ``metadata["stage_seconds"]`` / ``metadata["stage_rows"]`` /
        ``metadata["stage_invocations"]``, from which the engine layer
        derives :attr:`~repro.api.request.FusionReport.stage_timings`.
        """
        screening = self.config.screening
        subcubes = self.config.partition.effective_subcubes
        compute_dtype = self.config.compute_dtype
        compute = self.config.compute
        stage_seconds: Dict[str, float] = {}
        stage_rows: Dict[str, int] = {}
        stage_invocations: Dict[str, int] = {}

        def timed(stage: str, rows: Optional[int], fn, *args, **kwargs):
            start = time.perf_counter()
            value = fn(*args, **kwargs)
            stage_seconds[stage] = stage_seconds.get(stage, 0.0) + (
                time.perf_counter() - start)
            stage_invocations[stage] = stage_invocations.get(stage, 0) + 1
            if rows is not None:
                stage_rows[stage] = stage_rows.get(stage, 0) + rows
            return value

        # Steps 1-2: per-sub-cube spectral screening, then merge.
        unique_sets = []
        for spec in decompose(cube.rows, min(subcubes, cube.rows)):
            block_pixels = subcube_pixel_matrix(
                cube.data[:, spec.row_start:spec.row_stop])
            unique_sets.append(timed(
                "screening", block_pixels.shape[0], screen_unique_set,
                block_pixels, screening.angle_threshold,
                max_unique=screening.max_unique,
                sample_stride=screening.sample_stride, compute=compute))
        total_members = int(sum(u.shape[0] for u in unique_sets))
        unique = timed("merge", total_members, merge_unique_sets,
                       unique_sets, screening.angle_threshold,
                       max_unique=screening.max_unique,
                       rescreen=screening.rescreen_merge, compute=compute)

        # Step 3: mean vector of the unique set.
        mean = timed("mean", int(unique.shape[0]), mean_vector, unique)

        # Steps 4-5: covariance of the unique set, accumulated per partition
        # exactly as the distributed workers do (identical summation order).
        parts = partition_pixel_matrix(unique, max(self.config.partition.workers, 1))
        partial_sums = [timed("covariance", int(part.shape[0]),
                              kernel_covariance_sum, part, mean, compute)
                        for part in parts]
        covariance = covariance_matrix(partial_sums, total_pixels=unique.shape[0])

        # Step 6: transformation matrix.  The paper's formulation transforms
        # with the full eigenvector matrix and then keeps the first three
        # components for colour mapping.
        basis = timed("eigendecomposition", None, transformation_matrix,
                      covariance, mean, n_components=cube.bands)

        # Global colour-stretch statistics, derived from the screened unique
        # set so that the distributed workers (which normalise their blocks
        # with the same constants) reproduce this composite exactly.  Only the
        # three colour-mapped components are needed, so project onto a
        # truncated basis.
        stats_basis = basis.leading(3)
        stretch_mean, stretch_std = component_statistics(
            timed("component_stats", int(unique.shape[0]), project,
                  unique, stats_basis))

        # Step 7: transform the original cube onto the retained components
        # only -- the same leading rows every engine's step 7 multiplies.
        retained = basis.leading(self.n_components)
        components = timed("projection", cube.pixels, project_cube_block,
                           cube.data, retained, compute_dtype=compute_dtype)

        # Step 8: human-centred colour mapping.
        composite = timed("colormap", cube.pixels, color_map, components,
                          normalize=self.config.colormap.normalize_components,
                          mean=stretch_mean, std=stretch_std)

        phase_flops = self.estimate_phase_flops(cube, unique.shape[0])
        metadata = {
            "mode": "sequential",
            "angle_threshold": screening.angle_threshold,
            "n_components": self.n_components,
            "bands": cube.bands,
            "rows": cube.rows,
            "cols": cube.cols,
            "stretch_mean": stretch_mean,
            "stretch_std": stretch_std,
            "compute_dtype": compute_dtype,
            "compute": compute,
            "stage_seconds": stage_seconds,
            "stage_rows": stage_rows,
            "stage_invocations": stage_invocations,
        }
        return FusionResult(composite=composite, components=components, basis=basis,
                            unique_set_size=int(unique.shape[0]),
                            phase_flops=phase_flops, metadata=metadata)

    # ------------------------------------------------------------ cost model
    def estimate_phase_flops(self, cube: HyperspectralCube, unique_size: int) -> Dict[str, float]:
        """Analytic FLOP estimate per phase for the given problem size.

        The same estimators drive the simulated backend, so the sequential
        run time predicted from these numbers is consistent with the
        one-worker point of the distributed simulation.
        """
        n_pixels = cube.pixels
        bands = cube.bands
        return {
            "screening": screening_flops(n_pixels, unique_size, bands),
            "mean": mean_flops(unique_size, bands),
            "covariance": covariance_sum_flops(unique_size, bands),
            "eigendecomposition": eigendecomposition_flops(bands),
            "projection": projection_flops(n_pixels, bands, bands),
            "colormap": color_map_flops(n_pixels),
        }


__all__ = ["SpectralScreeningPCT", "FusionResult"]
