"""The ``numpy`` compute backend: the reference tier.

This backend defines the output bits any other tier must reproduce.  It
is *not* a naive transliteration of the step functions, though -- it removes
the per-call allocation traffic the generic expressions pay while keeping
every floating-point operation identical:

* the covariance centring (``pixels - mean``) is written with ``np.subtract
  (..., out=...)`` into a **thread-local scratch pool** instead of a fresh
  ``(pixels, bands)`` float64 array per call, and the reduction stays
  ``centred.T @ centred`` (numpy recognises the ``A.T @ A`` form and
  dispatches a symmetric rank-k update);
* the fused step-7/8 tile runs the step functions' own fixed-width panel
  helpers (:func:`~repro.core.steps.transform.project_panels`,
  :func:`~repro.core.steps.colormap.mix_opponency`) on pooled buffers, and
  its colour-map stretch runs in place on the projected planes -- the
  operation sequence of ``color_map``, so the composite is bit-identical.

Scratch buffers are keyed by (tag, shape, dtype) and live in
``threading.local`` storage: the pipeline engine's thread executors run
stage tasks concurrently on host threads, and per-thread pools make reuse
safe without a lock on the hot path.  Forked pool children inherit a
snapshot they may freely reuse (buffers hold no handles, just bytes).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import List, Optional, Tuple

import numpy as np

from ..steps.colormap import _OFFSET, _SCALE, mix_opponency
from ..steps.transform import (PCTBasis, project, project_cube_block,
                               project_panels)
from .registry import ComputeBackend, register_compute

#: Buffers kept per thread; enough for the distinct shapes of one streaming
#: run (a fused tile draws six; tiles differ by at most one row) without
#: hoarding a sweep's worth.
_SCRATCH_LIMIT = 12

#: Still-alive survivors :meth:`NumpyBackend.eliminate_survivors` settles per
#: Gram matrix.  Measured, median screening ms per request of the
#: pipe_small_overlap / socket_killstorm / resilient_repl2 scenes (benchmark
#: seeds 0-2, 2-vCPU host, one BLAS thread): 16 -> 3.7/20.8/20.4,
#: 32 -> 3.1/19.8/19.4, 64 -> 3.1/22.3/22.5, 128 -> 3.4/24.8/24.2,
#: 256 -> 3.9/24.6/24.5; one pivot at a time: 7.3/31/30.  Flat from 32 to
#: 128 within the host's ~15 % run-to-run noise, worse at both ends.
_ELIMINATION_BLOCK = 64


class _ScratchPool(threading.local):
    """Per-thread pool of reusable ndarray buffers, keyed by tag+shape+dtype.

    The *tag* keeps two live buffers of the same shape distinct (the fused
    tile's step-7 and step-8 product panels are both ``(PANEL_PIXELS, 3)``
    at three components -- aliasing them would hand BLAS an overlapping
    ``out=``).
    """

    def __init__(self) -> None:
        self._buffers: "OrderedDict[Tuple[str, Tuple[int, ...], str], np.ndarray]" \
            = OrderedDict()

    def get(self, tag: str, shape: Tuple[int, ...], dtype) -> np.ndarray:
        key = (tag, tuple(shape), np.dtype(dtype).str)
        buffer = self._buffers.pop(key, None)
        if buffer is None:
            buffer = np.empty(shape, dtype=dtype)
        self._buffers[key] = buffer
        while len(self._buffers) > _SCRATCH_LIMIT:
            self._buffers.popitem(last=False)
        return buffer


_scratch = _ScratchPool()


def _validated_pixel_matrix(pixels: np.ndarray,
                            mean: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The covariance kernel's input validation (identical to the step fn)."""
    pixels = np.asarray(pixels, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if pixels.ndim != 2:
        raise ValueError("pixels must be 2-D (pixels, bands)")
    if mean.shape != (pixels.shape[1],):
        raise ValueError(f"mean of shape {mean.shape} does not match "
                         f"{pixels.shape[1]} bands")
    return pixels, mean


def _stretch_statistics(stretch_mean: np.ndarray, stretch_std: np.ndarray,
                        clip_sigma: float) -> Tuple[np.ndarray, np.ndarray]:
    """Normalised stretch constants, exactly as ``stretch_components`` derives
    them (mean/std truncated to the three mapped channels, zero stds floored
    to one, the clip width folded into a single per-channel scale)."""
    if clip_sigma <= 0:
        raise ValueError("clip_sigma must be positive")
    mean = np.asarray(stretch_mean, dtype=np.float64)[:3]
    std = np.asarray(stretch_std, dtype=np.float64)[:3]
    std = np.where(std > 0, std, 1.0)
    return mean, clip_sigma * std


@register_compute("numpy")
class NumpyBackend(ComputeBackend):
    """Reference kernels: numpy/BLAS with scratch reuse and ``out=`` paths."""

    # ------------------------------------------------------------ covariance
    def covariance_sum(self, pixels: np.ndarray, mean: np.ndarray) -> np.ndarray:
        """Fused centre+SYRK covariance partial of one unique-set slice.

        The centring writes into a pooled scratch (no fresh ``(pixels,
        bands)`` temporary per partition) and the reduction keeps the
        ``centred.T @ centred`` form numpy lowers to a symmetric rank-k
        update -- both bit-identical to
        :func:`~repro.core.steps.statistics.covariance_sum`.
        """
        pixels, mean = _validated_pixel_matrix(pixels, mean)
        centred = _scratch.get("centred", pixels.shape, np.float64)
        np.subtract(pixels, mean[None, :], out=centred)
        return centred.T @ centred

    # ------------------------------------------------------------ projection
    def project(self, pixels: np.ndarray, basis: PCTBasis, *,
                compute_dtype=np.float64,
                out: Optional[np.ndarray] = None) -> np.ndarray:
        """Step-7 projection of a pixel matrix: the step function itself."""
        return project(pixels, basis, compute_dtype=compute_dtype, out=out)

    def project_block(self, block: np.ndarray, basis: PCTBasis, *,
                      compute_dtype=np.float64) -> np.ndarray:
        """Project a ``(bands, rows, cols)`` sub-cube to component planes."""
        return project_cube_block(block, basis, compute_dtype=compute_dtype)

    # ------------------------------------------------- fused step-7/8 tiles
    def project_and_map(self, block: np.ndarray, basis: PCTBasis, *,
                        n_components: int, normalize: bool,
                        stretch_mean: np.ndarray, stretch_std: np.ndarray,
                        compute_dtype=np.float64, clip_sigma: float = 2.5,
                        components_out: Optional[np.ndarray] = None,
                        composite_out: Optional[np.ndarray] = None):
        """Fused centre+project+stretch+mix of one step-7 output tile.

        Projects onto the ``max(n_components, 3)`` leading eigenvectors
        only (every one that reaches an output) into a pooled buffer, copies
        the retained components out once (into ``components_out`` on the
        zero-copy path), stretches the first three in place, mixes them and
        clips into ``composite_out``.  ``project_cube_block`` plus
        ``color_map`` run the same panel helpers and operations, so the
        results are bit-identical to the unfused path and to any tiling.
        """
        keep = max(n_components, 3)
        product = project_panels(block, basis, keep,
                                 compute_dtype=compute_dtype,
                                 scratch=_scratch.get)
        rows, cols = np.shape(block)[1:]
        planes = product.reshape(rows, cols, keep)
        if components_out is not None:
            np.copyto(components_out, planes[..., :n_components])
            components = components_out
        else:
            # .copy(): the planes are the pooled buffer and must not escape.
            components = planes[..., :n_components].copy()

        chain = product[:, :3]
        if normalize:
            mean, scale = _stretch_statistics(stretch_mean, stretch_std,
                                              clip_sigma)
            np.subtract(chain, mean[None, :], out=chain)
            np.divide(chain, scale[None, :], out=chain)
            np.multiply(chain, _OFFSET, out=chain)
            np.clip(chain, -_OFFSET, _OFFSET, out=chain)
            np.add(chain, _OFFSET, out=chain)
        np.subtract(chain, _OFFSET, out=chain)
        mixed = mix_opponency(chain, scratch=_scratch.get)
        np.add(mixed, _OFFSET, out=mixed)
        np.divide(mixed, _SCALE, out=mixed)
        if composite_out is not None:
            np.clip(mixed.reshape(rows, cols, 3), 0.0, 1.0, out=composite_out)
            return components, composite_out
        composite = np.clip(mixed, 0.0, 1.0).reshape(rows, cols, 3)
        return components, composite

    # ------------------------------------------------------------- screening
    def eliminate_survivors(self, survivors: np.ndarray,
                            survivor_rows: np.ndarray, cos_threshold,
                            *, room: Optional[int] = None):
        """Greedy elimination among one chunk's screening survivors.

        Survivors are admitted in row order, each unless it lies within the
        cosine threshold of a survivor admitted before it (at most ``room``
        of them).  The walk is blocked: one ``block @ block.T`` Gram matrix
        settles the greedy order among the next :data:`_ELIMINATION_BLOCK`
        remaining survivors, one ``rest @ pivots.T`` product removes every
        later survivor within the threshold of a pivot the block admitted,
        and the remainder is compacted once per block.  The decisions are
        those of admitting one pivot at a time and eliminating against it
        (only the cosines' BLAS call shapes differ).  Returns the admitted
        (already normalised) rows and their chunk-row indices.
        """
        admitted: List[np.ndarray] = []
        admitted_rows: List[np.ndarray] = []
        count = 0
        remaining = survivors
        remaining_rows = survivor_rows
        while remaining.shape[0] and (room is None or count < room):
            block = remaining[:_ELIMINATION_BLOCK]
            apart = block @ block.T < cos_threshold
            alive = np.ones(block.shape[0], dtype=bool)
            picks: List[int] = []
            for row in range(block.shape[0]):
                if not alive[row]:
                    continue
                picks.append(row)
                if room is not None and count + len(picks) >= room:
                    break
                # Only later rows: the diagonal is the pivot itself, even
                # when cos_threshold == 1.0.
                alive[row + 1:] &= apart[row, row + 1:]
            pivots = block[picks]
            admitted.append(pivots)
            admitted_rows.append(remaining_rows[picks])
            count += len(picks)
            rest = remaining[_ELIMINATION_BLOCK:]
            keep = (rest @ pivots.T < cos_threshold).all(axis=1)
            remaining = rest[keep]
            remaining_rows = remaining_rows[_ELIMINATION_BLOCK:][keep]
        if not admitted:
            return (np.empty((0, survivors.shape[1]), dtype=survivors.dtype),
                    np.empty(0, dtype=np.intp))
        return (np.concatenate(admitted),
                np.concatenate(admitted_rows).astype(np.intp, copy=False))


__all__ = ["NumpyBackend"]
