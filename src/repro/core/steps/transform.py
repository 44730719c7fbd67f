"""Steps 6-7: transformation matrix and principal component projection.

Step 6 computes the eigenvectors of the covariance matrix, sorted by
decreasing eigenvalue, so that "the high spectral content is forced into the
front components".  Its cost is O(bands^3) but independent of image size,
which is why the paper keeps it sequential at the manager and why, at 210
bands, it does not dominate the run time (a claim the step-6 benchmark
checks).

Step 7 projects every pixel vector of the *original* cube onto the leading
eigenvectors; it is embarrassingly parallel over pixels and is distributed
over the workers together with the colour mapping.  Every engine projects a
cube block through :func:`project_panels`: the block in its stored band-major
layout, only the eigenvectors that reach an output, and the pixels in
zero-padded panels of :data:`PANEL_PIXELS` -- so a pixel's bits do not depend
on the size of the tile, sub-cube or cube it arrived in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class PCTBasis:
    """The principal component transform derived from the screened statistics.

    Attributes
    ----------
    eigenvalues:
        All eigenvalues of the covariance matrix, descending.
    components:
        ``(n_components, bands)`` matrix A whose rows are the leading
        eigenvectors; ``project`` computes ``A (x - mean)``.
    mean:
        The mean vector the data is centred on before projection.
    """

    eigenvalues: np.ndarray
    components: np.ndarray
    mean: np.ndarray

    @property
    def n_components(self) -> int:
        return self.components.shape[0]

    @property
    def bands(self) -> int:
        return self.components.shape[1]

    def leading(self, keep: int) -> "PCTBasis":
        """The same basis cut to its ``keep`` leading eigenvectors (a view)."""
        return PCTBasis(self.eigenvalues, self.components[:keep], self.mean)

    def explained_variance_ratio(self) -> np.ndarray:
        """Fraction of total variance captured by each retained component."""
        total = float(np.sum(self.eigenvalues))
        if total <= 0:
            return np.zeros(self.n_components)
        return np.asarray(self.eigenvalues[: self.n_components]) / total


def transformation_matrix(covariance: np.ndarray, mean: np.ndarray,
                          n_components: Optional[int] = 3) -> PCTBasis:
    """Step 6: eigen-decompose the covariance and build the transform basis.

    Parameters
    ----------
    covariance:
        ``(bands, bands)`` symmetric covariance matrix from step 5.
    mean:
        ``(bands,)`` mean vector from step 3.
    n_components:
        Number of leading eigenvectors to retain; ``None`` keeps all of them.
        The colour mapping needs only the first three, and retaining exactly
        three also reduces the projection cost of step 7 by a factor of
        ``bands / 3``.

    Notes
    -----
    Eigenvector signs are fixed so that the largest-magnitude entry of each
    eigenvector is positive.  ``numpy.linalg.eigh`` returns an arbitrary sign
    per eigenvector; without the convention, bit-identical reproducibility of
    the colour composite across runs and backends could not be asserted.
    """
    covariance = np.asarray(covariance, dtype=np.float64)
    mean = np.asarray(mean, dtype=np.float64)
    if covariance.ndim != 2 or covariance.shape[0] != covariance.shape[1]:
        raise ValueError(f"covariance must be square; got {covariance.shape}")
    if mean.shape != (covariance.shape[0],):
        raise ValueError("mean length does not match covariance dimension")
    if not np.allclose(covariance, covariance.T, atol=1e-8):
        raise ValueError("covariance matrix must be symmetric")
    bands = covariance.shape[0]
    if n_components is None:
        n_components = bands
    if not 1 <= n_components <= bands:
        raise ValueError(f"n_components must be in [1, {bands}]")

    eigenvalues, eigenvectors = np.linalg.eigh(covariance)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = eigenvalues[order]
    eigenvectors = eigenvectors[:, order]

    # Deterministic sign convention.
    flip = np.sign(eigenvectors[np.argmax(np.abs(eigenvectors), axis=0),
                                np.arange(bands)])
    flip[flip == 0] = 1.0
    eigenvectors = eigenvectors * flip[None, :]

    components = eigenvectors[:, :n_components].T.copy()
    return PCTBasis(eigenvalues=eigenvalues, components=components, mean=mean)


def project(pixels: np.ndarray, basis: PCTBasis, *,
            compute_dtype=np.float64,
            out: Optional[np.ndarray] = None) -> np.ndarray:
    """Step 7: transform pixel vectors into principal component space.

    ``Cs_ij = A (Is_ij - m)`` for every pixel vector, vectorised as a single
    matrix product.  Returns a ``(pixels, n_components)`` float64 array.

    ``compute_dtype`` selects the precision of the centring and the matrix
    product (the fast mode runs them in float32 and widens the result back);
    the float64 default is the seed arithmetic, bit for bit.

    ``out`` optionally receives the result: a preallocated float64
    ``(pixels, n_components)`` array the matrix product writes into
    directly.  The same BLAS call runs on the same operands, so the bytes
    are identical to the allocating path -- ``out`` only removes the
    per-call output allocation.
    """
    source = np.asarray(pixels)
    if source.ndim != 2 or source.shape[1] != basis.bands:
        raise ValueError(
            f"pixels of shape {source.shape} do not match basis with {basis.bands} bands")
    if out is not None and (out.shape != (source.shape[0], basis.n_components)
                            or out.dtype != np.float64):
        raise ValueError(
            f"out must be float64 of shape {(source.shape[0], basis.n_components)}; "
            f"got {out.dtype} {out.shape}")
    dtype = np.dtype(compute_dtype)
    if dtype == np.float64:
        centred = np.asarray(source, dtype=np.float64) - basis.mean[None, :]
        if out is not None:
            return np.matmul(centred, basis.components.T, out=out)
        return centred @ basis.components.T
    if source.dtype == dtype:
        # Input already in the compute dtype: skip the float64 round-trip
        # (exact -- float64 represents every float32 value, so converting
        # up and back returns the same bits the input held).
        narrow_pixels = source
    else:
        narrow_pixels = np.asarray(source, dtype=np.float64).astype(dtype, copy=False)
    centred = narrow_pixels - basis.mean.astype(dtype, copy=False)[None, :]
    narrow = centred @ basis.components.astype(dtype, copy=False).T
    if out is not None:
        np.copyto(out, narrow)
        return out
    return narrow.astype(np.float64)


#: Pixels per step-7 GEMM (and step-8 mix) panel.  Fixed, so a tile of any
#: size makes the same BLAS calls: OpenBLAS takes a small-matrix path with a
#: different summation order for a product over a few pixels.  Measured, ms
#: of ``project_and_map`` per request at the default tiles of the
#: 256x256x64 / 128x128x64 / 64x64x32 scenes (shared 2-vCPU host, one BLAS
#: thread, lower of two runs): 128 -> 21.8/4.1/0.74, 256 -> 16.0/3.7/0.78,
#: 512 -> 12.3/3.1/0.59, 1024 -> 13.3/3.1/0.55, 2048 -> 14.6/4.2/0.76,
#: 4096 -> 12.9/3.1/0.97; the unpanelled full-rank product: 75/11/1.2.
PANEL_PIXELS = 512


def _fresh_buffer(tag: str, shape: tuple, dtype) -> np.ndarray:
    """The default ``scratch`` source ``(tag, shape, dtype)``: a new array."""
    return np.empty(shape, dtype=dtype)


def matmul_panels(matrix: np.ndarray, weights: np.ndarray, *, tag: str,
                  centre: Optional[np.ndarray] = None,
                  scratch: Callable[..., np.ndarray] = _fresh_buffer) -> np.ndarray:
    """``(matrix - centre) @ weights`` of a ``(pixels, k)`` matrix, float64,
    :data:`PANEL_PIXELS` pixels at a time.

    Each panel is centred (or copied) into a zero-padded buffer, so every
    GEMM has one shape.  ``scratch`` supplies the buffers and the result.
    """
    pixels, width_in = matrix.shape
    out = scratch(tag, (pixels, weights.shape[1]), np.float64)
    # Band-major, so centring a band-major block streams both operands.
    panel = scratch(tag + "-panel", (width_in, PANEL_PIXELS), np.float64).T
    product = scratch(tag + "-product", (PANEL_PIXELS, weights.shape[1]),
                      np.float64)
    for start in range(0, pixels, PANEL_PIXELS):
        width = min(PANEL_PIXELS, pixels - start)
        if centre is None:
            panel[:width] = matrix[start:start + width]
        else:
            np.subtract(matrix[start:start + width], centre, out=panel[:width])
        panel[width:] = 0.0
        np.matmul(panel, weights, out=product)
        out[start:start + width] = product[:width]
    return out


def project_panels(block: np.ndarray, basis: PCTBasis, keep: int, *,
                   compute_dtype=np.float64,
                   scratch: Callable[..., np.ndarray] = _fresh_buffer) -> np.ndarray:
    """Step 7 of a ``(bands, rows, cols)`` block onto ``basis``'s leading
    ``keep`` eigenvectors; returns ``(pixels, keep)`` float64.

    The float64 path runs :func:`matmul_panels` on the block's
    ``(bands, pixels)`` view (no copy for a row tile of a C-ordered cube);
    the float32 fast mode runs :func:`project` on the pixel matrix.
    """
    block = np.asarray(block)
    if block.ndim != 3 or block.shape[0] != basis.bands:
        raise ValueError(f"block of shape {block.shape} does not match basis bands {basis.bands}")
    pixel_matrix = block.reshape(block.shape[0], -1).T
    lead = basis.leading(keep)
    if np.dtype(compute_dtype) != np.float64:
        return project(pixel_matrix, lead, compute_dtype=compute_dtype)
    return matmul_panels(pixel_matrix, lead.components.T, tag="planes",
                         centre=basis.mean, scratch=scratch)


def project_cube_block(block: np.ndarray, basis: PCTBasis, *,
                       compute_dtype=np.float64) -> np.ndarray:
    """Project a ``(bands, rows, cols)`` sub-cube; returns ``(rows, cols, n_components)``."""
    transformed = project_panels(block, basis, basis.n_components,
                                 compute_dtype=compute_dtype)
    return transformed.reshape(*np.shape(block)[1:], basis.n_components)


# --------------------------------------------------------------------------
# Cost model
# --------------------------------------------------------------------------

#: Constant in front of the n^3 eigen-solve cost.  The raw operation count of
#: tridiagonalisation plus QL iteration is closer to 9n^3, but dense
#: eigen-solvers run much nearer to a workstation's peak rate than the scalar
#: screening code the single effective node FLOP rate is calibrated to, so
#: the constant is reduced to keep the *time* charged for step 6 realistic
#: (well under a handful of seconds at 210 bands -- the paper notes this step
#: does not dominate the overall run time).
EIGH_FLOP_CONSTANT = 2.0


def eigendecomposition_flops(bands: int) -> float:
    """FLOP estimate of the symmetric eigen-decomposition (step 6)."""
    return EIGH_FLOP_CONSTANT * float(bands) ** 3


def projection_flops(n_pixels: int, bands: int, n_components: int) -> float:
    """FLOP estimate of projecting ``n_pixels`` vectors (step 7)."""
    return 2.0 * float(n_pixels) * bands * n_components + float(n_pixels) * bands


__all__ = [
    "PCTBasis",
    "transformation_matrix",
    "project",
    "project_cube_block",
    "project_panels",
    "matmul_panels",
    "PANEL_PIXELS",
    "eigendecomposition_flops",
    "projection_flops",
    "EIGH_FLOP_CONSTANT",
]
