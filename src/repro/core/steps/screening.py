"""Steps 1-2: spectral-angle screening and unique-set merging.

The screening pass reduces the full set of pixel vectors to a small *unique
set*: a subset in which no two members are within ``angle_threshold`` radians
of each other (spectral angle = arccos of the normalised dot product, the
metric of Kruse et al.'s Spectral Image Processing System cited by the
paper).  Because the statistics of the PCT are subsequently computed over the
unique set rather than the raw image, a rare target signature (a vehicle)
carries the same weight as the signature of the dominant background (trees) --
which is exactly the property the paper highlights.

The implementation is a greedy cover: a pixel joins the unique set only if
its angle to every current member exceeds the threshold.  The hot kernel
(:func:`screen_unique_set`) keeps the pass vectorised and incremental:

* members live in a :class:`UniqueSetBuffer` -- a grow-by-doubling
  preallocated ``(capacity, bands)`` array of *already-normalised* vectors.
  Each admitted row is normalised exactly once; every candidate chunk takes
  one matrix product against a zero-copy view of the buffer, instead of
  re-stacking and re-normalising the entire unique set per chunk;
* the admission test runs in the **cosine domain**: a candidate survives when
  its largest cosine against the members is below an arccos-calibrated
  ``cos(angle_threshold)`` (see ``_cosine_admission_threshold``).  ``arccos``
  is monotone decreasing, so the decision -- and therefore the unique set --
  is the same as thresholding the angles, without evaluating a
  transcendental over the ``(chunk, unique)`` matrix.  The cosines
  themselves are produced by exactly the reference arithmetic (normalise
  the chunk, one GEMM against the unit members), so the comparison sees the
  same bits the seed kernel's ``arccos`` saw;
* chunk survivors that may still be mutually similar are resolved by a
  blocked greedy walk (``eliminate_survivors``): one small Gram matrix
  settles the admission order inside each block of still-alive survivors,
  and one GEMM against the block's admitted pivots removes every later
  survivor they cover, so the remainder is compacted once per block, not
  once per admitted member.

:func:`screen_unique_set_reference` retains the seed implementation verbatim.
It is the ground truth the equivalence property tests
(``tests/test_screening_kernel_property.py``) compare the incremental kernel
against: both make the same greedy decisions, so their unique sets (and
every composite derived from them) are bit-identical under the default
float64 compute dtype -- asserted across random scenes, thresholds,
chunkings, strides and caps.  The one theoretical exception is a candidate
whose cosine to a member lands within one rounding unit (~1e-16) of the
threshold: the seed kernel evaluates that cosine twice in different BLAS
call shapes (chunk matrix, then per-row recheck) and may see two
roundings, so no single-evaluation kernel can match it on such inputs.
No finite-precision scene sits on that boundary by accident.
"""

from __future__ import annotations

import functools
from typing import List, Sequence

import numpy as np

#: Numerical floor used when normalising pixel vectors; prevents division by
#: zero for dead detector pixels.
_NORM_FLOOR = 1e-12


def normalize_rows(matrix: np.ndarray, *, dtype=np.float64) -> np.ndarray:
    """Return ``matrix`` with every row scaled to unit Euclidean norm.

    ``dtype`` selects the arithmetic precision (the compute-dtype policy of
    the fast screening mode); the default float64 matches the seed kernel
    bit for bit.
    """
    matrix = np.asarray(matrix, dtype=dtype)
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, matrix.dtype.type(_NORM_FLOOR))


def spectral_angles(candidates: np.ndarray, references: np.ndarray) -> np.ndarray:
    """Pairwise spectral angles (radians) between two sets of pixel vectors.

    Parameters
    ----------
    candidates:
        ``(m, bands)`` array.
    references:
        ``(u, bands)`` array.

    Returns
    -------
    ndarray
        ``(m, u)`` matrix of angles; this is the paper's
        ``alpha(i, j) = arccos(x . y / (|x||y|))`` evaluated for all pairs.
    """
    cand = normalize_rows(candidates)
    ref = normalize_rows(references)
    cos = np.clip(cand @ ref.T, -1.0, 1.0)
    return np.arccos(cos)


class UniqueSetBuffer:
    """Grow-by-doubling store of already-normalised unique-set members.

    The buffer owns a preallocated ``(capacity, bands)`` array; admitted
    members are written in place and read back through :attr:`view` -- a
    zero-copy slice -- so the screening loop never re-stacks or re-normalises
    the unique set.  Doubling keeps amortised admission cost O(bands).
    """

    def __init__(self, bands: int, *, capacity: int = 256,
                 dtype=np.float64) -> None:
        if bands < 1:
            raise ValueError("bands must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._data = np.empty((capacity, bands), dtype=dtype)
        self._count = 0

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return self._data.shape[0]

    @property
    def view(self) -> np.ndarray:
        """Zero-copy ``(members, bands)`` view of the admitted rows."""
        return self._data[: self._count]

    def append(self, rows: np.ndarray) -> None:
        """Admit ``rows`` (already normalised, ``(k, bands)``)."""
        rows = np.atleast_2d(rows)
        need = self._count + rows.shape[0]
        if need > self._data.shape[0]:
            capacity = self._data.shape[0]
            while capacity < need:
                capacity *= 2
            grown = np.empty((capacity, self._data.shape[1]),
                             dtype=self._data.dtype)
            grown[: self._count] = self._data[: self._count]
            self._data = grown
        self._data[self._count: need] = rows
        self._count = need


@functools.lru_cache(maxsize=64)
def _cosine_admission_threshold(angle_threshold: float) -> float:
    """The exclusive cosine bound equivalent to the arccos-domain decision.

    Returns the smallest float ``T`` in ``[-1, 1]`` with ``arccos(T) <=
    angle_threshold``, so that for every representable cosine ``c`` in
    ``[-1, 1]``::

        arccos(c) > angle_threshold  <=>  c < T

    Simply using ``cos(angle_threshold)`` is *almost* right but can disagree
    with the seed kernel on exact-boundary cosines because ``cos`` and
    ``arccos`` round independently (e.g. ``cos(pi/2)`` is ``6.1e-17``, not
    the ``0.0`` whose ``arccos`` equals the float ``pi/2``).  A float
    bisection calibrates the constant against ``arccos`` itself -- ~60
    iterations, memoised per threshold, since every sub-cube of every
    request screens at the same one.  (A nextafter walk would not do:
    ``arccos`` is constant over ~1e16 consecutive floats around 0.)
    """
    if np.arccos(-1.0) <= angle_threshold:  # pragma: no cover - thr >= pi
        return -1.0
    low, high = -1.0, 1.0  # predicate arccos(c) <= thr: false at low, true at high
    while True:
        mid = (low + high) / 2.0
        if not low < mid < high:
            return high
        if np.arccos(mid) <= angle_threshold:
            high = mid
        else:
            low = mid


def _validate_screening_args(pixels: np.ndarray, angle_threshold: float,
                             sample_stride: int, chunk_size: int) -> None:
    if pixels.ndim != 2:
        raise ValueError(f"pixels must be 2-D (pixels, bands); got shape {pixels.shape}")
    if not 0.0 < angle_threshold < np.pi:
        raise ValueError("angle_threshold must be in (0, pi)")
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")


def screen_unique_set(pixels: np.ndarray, angle_threshold: float, *,
                      max_unique: int | None = None, sample_stride: int = 1,
                      chunk_size: int = 2048,
                      compute_dtype=np.float64,
                      compute: str = "numpy") -> np.ndarray:
    """Greedy spectral screening of a ``(pixels, bands)`` matrix (step 1).

    Parameters
    ----------
    pixels:
        Pixel-vector matrix of one image partition.
    angle_threshold:
        Minimum angle (radians) a candidate must subtend with *every* current
        unique-set member to be admitted.
    max_unique:
        Optional cap on the unique-set size (safety valve for noisy data).
    sample_stride:
        Optional spatial sub-sampling of the candidates (must be >= 1).
    chunk_size:
        Number of candidates examined per vectorised block (must be >= 1).
    compute_dtype:
        Arithmetic precision of the admission test (float64 default, or
        float32 for the documented fast mode).  The *returned* unique set is
        always the raw float64 pixel vectors; only the normalisation and
        cosine comparisons run in the reduced precision, so float32 may make
        marginally different admission decisions near the threshold.
    compute:
        Compute backend executing the survivor-elimination inner pass
        (:func:`repro.core.kernels.compute_names` lists the registered
        tiers).  The decisions -- and therefore the unique set -- are the
        same on every backend.

    Returns
    -------
    ndarray
        ``(unique, bands)`` float64 array of unique pixel vectors.
    """
    # Imported lazily: the kernels package imports this module's siblings.
    from ..kernels import get_compute

    kernel = get_compute(compute)
    pixels = np.asarray(pixels, dtype=np.float64)
    _validate_screening_args(pixels, angle_threshold, sample_stride, chunk_size)
    if sample_stride > 1:
        pixels = pixels[::sample_stride]
    if pixels.shape[0] == 0:
        return np.empty((0, pixels.shape[1]), dtype=np.float64)

    dtype = np.dtype(compute_dtype)
    # The admission test compares cosines against an arccos-calibrated
    # cos(threshold): arccos is monotone decreasing on [-1, 1], so "every
    # angle > threshold" is exactly "every cosine < T" -- no arccos over the
    # hot matrix (see _cosine_admission_threshold for the boundary
    # calibration).  The cosines come from the reference arithmetic --
    # normalise the chunk, multiply against the unit members -- so the
    # cosine-domain comparison sees bit-for-bit the values whose arccos the
    # seed kernel thresholded.
    cos_threshold = dtype.type(_cosine_admission_threshold(angle_threshold))

    buffer = UniqueSetBuffer(pixels.shape[1], dtype=dtype)
    buffer.append(normalize_rows(pixels[:1], dtype=dtype))
    indices: List[np.ndarray] = [np.zeros(1, dtype=np.intp)]

    for start in range(1, pixels.shape[0], chunk_size):
        if max_unique is not None and len(buffer) >= max_unique:
            break
        chunk = normalize_rows(pixels[start:start + chunk_size], dtype=dtype)
        cosines = chunk @ buffer.view.T
        survivor_rows = np.nonzero(cosines.max(axis=1) < cos_threshold)[0]
        if survivor_rows.size == 0:
            continue
        survivors = chunk[survivor_rows]
        # Survivors may still be mutually similar: resolve them greedily, in
        # row order -- a survivor is admitted unless it lies within the
        # threshold of one admitted before it.  The inner pass is a
        # registered compute kernel (the reference implementation is
        # :meth:`~repro.core.kernels.numpy_backend.NumpyBackend.
        # eliminate_survivors`); it makes the same decisions as the
        # sequential greedy pass on every backend.
        room = (None if max_unique is None else max_unique - len(buffer))
        admitted, admitted_rows = kernel.eliminate_survivors(
            survivors, survivor_rows, cos_threshold, room=room)
        if admitted.shape[0]:
            buffer.append(admitted)
            indices.append(start + admitted_rows)
    return pixels[np.concatenate(indices)]


def screen_unique_set_reference(pixels: np.ndarray, angle_threshold: float, *,
                                max_unique: int | None = None,
                                sample_stride: int = 1,
                                chunk_size: int = 2048) -> np.ndarray:
    """The seed screening kernel, retained verbatim as ground truth.

    Re-``vstack``s and re-normalises the whole unique set on every chunk and
    resolves chunk survivors with a per-row Python loop.  The equivalence
    property tests assert :func:`screen_unique_set` reproduces its output
    bit for bit (see the module docstring for the one-ulp boundary caveat);
    the incremental kernel's own cost is the ``core.steps.screening.s_p50``
    metric of ``benchmarks/e2e``.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    _validate_screening_args(pixels, angle_threshold, sample_stride, chunk_size)
    if sample_stride > 1:
        pixels = pixels[::sample_stride]
    if pixels.shape[0] == 0:
        return np.empty((0, pixels.shape[1]), dtype=np.float64)

    unique: List[np.ndarray] = [pixels[0]]
    for start in range(1, pixels.shape[0], chunk_size):
        if max_unique is not None and len(unique) >= max_unique:
            break
        chunk = pixels[start:start + chunk_size]
        reference = np.vstack(unique)
        angles = spectral_angles(chunk, reference)
        min_angle = angles.min(axis=1)
        survivors = chunk[min_angle > angle_threshold]
        # Survivors may still be mutually similar: resolve them greedily.
        for row in survivors:
            if max_unique is not None and len(unique) >= max_unique:
                break
            recent = np.vstack(unique[-256:])
            if spectral_angles(row[None, :], recent).min() > angle_threshold:
                # Also verify against the older members (rarely reached).
                if len(unique) <= 256 or \
                        spectral_angles(row[None, :], np.vstack(unique)).min() > angle_threshold:
                    unique.append(row)
    return np.vstack(unique)


def merge_unique_sets(unique_sets: Sequence[np.ndarray], angle_threshold: float, *,
                      max_unique: int | None = None, rescreen: bool = False,
                      compute_dtype=np.float64,
                      compute: str = "numpy") -> np.ndarray:
    """Merge per-partition unique sets into a single one (step 2).

    The paper only states that the per-worker sets are "sent back to the
    manager and combined"; two combination strategies are provided:

    * ``rescreen=False`` (default): plain concatenation.  This is O(K) and is
      what keeps step 2 negligible next to the eigen-decomposition, matching
      the paper's observation that step 6 "dominates the sequential time".
      Spectrally similar members contributed by different partitions are
      retained, which slightly re-weights materials that occur everywhere;
      the effect on the resulting composite is marginal because the
      covariance is still computed over screened (not raw) vectors.
    * ``rescreen=True``: re-screen the concatenation with the same threshold,
      collapsing cross-partition near-duplicates exactly as if the screening
      had been performed globally.  Cost grows as O(P * K^2) and is exposed
      for the ablation benchmarks.  ``compute_dtype`` selects the re-screen
      arithmetic (the compute-dtype policy applies to this screening pass
      like any other); the plain union never does arithmetic.
    """
    non_empty = [np.asarray(s, dtype=np.float64) for s in unique_sets
                 if s is not None and len(s) > 0]
    if not non_empty:
        raise ValueError("cannot merge an empty collection of unique sets")
    bands = {s.shape[1] for s in non_empty}
    if len(bands) != 1:
        raise ValueError(f"unique sets disagree on band count: {sorted(bands)}")
    stacked = np.vstack(non_empty)
    if not rescreen:
        if max_unique is not None and stacked.shape[0] > max_unique:
            stacked = stacked[:max_unique]
        return stacked
    return screen_unique_set(stacked, angle_threshold, max_unique=max_unique,
                             compute_dtype=compute_dtype, compute=compute)


# --------------------------------------------------------------------------
# Cost model
# --------------------------------------------------------------------------

def screening_flops(n_pixels: int, n_unique: int, bands: int) -> float:
    """FLOP estimate of screening ``n_pixels`` against a final unique set of
    ``n_unique`` members: each comparison is a dot product (2*bands FLOPs)
    plus normalisation amortised over the pass."""
    comparisons = float(n_pixels) * float(max(n_unique, 1))
    return comparisons * (2.0 * bands) + 3.0 * n_pixels * bands


def merge_flops(total_members: int, merged_unique: int, bands: int, *,
                rescreen: bool = False) -> float:
    """FLOP estimate of merging the per-partition unique sets.

    A plain union only copies ``total_members * bands`` values; the optional
    re-screening merge costs a full screening pass over the concatenation.
    """
    if rescreen:
        return screening_flops(total_members, merged_unique, bands)
    return float(total_members) * bands


__all__ = [
    "UniqueSetBuffer",
    "normalize_rows",
    "spectral_angles",
    "screen_unique_set",
    "screen_unique_set_reference",
    "merge_unique_sets",
    "screening_flops",
    "merge_flops",
]
