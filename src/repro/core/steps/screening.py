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

* pixels are read **in place, band-major**: each chunk is a ``(bands,
  chunk)`` view of the stored samples, with no float64 copy of the
  sub-cube.  Every float64 unit row (first pixel, refined rows, survivors)
  comes from ``_unit_rows``, which sums squares band by band in stored
  order whatever the caller's layout or dtype -- the bits
  ``normalize_rows`` gives an F-order matrix;
* members live in a :class:`UniqueSetBuffer`, normalised once, with a
  float32 mirror and a coverage count each;
* the admission test is **hot first** (``_apart_rows``): up to
  ``_HOT_MEMBERS`` members, one product against them all; past it, the
  chunk against the ``_HOT_MEMBERS`` members of highest count, then only
  the rows none of them covers against the rest (the busiest 32 of ~130
  members cover 81-86 % of a HYDICE sub-cube).  Counts are kept only while
  a later chunk will read them;
* the test runs in the **cosine domain**: a candidate survives when every
  cosine is below ``T``, the arccos-calibrated ``cos(angle_threshold)``
  (``_cosine_admission_threshold``), which is the angle test exactly;
* each product is **certified in float32, refined in float64**
  (``_settle``): ``G = m32 . x32`` on the raw float32 chunk settles
  "below" where ``G < (T - delta) |x|`` and "covered" where ``G >= (T +
  delta) |x|`` (``|x|`` the float32 norm).  A row with any other entry --
  NaN, or a norm outside ``(2**-30, 2**60)`` -- is recomputed whole in the
  reference arithmetic (``_refine``; a NaN cosine is not below), counts
  included, so every decision is the float64 one.  ~2 % of a HYDICE
  sub-cube's rows are refined;
* ``delta = 2 g + 8 u`` (``_certify_margin``; 8.3e-6 at 64 bands), ``u =
  2**-24``, ``g = gamma_{n+2} = (n + 2) u / (1 - (n + 2) u)``, ``n =
  bands`` (Higham, *Accuracy and Stability of Numerical Algorithms*, §3.1)
  bounds, in any summation order, FMA or not: the float32 inner product
  (``gamma_n |m| |x|``), the float32 casts of members and float64 inputs
  (``u`` each), the float32 norm (``gamma_n / 2 + u``), ``T -+ delta`` and
  its product with the norm (``u`` each) and the float64 reference cosine
  (far below ``u``);
* survivors are resolved by a blocked greedy walk
  (``eliminate_survivors``) on their float64 unit rows: one Gram matrix
  settles the order inside a block, one GEMM against its pivots removes
  every later survivor they cover.

:func:`screen_unique_set_reference` retains the seed implementation verbatim.
It is the ground truth the equivalence property tests
(``tests/test_screening_kernel_property.py``) compare the incremental kernel
against: both make the same greedy decisions, so their unique sets (and
every composite derived from them) are bit-identical under the default
float64 arithmetic -- asserted across random scenes, thresholds,
chunkings, strides and caps.  The one theoretical exception is a candidate
whose cosine to a member lands within one rounding unit (~1e-16) of the
threshold: the seed kernel evaluates that cosine twice in different BLAS
call shapes (chunk matrix, then per-row recheck) and may see two
roundings, so no single-evaluation kernel can match it on such inputs.
The two-tier test and the refinement add call shapes of their own (hot
members by chunk, cold members by uncovered rows, refined rows alone), and
BLAS may round an element of a sub-product differently in the last bit
from the same element of the full product; only such a boundary cosine
could then resolve differently.  No finite-precision scene sits on that
boundary by accident.
"""

from __future__ import annotations

import functools
from typing import List, Sequence

import numpy as np

from ...config import require_compute

#: Numerical floor used when normalising pixel vectors; prevents division by
#: zero for dead detector pixels.  Such an all-zero pixel has no direction,
#: so screening defines its angles: two zero vectors are at angle 0, a zero
#: and a non-zero vector at pi/2.  The first zero pixel thus covers every
#: later one and nothing else (below a pi/2 threshold), in
#: :func:`screen_unique_set`, :func:`screen_unique_set_reference` and
#: ``merge_unique_sets(rescreen=True)`` alike.
_NORM_FLOOR = 1e-12


def normalize_rows(matrix: np.ndarray) -> np.ndarray:
    """Return ``matrix`` with every row scaled to unit Euclidean norm, in
    float64.  Layout-dependent: numpy sums a C-contiguous row pairwise, an
    F-order one band by band.  Only the seed kernel and
    :func:`spectral_angles` use it (``_unit_rows`` pins the order)."""
    matrix = np.asarray(matrix, dtype=np.float64)
    # repro: allow[RPL006] the seed kernel's arithmetic, layout and all
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, _NORM_FLOOR)


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
        ``alpha(i, j) = arccos(x . y / (|x||y|))`` evaluated for all pairs,
        with two all-zero vectors at angle 0 (see :data:`_NORM_FLOOR`).
    """
    cand = normalize_rows(candidates)
    ref = normalize_rows(references)
    cos = np.clip(cand @ ref.T, -1.0, 1.0)
    cos[np.ix_(~cand.any(axis=1), ~ref.any(axis=1))] = 1.0
    return np.arccos(cos)


class UniqueSetBuffer:
    """Grow-by-doubling store of already-normalised unique-set members.

    The buffer owns a preallocated ``(capacity, bands)`` array; admitted
    members are written in place and read back through :attr:`view` -- a
    zero-copy slice -- so the screening loop never re-stacks or
    re-normalises the unique set.  Doubling keeps amortised admission cost
    O(bands).  Next to each member it keeps its float32 copy
    (:attr:`view32`) and a coverage count (:attr:`counts`, zero on
    admission) that the screening loop raises by the candidates the member
    covered; the counts pick the hot tier of the admission test.
    """

    def __init__(self, bands: int, *, capacity: int = 256) -> None:
        if bands < 1:
            raise ValueError("bands must be >= 1")
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self._data = np.empty((capacity, bands), dtype=np.float64)
        self._data32 = np.empty((capacity, bands), dtype=np.float32)
        self._counts = np.zeros(capacity, dtype=np.int64)
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

    @property
    def view32(self) -> np.ndarray:
        """Zero-copy ``(members, bands)`` float32 mirror of :attr:`view`."""
        return self._data32[: self._count]

    @property
    def counts(self) -> np.ndarray:
        """Zero-copy, writable ``(members,)`` view of the coverage counts."""
        return self._counts[: self._count]

    def append(self, rows: np.ndarray) -> None:
        """Admit ``rows`` (already normalised, ``(k, bands)``)."""
        rows = np.atleast_2d(rows)
        need = self._count + rows.shape[0]
        if need > self._data.shape[0]:
            capacity = self._data.shape[0]
            while capacity < need:
                capacity *= 2
            for name in ("_data", "_data32", "_counts"):
                old = getattr(self, name)
                grown = np.zeros((capacity,) + old.shape[1:], dtype=old.dtype)
                grown[: self._count] = old[: self._count]
                setattr(self, name, grown)
        self._data[self._count: need] = rows
        self._data32[self._count: need] = rows
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


def _validate_max_unique(max_unique: int | None) -> None:
    if max_unique is not None and max_unique < 1:
        raise ValueError(f"max_unique must be None or >= 1, got {max_unique}")


def _validate_screening_args(pixels: np.ndarray, angle_threshold: float,
                             sample_stride: int, chunk_size: int,
                             max_unique: int | None) -> None:
    if pixels.ndim != 2:
        raise ValueError(f"pixels must be 2-D (pixels, bands); got shape {pixels.shape}")
    if not 0.0 < angle_threshold < np.pi:
        raise ValueError("angle_threshold must be in (0, pi)")
    _validate_max_unique(max_unique)
    if sample_stride < 1:
        raise ValueError(f"sample_stride must be >= 1, got {sample_stride}")
    if chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")


#: Members in the hot tier of the admission test (:func:`_apart_rows`): the
#: ones that have covered the most candidates so far.  Measured, median
#: screening ms per request of three HYDICE scenes at seeds 0-2, two
#: sub-cubes each (2-vCPU host, one BLAS thread), hot size -> 128x128x64 /
#: 256x256x64: 8 -> 15.0/60.5, 16 -> 12.4/48.1, 24 -> 11.5/43.8,
#: 32 -> 11.6/47.6, 48 -> 11.7/45.1, 64 -> 12.8/48.1 (one GEMM against
#: every member, in another run: 14.3/61.9).  24-48 sit within the host's
#: run-to-run noise.
_HOT_MEMBERS = 32

#: Row norms the float32 test trusts (beyond, squares leave float32's range).
_TRUSTED_NORMS = (2.0 ** -30, 2.0 ** 60)


def _certify_margin(bands: int) -> float:
    """delta at ``bands`` bands (derived in the module docstring)."""
    u = 2.0 ** -24
    g = (bands + 2) * u / (1.0 - (bands + 2) * u)
    return 2.0 * g + 8.0 * u


def _unit_rows(slab: np.ndarray) -> np.ndarray:
    """Float64 unit rows of a ``(bands, k)`` slab of any dtype or layout,
    as the ``(k, bands)`` transpose of a band-major array."""
    slab = np.array(slab, dtype=np.float64, order="C")
    norms = np.sqrt(np.add.reduce(slab * slab, axis=0))  # repro: ordered: C slab, band by band
    slab /= np.maximum(norms, _NORM_FLOOR)
    return slab.T


def _refine(members: np.ndarray, slab: np.ndarray) -> np.ndarray:
    """The float64 branch: ``(members, k)`` cosines of ``slab``'s columns."""
    return members @ _unit_rows(slab).T


def _settle(members32: np.ndarray, members: np.ndarray, x32: np.ndarray,
            limits: np.ndarray, slab: np.ndarray, cos_threshold,
            columns=None):
    """``(below, covered)``: the ``(members, rows)`` masks of cosines below
    ``cos_threshold`` and at or above it (a NaN cosine is neither).

    ``x32`` and the ``(2, rows)`` float32 ``limits`` hold the ``columns``
    of the chunk ``slab`` (all by default).  A float32 cosine clearly on
    one side of its row's limits is settled there; a row left with an
    unsettled one is recomputed whole in float64 (:func:`_refine`).
    """
    cosines = members32 @ x32
    below = cosines < limits[0]
    covered = cosines >= limits[1]
    unsure = np.nonzero(~(below | covered).all(axis=0))[0]
    if unsure.size:
        picked = unsure if columns is None else columns[unsure]
        exact = _refine(members, np.take(slab, picked, axis=1))
        below[:, unsure] = exact < cos_threshold
        covered[:, unsure] = exact >= cos_threshold
    return below, covered


def _apart_rows(slab: np.ndarray, x32: np.ndarray, limits: np.ndarray,
                buffer: UniqueSetBuffer, cos_threshold, *,
                count: bool) -> np.ndarray:
    """Indices of the chunk columns whose cosine to every member of
    ``buffer`` is below ``cos_threshold`` (a NaN cosine is not below).

    ``slab`` is the chunk as stored, ``x32`` its float32 values and
    ``limits`` the per-column bounds of :func:`_settle`.  The test runs in
    two tiers: the whole chunk against the hot members -- the
    :data:`_HOT_MEMBERS` highest coverage counts, ties in member order --
    then only the columns none of them covers against the cold rest, if
    any.  With
    ``count``, each member's count grows by the columns its cosine reached
    the threshold for (in the cold tier: of the columns it saw).
    """
    counts = buffer.counts
    # A stable sort, not argpartition: ties must not depend on numpy's
    # SIMD selection path.
    order = np.argsort(-counts, kind="stable")
    hot, cold = order[:_HOT_MEMBERS], order[_HOT_MEMBERS:]
    below, covered = _settle(buffer.view32[hot], buffer.view[hot], x32,
                             limits, slab, cos_threshold)
    rows = np.nonzero(below.all(axis=0))[0]
    if count:
        counts[hot] += covered.sum(axis=1, dtype=np.int32)
    if rows.size == 0 or cold.size == 0:
        return rows
    below, covered = _settle(buffer.view32[cold], buffer.view[cold],
                             np.take(x32, rows, axis=1), limits[:, rows],
                             slab, cos_threshold, rows)
    if count:
        counts[cold] += covered.sum(axis=1, dtype=np.int32)
    return rows[below.all(axis=0)]


#: Still-alive survivors :func:`eliminate_survivors` settles per Gram
#: matrix.  Measured, median screening ms per request of the
#: pipe_small_overlap / socket_killstorm / resilient_repl2 scenes (benchmark
#: seeds 0-2, 2-vCPU host, one BLAS thread): 16 -> 3.7/20.8/20.4,
#: 32 -> 3.1/19.8/19.4, 64 -> 3.1/22.3/22.5, 128 -> 3.4/24.8/24.2,
#: 256 -> 3.9/24.6/24.5; one pivot at a time: 7.3/31/30.  Flat from 32 to
#: 128 within the host's ~15 % run-to-run noise, worse at both ends.
_ELIMINATION_BLOCK = 64


def eliminate_survivors(survivors: np.ndarray, survivor_rows: np.ndarray,
                        cos_threshold, *, room: int | None = None):
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


def _drop_covered_zeros(units: np.ndarray, rows: np.ndarray,
                        zero_member: bool):
    """``units`` and ``rows`` without the all-zero rows an earlier zero
    vector covers: every one if a member is zero, else all but the first.

    The float64 arithmetic puts two zero unit rows at cosine 0; this is
    where they are at angle 0 instead (see :data:`_NORM_FLOOR`).
    """
    zeros = np.flatnonzero(~units.any(axis=1))
    covered = zeros if zero_member else zeros[1:]
    if covered.size == 0:
        return units, rows
    keep = np.ones(rows.size, dtype=bool)
    keep[covered] = False
    return units[keep], rows[keep]


def screen_unique_set(pixels: np.ndarray, angle_threshold: float, *,
                      max_unique: int | None = None, sample_stride: int = 1,
                      chunk_size: int = 2048, compute_dtype=None,
                      compute: str = "numpy") -> np.ndarray:
    """Greedy spectral screening of a ``(pixels, bands)`` matrix (step 1).

    Parameters
    ----------
    pixels:
        Pixel-vector matrix of one image partition, float32 or float64; a
        ``.T`` of the cube's band-major rows is read in place.
    angle_threshold:
        Minimum angle (radians) a candidate must subtend with *every* current
        unique-set member to be admitted.
    max_unique:
        Optional cap on the unique-set size (safety valve for noisy data);
        ``None`` or >= 1.
    sample_stride:
        Optional spatial sub-sampling of the candidates (must be >= 1).
    chunk_size:
        Number of candidates examined per vectorised block (must be >= 1).
        Each block is tested hot first (see the module docstring): against
        the busiest members, then only its uncovered rows against the rest.
    compute_dtype:
        Ignored: every decision is the float64 one whatever the request's
        compute dtype, which selects the projection's precision only.
    compute:
        Compute backend name, checked against
        :func:`repro.core.kernels.compute_names`; the one tier runs
        :func:`eliminate_survivors`.

    Returns
    -------
    ndarray
        ``(unique, bands)`` float64 array of unique pixel vectors.
    """
    require_compute(compute)
    pixels = np.asarray(pixels)
    if pixels.dtype != np.float32:
        pixels = np.asarray(pixels, dtype=np.float64)
    _validate_screening_args(pixels, angle_threshold, sample_stride, chunk_size,
                             max_unique)
    # Band-major, as the cube stores it: every chunk below is a view.
    slab = pixels[::sample_stride].T
    bands, n_pixels = slab.shape
    if n_pixels == 0:
        return np.empty((0, bands), dtype=np.float64)

    # "Every angle > threshold" is exactly "every cosine < T"; the float32
    # limits sit delta either side of T, times each row's norm.
    cos_threshold = np.float64(_cosine_admission_threshold(angle_threshold))
    delta = _certify_margin(bands)
    margins = np.array([cos_threshold - delta, cos_threshold + delta],
                       dtype=np.float32)

    buffer = UniqueSetBuffer(bands)
    buffer.append(_unit_rows(slab[:, :1]))
    indices: List[np.ndarray] = [np.zeros(1, dtype=np.intp)]
    zero_member = not buffer.view[0].any()

    for start in range(1, n_pixels, chunk_size):
        if max_unique is not None and len(buffer) >= max_unique:
            break
        chunk = slab[:, start:start + chunk_size]
        with np.errstate(over="ignore", invalid="ignore"):
            x32 = chunk.astype(np.float32, copy=False)
            norms = np.sqrt(np.einsum("ij,ij->j", x32, x32))
            # A NaN limit settles nothing: such rows go to float64 whole.
            norms[~((norms > _TRUSTED_NORMS[0]) & (norms < _TRUSTED_NORMS[1]))] = np.nan
            limits = margins[:, None] * norms
        survivor_rows = _apart_rows(
            chunk, x32, limits, buffer, cos_threshold,
            count=start + chunk_size < n_pixels)
        if survivor_rows.size == 0:
            continue
        units, survivor_rows = _drop_covered_zeros(
            _unit_rows(np.take(chunk, survivor_rows, axis=1)), survivor_rows,
            zero_member)
        # Survivors may still be mutually similar: resolve them greedily, in
        # row order.
        room = (None if max_unique is None else max_unique - len(buffer))
        admitted, admitted_rows = eliminate_survivors(
            units, survivor_rows, cos_threshold, room=room)
        if admitted.shape[0]:
            buffer.append(admitted)
            indices.append(start + admitted_rows)
            zero_member = zero_member or not admitted.any(axis=1).all()
    return np.asarray(slab.T[np.concatenate(indices)], dtype=np.float64)


def screen_unique_set_reference(pixels: np.ndarray, angle_threshold: float, *,
                                max_unique: int | None = None,
                                sample_stride: int = 1,
                                chunk_size: int = 2048) -> np.ndarray:
    """The seed screening kernel, retained verbatim as ground truth (its
    angles, from :func:`spectral_angles`, put two zero vectors at 0).

    Re-``vstack``s and re-normalises the whole unique set on every chunk and
    resolves chunk survivors with a per-row Python loop.  The equivalence
    property tests assert :func:`screen_unique_set` reproduces its output
    bit for bit (see the module docstring for the one-ulp boundary caveat);
    the incremental kernel's own cost is the ``core.steps.screening.s_p50``
    metric of ``benchmarks/e2e``.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    _validate_screening_args(pixels, angle_threshold, sample_stride, chunk_size,
                             max_unique)
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
                      compute_dtype=None,
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
      for the ablation benchmarks.  The float64 stack is screened by the
      one kernel, its float32 pass reading a float32 cast of each chunk;
      ``compute_dtype`` is ignored, as by :func:`screen_unique_set`.
    """
    _validate_max_unique(max_unique)
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
                             compute=compute)


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
