"""Property suite for the incremental screening kernel (PR 5 tentpole).

Two families of invariants:

* **cover invariants** -- any greedy screening output must be a valid
  angular cover of its input: members are pairwise separated by more than
  the threshold, and every sampled pixel lies within the threshold of some
  member (or is one);
* **seed equivalence** -- the incremental cosine-domain kernel
  (:func:`screen_unique_set`) makes bit-identical decisions to the retained
  seed kernel (:func:`screen_unique_set_reference`) across random scenes,
  thresholds, chunk sizes, strides and caps.  This is the property the
  tentpole optimisation is allowed to rely on everywhere else (every engine
  and backend shares the one kernel).
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ScreeningConfig
from repro.core.partition import (decompose, extract_subcube,
                                  subcube_pixel_matrix)
from repro.core.steps import screening as screening_module
from repro.core.steps.screening import (_HOT_MEMBERS, UniqueSetBuffer,
                                        _certify_margin,
                                        _cosine_admission_threshold,
                                        _unit_rows, merge_unique_sets,
                                        normalize_rows, screen_unique_set,
                                        screen_unique_set_reference,
                                        spectral_angles)
from repro.data.hydice import HydiceConfig, HydiceGenerator

COMMON_SETTINGS = dict(max_examples=40, deadline=None)
#: The hot-tier scenes run the seed kernel's per-row loop over 300-600 px.
HOT_TIER_SETTINGS = dict(max_examples=25, deadline=None)


def pixel_matrices(min_pixels=4, max_pixels=400, min_bands=3, max_bands=24):
    """Strategy producing low-rank-plus-noise (pixels, bands) matrices,
    the structure hyper-spectral scenes actually have (a few materials
    mixed everywhere), so the unique set is neither trivial nor everything."""
    return st.tuples(
        st.integers(min_pixels, max_pixels),
        st.integers(min_bands, max_bands),
        st.integers(0, 2**31 - 1),
    ).map(lambda args: _make_pixels(*args))


def _make_pixels(n, bands, seed):
    rng = np.random.default_rng(seed)
    latent = rng.random((n, min(4, bands)))
    mixing = rng.random((min(4, bands), bands)) + 0.05
    return latent @ mixing + 0.01 + 0.05 * rng.random((n, bands))


def many_material_scenes():
    """Strategy producing 300-600 pixel scenes of 8-16 materials plus noise,
    paired with a small threshold and chunk size: the unique set passes
    ``_HOT_MEMBERS`` members with chunks still to come, so the two-tier
    admission test runs (``_members_before_last_chunk`` checks it)."""
    return st.tuples(
        st.integers(300, 600),
        st.integers(12, 24),
        st.integers(8, 16),
        st.integers(0, 2**31 - 1),
    ).map(lambda args: _make_scene(*args))


def _make_scene(n, bands, materials, seed):
    rng = np.random.default_rng(seed)
    signatures = rng.random((materials, bands)) + 0.05
    dominant = rng.integers(0, materials, n)
    abundances = 0.15 * rng.random((n, materials))
    abundances[np.arange(n), dominant] += 1.0
    return abundances @ signatures + 0.03 * rng.random((n, bands))


HOT_TIER_THRESHOLDS = st.floats(0.01, 0.04)
HOT_TIER_CHUNKS = st.integers(8, 32)


def _admitted_rows(pixels, unique):
    """Row index in ``pixels`` of each member of ``unique`` (members are
    pixel rows; a duplicated pixel is admitted at its first occurrence)."""
    return (unique[:, None, :] == pixels[None, :, :]).all(axis=2).argmax(axis=1)


def _members_before_last_chunk(pixels, unique, chunk_size):
    """Members admitted before the last chunk of an unstrided screening."""
    last_start = list(range(1, len(pixels), chunk_size))[-1]
    return int((_admitted_rows(pixels, unique) < last_start).sum())


class TestSeedEquivalence:
    @given(pixels=pixel_matrices(), threshold=st.floats(0.01, 0.6),
           chunk_size=st.integers(1, 500))
    @settings(**COMMON_SETTINGS)
    def test_bit_identical_to_seed_kernel(self, pixels, threshold, chunk_size):
        new = screen_unique_set(pixels, threshold, chunk_size=chunk_size)
        seed = screen_unique_set_reference(pixels, threshold,
                                           chunk_size=chunk_size)
        np.testing.assert_array_equal(new, seed)

    @given(pixels=pixel_matrices(), threshold=st.floats(0.01, 0.4),
           stride=st.integers(1, 5), cap=st.integers(1, 40))
    @settings(**COMMON_SETTINGS)
    def test_bit_identical_under_stride_and_cap(self, pixels, threshold,
                                                stride, cap):
        new = screen_unique_set(pixels, threshold, sample_stride=stride,
                                max_unique=cap)
        seed = screen_unique_set_reference(pixels, threshold,
                                           sample_stride=stride,
                                           max_unique=cap)
        np.testing.assert_array_equal(new, seed)

    @given(pixels=pixel_matrices(max_pixels=200),
           threshold=st.floats(0.02, 0.4),
           chunks=st.tuples(st.integers(1, 64), st.integers(65, 4096)))
    @settings(**COMMON_SETTINGS)
    def test_chunk_size_never_changes_the_output(self, pixels, threshold, chunks):
        small, large = chunks
        np.testing.assert_array_equal(
            screen_unique_set(pixels, threshold, chunk_size=small),
            screen_unique_set(pixels, threshold, chunk_size=large))

    def test_degenerate_rows_match_seed(self):
        # Zero rows, duplicated rows and axis-aligned rows exercise the norm
        # floor and the exact-cosine edges of the admission test; past pi/2
        # a zero and a non-zero vector cover each other.
        pixels = np.zeros((12, 5))
        pixels[2] = [1, 0, 0, 0, 0]
        pixels[5] = [0, 1, 0, 0, 0]
        pixels[8] = [1, 0, 0, 0, 0]
        pixels[11] = [2, 0, 0, 0, 0]
        for threshold in (0.05, 0.5, 1.2, 2.0):
            np.testing.assert_array_equal(
                screen_unique_set(pixels, threshold, chunk_size=3),
                screen_unique_set_reference(pixels, threshold, chunk_size=3))

    def test_exact_boundary_threshold_matches_seed(self):
        # Regression: cos() and arccos() round independently, so a naive
        # cos(threshold) constant disagrees with the seed kernel on
        # exact-boundary cosines -- cos(pi/2) is 6.1e-17, not the 0.0 whose
        # arccos equals float pi/2, so zero rows (cosine exactly 0 to every
        # member) were admitted by the cosine test and rejected by the seed.
        # The admission threshold is calibrated against arccos itself.
        pixels = np.zeros((3, 4))
        pixels[0] = [1, 0, 0, 0]
        for threshold in (np.pi / 2, np.nextafter(np.pi / 2, 0.0), 1.0):
            np.testing.assert_array_equal(
                screen_unique_set(pixels, threshold),
                screen_unique_set_reference(pixels, threshold))
        # Exactly orthogonal members sit on the same boundary at pi/2.
        ortho = np.vstack([np.eye(4), np.zeros((2, 4)), np.eye(4)])
        for threshold in (np.pi / 2, 0.3):
            np.testing.assert_array_equal(
                screen_unique_set(ortho, threshold, chunk_size=2),
                screen_unique_set_reference(ortho, threshold, chunk_size=2))

    @pytest.mark.parametrize("rows, cols, bands", [(64, 64, 32),
                                                   (128, 128, 64),
                                                   (256, 256, 64)])
    def test_workload_scale_sub_cube_matches_seed_kernel(self, rows, cols,
                                                        bands):
        # The hypothesis scenes stop at 400 pixels x 24 bands; a HYDICE
        # sub-cube at these sizes sends ~2,000 survivors per chunk through
        # the blocked elimination.  Default screening on the first sub-cube
        # of a two-worker request (the seed kernel's per-row loop makes each
        # ~0.3 s).  The seed is one no benchmark workload generates (those
        # use seed * 1000 + cube, cube < 12).
        cube = HydiceGenerator(HydiceConfig(bands=bands, rows=rows, cols=cols,
                                            seed=424242)).generate()
        screening = ScreeningConfig()
        block = subcube_pixel_matrix(
            extract_subcube(cube, decompose(cube.rows, 2)[0]))
        np.testing.assert_array_equal(
            screen_unique_set(block, screening.angle_threshold,
                              max_unique=screening.max_unique),
            screen_unique_set_reference(block, screening.angle_threshold,
                                        max_unique=screening.max_unique))


class TestHotTier:
    """The two-tier admission test past ``_HOT_MEMBERS`` members."""

    @given(pixels=many_material_scenes(), threshold=HOT_TIER_THRESHOLDS,
           chunk_size=HOT_TIER_CHUNKS)
    @settings(**HOT_TIER_SETTINGS)
    def test_bit_identical_to_seed_kernel(self, pixels, threshold, chunk_size):
        seed = screen_unique_set_reference(pixels, threshold,
                                           chunk_size=chunk_size)
        # The branch is reached: at least one chunk screens against more
        # than _HOT_MEMBERS members.
        assert _members_before_last_chunk(pixels, seed,
                                          chunk_size) > _HOT_MEMBERS
        np.testing.assert_array_equal(
            screen_unique_set(pixels, threshold, chunk_size=chunk_size), seed)

    @given(pixels=many_material_scenes(), threshold=HOT_TIER_THRESHOLDS,
           chunk_size=HOT_TIER_CHUNKS, pick=st.integers(0, 2**31 - 1))
    @settings(**HOT_TIER_SETTINGS)
    def test_cap_landing_in_the_cold_tier_matches_seed(self, pixels, threshold,
                                                       chunk_size, pick):
        full = screen_unique_set_reference(pixels, threshold,
                                           chunk_size=chunk_size)
        rows = _admitted_rows(pixels, full)
        starts = np.arange(1, len(pixels), chunk_size)
        # Members at the start of the chunk that admitted each member; a cap
        # of (index + 1) lands in that chunk, so pick a member whose chunk
        # started above _HOT_MEMBERS.
        chunk = np.maximum(rows - 1, 0) // chunk_size
        at_start = np.searchsorted(rows, starts[chunk])
        late = np.nonzero(at_start > _HOT_MEMBERS)[0]
        assert late.size
        cap = int(late[pick % late.size]) + 1
        new = screen_unique_set(pixels, threshold, chunk_size=chunk_size,
                                max_unique=cap)
        assert len(new) == cap
        np.testing.assert_array_equal(
            new, screen_unique_set_reference(pixels, threshold,
                                             chunk_size=chunk_size,
                                             max_unique=cap))

    @given(pixels=many_material_scenes(), threshold=HOT_TIER_THRESHOLDS,
           chunk_size=HOT_TIER_CHUNKS)
    @settings(**HOT_TIER_SETTINGS)
    def test_float32_request_gets_float64_set(self, pixels, threshold,
                                              chunk_size):
        # compute_dtype selects the projection's precision only: a float32
        # request screens with the same, float64-exact, decisions.
        unique = screen_unique_set(pixels, threshold, chunk_size=chunk_size,
                                   compute_dtype="float32")
        assert _members_before_last_chunk(pixels, unique,
                                          chunk_size) > _HOT_MEMBERS
        np.testing.assert_array_equal(
            unique, screen_unique_set(pixels, threshold, chunk_size=chunk_size))

    @given(pixels=many_material_scenes(), threshold=HOT_TIER_THRESHOLDS,
           chunk_size=HOT_TIER_CHUNKS, seed=st.integers(0, 2**31 - 1))
    @settings(**HOT_TIER_SETTINGS)
    def test_duplicated_pixels_match_seed(self, pixels, threshold, chunk_size,
                                          seed):
        # The second copy repeats every member: cosine 1.0 (to rounding).
        rng = np.random.default_rng(seed)
        repeated = np.vstack([pixels, pixels[rng.permutation(len(pixels))]])
        new = screen_unique_set(repeated, threshold, chunk_size=chunk_size)
        np.testing.assert_array_equal(
            new, screen_unique_set_reference(repeated, threshold,
                                             chunk_size=chunk_size))
        np.testing.assert_array_equal(
            new, screen_unique_set(pixels, threshold, chunk_size=chunk_size))

    def test_equal_coverage_counts_give_one_answer(self):
        # 48 mutually orthogonal members, then three copies of them: the
        # first two-tier chunk sees all 48 counts tied at zero, and after
        # each copy (three chunks of 16) every member has covered one more
        # pixel, so the counts tie again.
        members = np.eye(48)
        pixels = np.vstack([members] + [members[::-1]] * 3)
        first = screen_unique_set(pixels, 0.3, chunk_size=16)
        np.testing.assert_array_equal(
            first, screen_unique_set(pixels, 0.3, chunk_size=16))
        np.testing.assert_array_equal(first, members)
        np.testing.assert_array_equal(
            first, screen_unique_set_reference(pixels, 0.3, chunk_size=16))

    def test_nan_first_pixel_gives_a_one_row_set(self):
        pixels = _make_scene(400, 16, 12, 7)
        pixels[0, 3] = np.nan
        for screen in (screen_unique_set, screen_unique_set_reference):
            unique = screen(pixels, 0.02, chunk_size=16)
            assert unique.shape == (1, 16)
            assert np.isnan(unique[0, 3])

    @given(pixels=many_material_scenes(), threshold=HOT_TIER_THRESHOLDS,
           chunk_size=HOT_TIER_CHUNKS, seed=st.integers(0, 2**31 - 1))
    @settings(**HOT_TIER_SETTINGS)
    def test_later_nan_pixels_are_never_admitted(self, pixels, threshold,
                                                 chunk_size, seed):
        rng = np.random.default_rng(seed)
        rows = rng.choice(np.arange(1, len(pixels)), size=12, replace=False)
        poisoned = pixels.copy()
        poisoned[rows, rng.integers(0, pixels.shape[1], rows.size)] = np.nan
        new = screen_unique_set(poisoned, threshold, chunk_size=chunk_size)
        assert not np.isnan(new).any()
        np.testing.assert_array_equal(
            new, screen_unique_set_reference(poisoned, threshold,
                                             chunk_size=chunk_size))
        # A rejected NaN row changes nothing else.
        np.testing.assert_array_equal(
            new, screen_unique_set(np.delete(pixels, rows, axis=0), threshold,
                                   chunk_size=chunk_size))


class TestDeadPixels:
    """All-zero ("dead detector") pixels: two zero vectors are at angle 0,
    a zero and a non-zero vector at pi/2, so the first zero pixel covers
    every later one and nothing else."""

    @given(pixels=pixel_matrices(), threshold=st.floats(0.01, 0.6),
           chunk_size=st.integers(1, 500), zeros=st.integers(1, 40),
           seed=st.integers(0, 2**31 - 1))
    @settings(**COMMON_SETTINGS)
    def test_zero_pixels_give_one_member_and_move_nothing_else(
            self, pixels, threshold, chunk_size, zeros, seed):
        rng = np.random.default_rng(seed)
        rows = rng.choice(len(pixels), size=min(zeros, len(pixels)),
                          replace=False)
        dead = pixels.copy()
        dead[rows] = 0.0
        new = screen_unique_set(dead, threshold, chunk_size=chunk_size)
        np.testing.assert_array_equal(
            new, screen_unique_set_reference(dead, threshold,
                                             chunk_size=chunk_size))
        zero = ~new.any(axis=1)
        assert zero.sum() == 1
        # The live pixels screen as if the dead ones were not there.
        np.testing.assert_array_equal(
            new[~zero], screen_unique_set(np.delete(pixels, rows, axis=0),
                                          threshold, chunk_size=chunk_size))

    def test_one_spectrum_cube_with_dead_rows(self):
        # Four sub-cubes: one member each, plus one for the zeroed top rows
        # of the first; an all-zero cube has one zero member per sub-cube.
        import repro
        from repro.data.cube import HyperspectralCube

        wavelengths = np.linspace(400.0, 2500.0, 8)
        flat = np.ones((8, 32, 32)) * np.arange(1.0, 9.0)[:, None, None]
        dead_rows = flat.copy()
        dead_rows[:, :4] = 0.0
        for data, members in ((flat, 4), (dead_rows, 5),
                              (np.zeros_like(flat), 4)):
            cube = HyperspectralCube(data, wavelengths)
            assert repro.fuse(cube, subcubes=4).unique_set_size == members

    def test_rescreening_merge_keeps_one_zero_member(self):
        sets = [np.vstack([np.eye(4)[i], np.zeros(4)]) for i in range(3)]
        merged = merge_unique_sets(sets, 0.1, rescreen=True)
        assert (~merged.any(axis=1)).sum() == 1
        np.testing.assert_array_equal(merged[merged.any(axis=1)],
                                      np.eye(4)[:3])
        plain = merge_unique_sets(sets, 0.1)
        assert (~plain.any(axis=1)).sum() == 3


def _layouts(pixels32):
    """The same float32 pixels in every form a caller may hand over: C and
    F order, a strided band-major view (what the engines pass: the ``.T``
    of a cube's row range), and float64 copies of the float32 values."""
    bands, count = pixels32.shape[1], pixels32.shape[0]
    stored = np.zeros((bands, count + 7), dtype=np.float32)
    stored[:, 3:3 + count] = pixels32.T
    pixels64 = pixels32.astype(np.float64)
    return {"C float32": np.ascontiguousarray(pixels32),
            "F float32": np.asfortranarray(pixels32),
            "band-major view": stored[:, 3:3 + count].T,
            "C float64": np.ascontiguousarray(pixels64),
            "F float64": np.asfortranarray(pixels64)}


class TestPinnedOrder:
    """One normalisation order, whatever the caller's layout or dtype."""

    @given(pixels=pixel_matrices(min_bands=8, max_bands=40),
           threshold=st.floats(0.01, 0.6), chunk_size=st.integers(1, 500))
    @settings(**COMMON_SETTINGS)
    def test_layout_and_dtype_give_the_same_bits(self, pixels, threshold,
                                                 chunk_size):
        copies = _layouts(pixels.astype(np.float32))
        want = screen_unique_set(copies["band-major view"], threshold,
                                 chunk_size=chunk_size)
        # Normalised members: the seed arithmetic on the F-order float64
        # matrix every engine used to pass, bit for bit.
        units = normalize_rows(copies["F float64"])
        for name, copy in copies.items():
            np.testing.assert_array_equal(
                screen_unique_set(copy, threshold, chunk_size=chunk_size),
                want, err_msg=name)
            np.testing.assert_array_equal(_unit_rows(copy.T), units,
                                          err_msg=name)


def _planted_scene(bands, count, seed, threshold):
    """A member, then ``count`` pixels whose cosine to it lies within half
    of delta of the admission threshold, at random scales."""
    rng = np.random.default_rng(seed)
    member = rng.random(bands) + 0.1
    unit = member / np.linalg.norm(member)
    cos_threshold = _cosine_admission_threshold(threshold)
    delta = _certify_margin(bands)
    rows = [member]
    for _ in range(count):
        away = rng.standard_normal(bands)
        away -= (away @ unit) * unit
        away /= np.linalg.norm(away)
        cosine = cos_threshold + delta * rng.uniform(-0.5, 0.5)
        rows.append(rng.uniform(0.5, 2.0)
                    * (cosine * unit + np.sqrt(1.0 - cosine ** 2) * away))
    return np.vstack(rows)


class TestFilterAndRefine:
    """Cosines within delta of the threshold are settled in float64."""

    @staticmethod
    @contextlib.contextmanager
    def refined():
        """Count the pixels the float64 branch recomputes."""
        seen = []
        real = screening_module._refine

        def spy(members, slab):
            seen.append(slab.shape[1])
            return real(members, slab)

        with mock.patch.object(screening_module, "_refine", spy):
            yield seen

    @given(bands=st.integers(3, 64), count=st.integers(1, 200),
           seed=st.integers(0, 2**31 - 1), threshold=st.floats(0.01, 0.6),
           chunk_size=st.integers(1, 500))
    @settings(**COMMON_SETTINGS)
    def test_near_threshold_cosines_take_the_float64_branch(
            self, bands, count, seed, threshold, chunk_size):
        pixels = _planted_scene(bands, count, seed, threshold)
        for dtype in (np.float64, np.float32):
            scene = pixels.astype(dtype)
            with self.refined() as refined:
                # One chunk: every pixel meets only the first, within delta.
                screen_unique_set(scene, threshold, chunk_size=count)
            assert sum(refined) == count
            np.testing.assert_array_equal(
                screen_unique_set(scene, threshold, chunk_size=chunk_size),
                screen_unique_set_reference(scene, threshold,
                                            chunk_size=chunk_size))

    def test_clear_cosines_stay_in_float32(self):
        # Two orthogonal materials: every cosine is ~0 or ~1, far from the
        # threshold, so the float64 branch never runs.
        pixels = np.zeros((600, 16), dtype=np.float32)
        pixels[::2, :8] = 1.0
        pixels[1::2, 8:] = 2.0
        with self.refined() as refined:
            unique = screen_unique_set(pixels, 0.1, chunk_size=64)
        np.testing.assert_array_equal(unique, pixels[:2])
        assert refined == []

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("threshold", [0.02, 0.3])
    def test_edge_rows_match_the_reference(self, dtype, threshold):
        base = _make_scene(400, 16, 10, 3)
        rng = np.random.default_rng(11)
        edges = {"nan": np.where(np.arange(16) == 5, np.nan, base[9]),
                 "+inf": np.where(np.arange(16) == 2, np.inf, base[10]),
                 "-inf": np.full(16, -np.inf),
                 "zero": np.zeros(16),
                 "tiny": 1e-20 * base[11],
                 "huge": 1e20 * base[12]}
        for name, row in edges.items():
            for at in (0, 1, *rng.integers(2, len(base), 3)):
                pixels = np.insert(base, at, [row, row * 0.5], axis=0)
                pixels = pixels.astype(dtype)
                with np.errstate(invalid="ignore", over="ignore"):
                    want = screen_unique_set_reference(pixels, threshold,
                                                       chunk_size=64)
                    got = screen_unique_set(pixels, threshold, chunk_size=64)
                np.testing.assert_array_equal(got, want,
                                              err_msg=f"{name} at {at}")

    def test_the_cube_is_screened_without_a_whole_copy(self):
        import tracemalloc

        cube = HydiceGenerator(HydiceConfig(bands=64, rows=128, cols=128,
                                            seed=424242)).generate()
        view = cube.data[:, :128].reshape(64, -1).T
        screen_unique_set(view, 0.05)  # warm caches and the BLAS
        tracemalloc.start()
        try:
            screen_unique_set(view, 0.05)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The float64 copy this cube's rows used to be converted to is
        # 8 MiB; the chunk temporaries are a fraction of it.
        assert peak < view.size * 8 // 2


class TestCoverInvariants:
    @given(pixels=pixel_matrices(), threshold=st.floats(0.02, 0.5))
    @settings(**COMMON_SETTINGS)
    def test_members_pairwise_separated(self, pixels, threshold):
        unique = screen_unique_set(pixels, threshold)
        angles = spectral_angles(unique, unique)
        off_diagonal = angles[~np.eye(len(unique), dtype=bool)]
        if off_diagonal.size:
            assert off_diagonal.min() > threshold

    @given(pixels=pixel_matrices(), threshold=st.floats(0.02, 0.5),
           stride=st.integers(1, 4))
    @settings(**COMMON_SETTINGS)
    def test_every_sampled_pixel_is_covered(self, pixels, threshold, stride):
        unique = screen_unique_set(pixels, threshold, sample_stride=stride)
        sampled = np.asarray(pixels, dtype=np.float64)[::stride]
        # Every sampled pixel is within the threshold of some member (a
        # member covers itself at angle ~0); rejected pixels were rejected
        # *because* a member was within the threshold.
        angles = spectral_angles(sampled, unique)
        assert angles.min(axis=1).max() <= threshold + 1e-9

    @given(pixels=pixel_matrices(), threshold=st.floats(0.02, 0.5))
    @settings(**COMMON_SETTINGS)
    def test_float32_request_gets_float64_set(self, pixels, threshold):
        unique = screen_unique_set(pixels, threshold, compute_dtype="float32")
        assert unique.dtype == np.float64  # raw members, full precision
        np.testing.assert_array_equal(unique,
                                      screen_unique_set(pixels, threshold))


class TestUniqueSetBuffer:
    def test_grows_by_doubling_and_preserves_members(self):
        buffer = UniqueSetBuffer(4, capacity=2)
        rows = np.arange(36, dtype=np.float64).reshape(9, 4)
        for row in rows:
            buffer.append(row[None, :])
        assert len(buffer) == 9
        assert buffer.capacity >= 9
        np.testing.assert_array_equal(buffer.view, rows)

    def test_counts_grow_with_the_rows(self):
        buffer = UniqueSetBuffer(2, capacity=2)
        buffer.append(np.ones((2, 2)))
        counts = buffer.counts
        counts += [5, 7]
        buffer.append(np.ones((3, 2)))
        assert buffer.capacity >= 5
        np.testing.assert_array_equal(buffer.counts, [5, 7, 0, 0, 0])

    def test_view_is_zero_copy(self):
        buffer = UniqueSetBuffer(3, capacity=8)
        buffer.append(np.ones((2, 3)))
        view = buffer.view
        assert view.base is not None and view.shape == (2, 3)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            UniqueSetBuffer(0)
        with pytest.raises(ValueError):
            UniqueSetBuffer(3, capacity=0)


class TestParameterValidation:
    def test_chunk_size_below_one_rejected(self):
        pixels = np.ones((4, 3))
        with pytest.raises(ValueError, match="chunk_size"):
            screen_unique_set(pixels, 0.1, chunk_size=0)
        with pytest.raises(ValueError, match="chunk_size"):
            screen_unique_set_reference(pixels, 0.1, chunk_size=-2)

    def test_sample_stride_below_one_rejected(self):
        pixels = np.ones((4, 3))
        with pytest.raises(ValueError, match="sample_stride"):
            screen_unique_set(pixels, 0.1, sample_stride=0)
        with pytest.raises(ValueError, match="sample_stride"):
            screen_unique_set_reference(pixels, 0.1, sample_stride=-1)

    @pytest.mark.parametrize("cap", [0, -3])
    def test_max_unique_below_one_rejected(self, cap):
        pixels = np.random.default_rng(0).random((6, 3))
        with pytest.raises(ValueError, match="max_unique"):
            screen_unique_set(pixels, 0.05, max_unique=cap)
        with pytest.raises(ValueError, match="max_unique"):
            screen_unique_set_reference(pixels, 0.05, max_unique=cap)
        for rescreen in (False, True):
            with pytest.raises(ValueError, match="max_unique"):
                merge_unique_sets([pixels[:3], pixels[3:]], 0.05,
                                  max_unique=cap, rescreen=rescreen)
