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

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ScreeningConfig
from repro.core.partition import (decompose, extract_subcube,
                                  subcube_pixel_matrix)
from repro.core.steps.screening import (UniqueSetBuffer, screen_unique_set,
                                        screen_unique_set_reference,
                                        spectral_angles)
from repro.data.hydice import HydiceConfig, HydiceGenerator

COMMON_SETTINGS = dict(max_examples=40, deadline=None)


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
        # floor and the exact-cosine edges of the admission test.
        pixels = np.zeros((12, 5))
        pixels[2] = [1, 0, 0, 0, 0]
        pixels[5] = [0, 1, 0, 0, 0]
        pixels[8] = [1, 0, 0, 0, 0]
        pixels[11] = [2, 0, 0, 0, 0]
        for threshold in (0.05, 0.5, 1.2):
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
    def test_float32_mode_still_covers(self, pixels, threshold):
        unique = screen_unique_set(pixels, threshold, compute_dtype="float32")
        assert unique.dtype == np.float64  # raw members, full precision
        angles = spectral_angles(np.asarray(pixels, dtype=np.float64), unique)
        # float32 admission decisions may differ near the boundary; the
        # cover tolerance allows the single-precision cosine error amplified
        # by d(arccos)/dc ~ 1/sin(threshold) at small angles.
        assert angles.min(axis=1).max() <= threshold + 1e-3


class TestUniqueSetBuffer:
    def test_grows_by_doubling_and_preserves_members(self):
        buffer = UniqueSetBuffer(4, capacity=2)
        rows = np.arange(36, dtype=np.float64).reshape(9, 4)
        for row in rows:
            buffer.append(row[None, :])
        assert len(buffer) == 9
        assert buffer.capacity >= 9
        np.testing.assert_array_equal(buffer.view, rows)

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
