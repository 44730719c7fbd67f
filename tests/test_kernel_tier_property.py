"""Property suite for the pluggable compute-kernel tier.

The tier's contract (:mod:`repro.core.kernels.registry`): every registered
compute backend produces **bit-identical** float64 results to the unfused
step functions, and float32 runs the documented tolerance tier through the
same narrowed arithmetic -- the ``compute=`` policy may change throughput,
never bytes.  This suite asserts that contract kernel by kernel:

* the fused centre+SYRK covariance partial against
  :func:`repro.core.steps.statistics.covariance_sum`;
* the scratch-centred projection (matrix, block and ``out=`` forms) against
  :func:`repro.core.steps.transform.project` / ``project_cube_block``;
* the fused step-7/8 tile (``project_and_map``, with and without the
  zero-copy ``*_out`` destinations) against ``project_cube_block`` followed
  by :func:`repro.core.steps.colormap.color_map`;
* the blocked survivor elimination (``eliminate_survivors``) against a
  one-pivot-at-a-time oracle written here, across block edges.

Registry mechanics (unknown names, duplicate registration, caching, the
open extension point) and the policy threading through
``FusionConfig``/``FusionRequest``/the engines and paritylab round out the
suite.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.config import ConfigurationError, FusionConfig
from repro.core.kernels import (NumpyBackend, compute_names, get_compute,
                                kernel_covariance_sum, kernel_project_and_map,
                                register_compute)
from repro.core.kernels import registry as kernel_registry
from repro.core.kernels.numpy_backend import _ELIMINATION_BLOCK
from repro.core.steps.colormap import color_map, component_statistics
from repro.core.steps.statistics import covariance_sum, mean_vector
from repro.core.steps.screening import normalize_rows, screen_unique_set
from repro.core.steps.statistics import covariance_matrix
from repro.core.steps.transform import (project, project_cube_block,
                                        transformation_matrix)
from repro.data.hydice import HydiceConfig, HydiceGenerator

COMMON_SETTINGS = dict(max_examples=40, deadline=None)

#: Every registered tier (today the numpy reference alone).
BACKENDS = [get_compute(name) for name in compute_names()]


@contextlib.contextmanager
def registered_test_tier():
    """A second registered tier, so policy threading is observable."""
    @register_compute("test-tier")
    class TestTier(NumpyBackend):
        pass

    try:
        yield "test-tier"
    finally:
        kernel_registry._COMPUTE_BACKENDS._items.pop("test-tier", None)
        kernel_registry._INSTANCES.pop("test-tier", None)


@pytest.fixture
def extra_tier():
    with registered_test_tier() as name:
        yield name


def pixel_matrices(min_pixels=4, max_pixels=300, min_bands=3, max_bands=24):
    """Strategy producing low-rank-plus-noise (pixels, bands) matrices,
    the structure hyper-spectral scenes actually have (a few materials
    mixed everywhere)."""
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


def _basis_for(pixels, n_components=None):
    mean = mean_vector(pixels)
    covariance = covariance_matrix([covariance_sum(pixels, mean)],
                                   total_pixels=pixels.shape[0])
    return transformation_matrix(covariance, mean, n_components=n_components)


def _block_from(pixels, rows):
    """Reshape a pixel matrix into the (bands, rows, cols) cube-block form."""
    n, bands = pixels.shape
    cols = n // rows
    return pixels[:rows * cols].T.reshape(bands, rows, cols).copy()


# --------------------------------------------------------------------------
# Covariance kernel
# --------------------------------------------------------------------------

class TestCovarianceKernel:
    @given(pixels=pixel_matrices())
    @settings(**COMMON_SETTINGS)
    def test_bit_identical_to_step_function(self, pixels):
        mean = mean_vector(pixels)
        reference = covariance_sum(pixels, mean)
        for backend in BACKENDS:
            np.testing.assert_array_equal(
                backend.covariance_sum(pixels, mean), reference,
                err_msg=f"compute={backend.name!r}")

    @given(pixels=pixel_matrices(max_pixels=100))
    @settings(**COMMON_SETTINGS)
    def test_scratch_reuse_does_not_leak_between_calls(self, pixels):
        # Two different slices back to back reuse the pooled scratch; each
        # result must still match a fresh step-function evaluation.
        mean = mean_vector(pixels)
        half = pixels.shape[0] // 2 or 1
        for backend in BACKENDS:
            first = backend.covariance_sum(pixels[:half], mean)
            np.testing.assert_array_equal(
                first, covariance_sum(pixels[:half], mean))
            second = backend.covariance_sum(pixels[half:half + half], mean)
            np.testing.assert_array_equal(
                second, covariance_sum(pixels[half:half + half], mean))

    def test_input_validation_matches_step_function(self):
        for backend in BACKENDS:
            with pytest.raises(ValueError, match="2-D"):
                backend.covariance_sum(np.ones(5), np.ones(5))
            with pytest.raises(ValueError, match="does not match"):
                backend.covariance_sum(np.ones((4, 5)), np.ones(3))


# --------------------------------------------------------------------------
# Projection kernels
# --------------------------------------------------------------------------

class TestProjectionKernels:
    @given(pixels=pixel_matrices())
    @settings(**COMMON_SETTINGS)
    def test_project_bit_identical_float64(self, pixels):
        basis = _basis_for(pixels)
        reference = project(pixels, basis)
        for backend in BACKENDS:
            np.testing.assert_array_equal(
                backend.project(pixels, basis), reference,
                err_msg=f"compute={backend.name!r}")

    @given(pixels=pixel_matrices())
    @settings(**COMMON_SETTINGS)
    def test_project_out_path_is_identical(self, pixels):
        basis = _basis_for(pixels)
        reference = project(pixels, basis)
        for backend in BACKENDS:
            out = np.empty((pixels.shape[0], basis.n_components))
            returned = backend.project(pixels, basis, out=out)
            assert returned is out
            np.testing.assert_array_equal(out, reference)

    @given(pixels=pixel_matrices())
    @settings(**COMMON_SETTINGS)
    def test_project_float32_matches_reference_tier(self, pixels):
        # float32 is the tolerance tier against *float64*, but across
        # backends the narrowed arithmetic itself is still the same ops in
        # the same order -- so backend-vs-step-function stays exact.
        basis = _basis_for(pixels)
        reference = project(pixels, basis, compute_dtype=np.float32)
        for backend in BACKENDS:
            np.testing.assert_array_equal(
                backend.project(pixels, basis, compute_dtype=np.float32),
                reference, err_msg=f"compute={backend.name!r}")

    @given(pixels=pixel_matrices(min_pixels=12),
           rows=st.integers(2, 6),
           keep_all=st.booleans())
    @settings(**COMMON_SETTINGS)
    def test_project_block_bit_identical(self, pixels, rows, keep_all):
        n_components = None if keep_all else 3
        basis = _basis_for(pixels, n_components=n_components)
        block = _block_from(pixels, rows)
        reference = project_cube_block(block, basis)
        for backend in BACKENDS:
            np.testing.assert_array_equal(
                backend.project_block(block, basis), reference,
                err_msg=f"compute={backend.name!r}")

    def test_shape_mismatch_raises(self):
        pixels = _make_pixels(20, 6, seed=0)
        basis = _basis_for(pixels)
        for backend in BACKENDS:
            with pytest.raises(ValueError, match="do not match"):
                backend.project(pixels[:, :4], basis)
            with pytest.raises(ValueError, match="does not match"):
                backend.project_block(np.ones((4, 2, 2)), basis)


# --------------------------------------------------------------------------
# Fused step-7/8 tile kernel
# --------------------------------------------------------------------------

class TestProjectAndMap:
    @given(pixels=pixel_matrices(min_pixels=12, min_bands=3),
           rows=st.integers(2, 6),
           normalize=st.booleans(),
           keep_all=st.booleans())
    @settings(**COMMON_SETTINGS)
    def test_bit_identical_to_unfused_steps(self, pixels, rows, normalize,
                                            keep_all):
        n_components = pixels.shape[1] if keep_all else 3
        basis = _basis_for(pixels, n_components=n_components)
        block = _block_from(pixels, rows)
        stretch_mean, stretch_std = component_statistics(
            project(pixels, basis)[:, :3])

        planes = project_cube_block(block, basis)
        ref_components = planes[..., :n_components]
        ref_composite = color_map(planes[..., :3], normalize=normalize,
                                  mean=stretch_mean, std=stretch_std)
        for backend in BACKENDS:
            components, composite = backend.project_and_map(
                block, basis, n_components=n_components, normalize=normalize,
                stretch_mean=stretch_mean, stretch_std=stretch_std)
            np.testing.assert_array_equal(components, ref_components,
                                          err_msg=f"compute={backend.name!r}")
            np.testing.assert_array_equal(composite, ref_composite,
                                          err_msg=f"compute={backend.name!r}")

    @given(pixels=pixel_matrices(min_pixels=12, min_bands=3),
           rows=st.integers(2, 6))
    @settings(**COMMON_SETTINGS)
    def test_out_destinations_receive_identical_bytes(self, pixels, rows):
        # The zero-copy path hands the kernel views into the shared-memory
        # placement; the bytes written there must equal the allocating path.
        basis = _basis_for(pixels, n_components=3)
        block = _block_from(pixels, rows)
        stretch_mean, stretch_std = component_statistics(
            project(pixels, basis)[:, :3])
        cols = block.shape[2]
        for backend in BACKENDS:
            reference_components, reference_composite = backend.project_and_map(
                block, basis, n_components=3, normalize=True,
                stretch_mean=stretch_mean, stretch_std=stretch_std)
            components_out = np.empty((rows, cols, 3))
            composite_out = np.empty((rows, cols, 3))
            returned = backend.project_and_map(
                block, basis, n_components=3, normalize=True,
                stretch_mean=stretch_mean, stretch_std=stretch_std,
                components_out=components_out, composite_out=composite_out)
            assert returned[0] is components_out
            assert returned[1] is composite_out
            np.testing.assert_array_equal(components_out, reference_components)
            np.testing.assert_array_equal(composite_out, reference_composite)

    def test_full_rank_components_do_not_alias_the_scratch(self):
        # At full projection rank the retained slice spans the whole pooled
        # product buffer; a later call must not mutate the earlier result.
        pixels = _make_pixels(48, 5, seed=1)
        basis = _basis_for(pixels, n_components=5)
        block = _block_from(pixels, rows=4)
        stretch_mean, stretch_std = component_statistics(
            project(pixels, basis)[:, :3])
        for backend in BACKENDS:
            first, _ = backend.project_and_map(
                block, basis, n_components=5, normalize=True,
                stretch_mean=stretch_mean, stretch_std=stretch_std)
            snapshot = first.copy()
            backend.project_and_map(
                2.0 * block, basis, n_components=5, normalize=True,
                stretch_mean=stretch_mean, stretch_std=stretch_std)
            np.testing.assert_array_equal(first, snapshot)

    @given(pixels=pixel_matrices(min_pixels=12, min_bands=3),
           rows=st.integers(2, 5))
    @settings(**COMMON_SETTINGS)
    def test_picklable_dispatch_surface(self, pixels, rows):
        # The kernel_* module functions are what worker tasks actually call
        # (compute travels as a name, never a pickled function).
        basis = _basis_for(pixels, n_components=3)
        block = _block_from(pixels, rows)
        mean = mean_vector(pixels)
        stretch_mean, stretch_std = component_statistics(
            project(pixels, basis)[:, :3])
        np.testing.assert_array_equal(
            kernel_covariance_sum(pixels, mean, compute="numpy"),
            covariance_sum(pixels, mean))
        components, composite = kernel_project_and_map(
            block, basis, n_components=3, normalize=True,
            stretch_mean=stretch_mean, stretch_std=stretch_std,
            compute="numpy")
        planes = project_cube_block(block, basis)
        np.testing.assert_array_equal(components, planes[..., :3])
        np.testing.assert_array_equal(
            composite, color_map(planes[..., :3], normalize=True,
                                 mean=stretch_mean, std=stretch_std))


# --------------------------------------------------------------------------
# Survivor elimination
# --------------------------------------------------------------------------

def one_pivot_at_a_time(survivors, rows, cos_threshold, room):
    """Oracle: admit the first remaining survivor, eliminate every remaining
    survivor within the threshold of it with one GEMV, repeat."""
    admitted, admitted_rows = [], []
    remaining, remaining_rows = survivors, rows
    while remaining.shape[0]:
        if room is not None and len(admitted) >= room:
            break
        admitted.append(remaining[0])
        admitted_rows.append(int(remaining_rows[0]))
        alive = remaining @ remaining[0] < cos_threshold
        alive[0] = False  # the pivot itself, even when cos_threshold == 1.0
        remaining = remaining[alive]
        remaining_rows = remaining_rows[alive]
    if not admitted:
        return (np.empty((0, survivors.shape[1]), dtype=survivors.dtype),
                np.empty(0, dtype=np.intp))
    return np.stack(admitted), np.asarray(admitted_rows, dtype=np.intp)


#: Survivor counts from one row to past four blocks, so block edges are
#: crossed; ``room`` of none, nothing, mid-block and exactly on a block edge.
SURVIVOR_COUNTS = st.integers(1, 4 * _ELIMINATION_BLOCK + 3)
ROOMS = st.sampled_from([None, 0, _ELIMINATION_BLOCK // 2 + 5,
                         _ELIMINATION_BLOCK, 2 * _ELIMINATION_BLOCK])


def _with_degenerate_rows(matrix, rng, zeros, duplicates):
    """Overwrite random rows with zero rows and with copies of earlier rows."""
    n = matrix.shape[0]
    for _ in range(duplicates if n > 1 else 0):
        target = int(rng.integers(1, n))
        matrix[target] = matrix[int(rng.integers(0, target))]
    matrix[rng.integers(0, n, size=zeros)] = 0.0
    return matrix


def _threshold_clear_of(survivors, angle):
    """A cosine threshold near ``cos(angle)`` in the widest gap between the
    survivors' pairwise cosines: no decision then sits within rounding of
    the threshold, where a GEMM and a GEMV may legitimately disagree."""
    unit = survivors.astype(np.float64)
    cosines = np.sort((unit @ unit.T)[np.triu_indices(unit.shape[0], 1)])
    cosines = np.concatenate([[-1.0], cosines, [1.0]])
    at = int(np.searchsorted(cosines, np.cos(angle)))
    window = cosines[max(at - 16, 0): at + 16]
    widest = int(np.argmax(np.diff(window)))
    return survivors.dtype.type((window[widest] + window[widest + 1]) / 2)


def _assert_matches_oracle(survivors, cos_threshold, room):
    # Chunk-row ids offset from positions, so a kernel returning positions
    # instead of ids fails.
    rows = np.arange(3, 3 + survivors.shape[0], dtype=np.intp)
    want, want_rows = one_pivot_at_a_time(survivors, rows, cos_threshold, room)
    for backend in BACKENDS:
        admitted, admitted_rows = backend.eliminate_survivors(
            survivors, rows, cos_threshold, room=room)
        assert admitted.dtype == survivors.dtype
        assert admitted_rows.dtype == np.intp
        np.testing.assert_array_equal(admitted_rows, want_rows,
                                      err_msg=f"compute={backend.name!r}")
        np.testing.assert_array_equal(admitted, want)


class TestEliminateSurvivors:
    @given(n=SURVIVOR_COUNTS, bands=st.integers(3, 24),
           seed=st.integers(0, 2**31 - 1), angle=st.floats(0.01, 0.6),
           room=ROOMS, zeros=st.integers(0, 4), duplicates=st.integers(0, 40),
           dtype=st.sampled_from([np.float64, np.float32]))
    @settings(**COMMON_SETTINGS)
    def test_matches_one_pivot_at_a_time(self, n, bands, seed, angle, room,
                                         zeros, duplicates, dtype):
        rng = np.random.default_rng(seed)
        pixels = _with_degenerate_rows(_make_pixels(n, bands, seed), rng,
                                       zeros, duplicates)
        survivors = normalize_rows(pixels).astype(dtype)
        _assert_matches_oracle(survivors, _threshold_clear_of(survivors, angle),
                               room)

    @given(n=SURVIVOR_COUNTS, bands=st.integers(4, 12),
           seed=st.integers(0, 2**31 - 1),
           cos_threshold=st.sampled_from([1.0, 0.75, 0.5, 0.25, 0.0, -0.5]),
           room=ROOMS, zeros=st.integers(0, 4), duplicates=st.integers(0, 40),
           dtype=st.sampled_from([np.float64, np.float32]))
    @settings(**COMMON_SETTINGS)
    def test_matches_one_pivot_at_a_time_on_exact_cosines(
            self, n, bands, seed, cos_threshold, room, zeros, duplicates, dtype):
        # Unit rows of four +-0.5 entries: every cosine is a multiple of
        # 0.25, exact in any summation order, so thresholds may sit exactly
        # on a cosine -- 1.0 included, where only a duplicate is eliminated
        # and the pivot itself must still be skipped.
        rng = np.random.default_rng(seed)
        survivors = np.zeros((n, bands), dtype=dtype)
        for row in survivors:
            row[rng.choice(bands, size=4, replace=False)] = \
                rng.choice([-0.5, 0.5], size=4)
        survivors = _with_degenerate_rows(survivors, rng, zeros, duplicates)
        _assert_matches_oracle(survivors, dtype(cos_threshold), room)

    @pytest.mark.parametrize("room", [_ELIMINATION_BLOCK - 1, _ELIMINATION_BLOCK,
                                      _ELIMINATION_BLOCK + 1,
                                      2 * _ELIMINATION_BLOCK + 7])
    def test_room_stops_mid_block_and_on_block_edges(self, room):
        # Mutually orthogonal survivors are all admitted, so the room is
        # what stops the walk, wherever it falls in a block.
        survivors = np.eye(3 * _ELIMINATION_BLOCK)
        rows = np.arange(survivors.shape[0], dtype=np.intp)
        for backend in BACKENDS:
            admitted, admitted_rows = backend.eliminate_survivors(
                survivors, rows, np.float64(0.5), room=room)
            np.testing.assert_array_equal(admitted_rows, rows[:room])
            np.testing.assert_array_equal(admitted, survivors[:room])

    @given(pixels=pixel_matrices(max_pixels=150),
           threshold=st.floats(0.01, 0.4),
           cap=st.one_of(st.none(), st.integers(1, 40)),
           chunk_size=st.integers(1, 96))
    @settings(**COMMON_SETTINGS)
    def test_screening_output_is_compute_invariant(self, pixels, threshold,
                                                   cap, chunk_size):
        # End-to-end through screen_unique_set: the compute policy never
        # changes the unique set.
        reference = screen_unique_set(pixels, threshold, max_unique=cap,
                                      chunk_size=chunk_size, compute="numpy")
        with registered_test_tier() as tier:
            via_policy = screen_unique_set(pixels, threshold, max_unique=cap,
                                           chunk_size=chunk_size, compute=tier)
        np.testing.assert_array_equal(via_policy, reference)

    def test_room_zero_admits_nothing(self):
        survivors = np.eye(4)
        rows = np.arange(4, dtype=np.intp)
        for backend in BACKENDS:
            admitted, admitted_rows = backend.eliminate_survivors(
                survivors, rows, np.float64(0.9), room=0)
            assert admitted.shape == (0, 4)
            assert admitted_rows.shape == (0,)
            assert admitted_rows.dtype == np.intp


# --------------------------------------------------------------------------
# Registry mechanics
# --------------------------------------------------------------------------

class TestRegistry:
    def test_compute_names_sorted_and_complete(self):
        names = compute_names()
        assert names == sorted(names)
        assert names == ["numpy"]
        assert repro.compute_names() == names

    def test_unknown_name_error_lists_backends(self):
        with pytest.raises(ValueError) as excinfo:
            get_compute("cupyy")
        message = str(excinfo.value)
        assert "unknown compute backend 'cupyy'" in message
        for name in compute_names():
            assert name in message

    def test_instances_are_cached(self):
        assert get_compute("numpy") is get_compute("numpy")
        assert isinstance(get_compute("numpy"), NumpyBackend)

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            @register_compute("numpy")
            class Rogue(kernel_registry.ComputeBackend):
                pass
        assert kernel_registry._COMPUTE_BACKENDS.get("numpy") is NumpyBackend

    def test_registry_is_open_for_new_tiers(self, extra_tier):
        # The documented extension point: one decorated class, like engines.
        assert extra_tier in compute_names()
        assert get_compute(extra_tier).name == extra_tier
        assert FusionConfig(compute=extra_tier).compute == extra_tier

    def test_base_class_kernels_are_abstract(self):
        backend = kernel_registry.ComputeBackend()
        pixels = np.ones((2, 2))
        with pytest.raises(NotImplementedError):
            backend.covariance_sum(pixels, np.ones(2))


# --------------------------------------------------------------------------
# Policy threading: config, request, engines, paritylab
# --------------------------------------------------------------------------

class TestPolicyThreading:
    def test_config_validates_compute_name(self):
        with pytest.raises(ConfigurationError,
                           match=r"compute must be one of \('numpy',\), "
                                 r"got 'fortran'"):
            FusionConfig(compute="fortran")
        assert FusionConfig().compute == "numpy"

    def test_request_merges_compute_policy(self, extra_tier):
        cube = HydiceGenerator(HydiceConfig(bands=8, rows=24, cols=24,
                                            seed=2)).generate()
        assert repro.FusionRequest(cube).resolved_config().compute == "numpy"
        request = repro.FusionRequest(cube, compute=extra_tier)
        assert request.resolved_config().compute == extra_tier
        base = FusionConfig(compute=extra_tier)
        assert repro.FusionRequest(
            cube, config=base).resolved_config().compute == extra_tier

    def test_engines_are_compute_invariant_and_echo_the_policy(self, extra_tier):
        cube = HydiceGenerator(HydiceConfig(bands=8, rows=24, cols=24,
                                            seed=3)).generate()
        reference = repro.fuse(cube, compute="numpy")
        assert reference.result.metadata["compute"] == "numpy"
        via_tier = repro.fuse(cube, compute=extra_tier)
        pipelined = repro.fuse(cube, engine="pipeline", backend="local:2",
                               workers=2, compute=extra_tier)
        assert via_tier.result.metadata["compute"] == extra_tier
        assert pipelined.result.metadata["compute"] == extra_tier
        np.testing.assert_array_equal(via_tier.composite, reference.composite)
        matched = repro.fuse(cube, workers=2, compute="numpy")
        np.testing.assert_array_equal(pipelined.composite, matched.composite)

    def test_parity_case_carries_the_compute_policy(self, extra_tier):
        from repro.paritylab.harness import ParityCase, sample_case
        import random

        case = ParityCase(bands=8, rows=32, cols=32, scene_seed=1,
                          compute=extra_tier)
        assert case.config().compute == extra_tier
        assert ParityCase.from_dict(case.to_dict()) == case
        assert case.case_id() != ParityCase(bands=8, rows=32, cols=32,
                                            scene_seed=1).case_id()
        # Pre-PR-10 case dicts have no "compute" key; they backfill to the
        # reference tier.
        legacy = case.to_dict()
        del legacy["compute"]
        assert ParityCase.from_dict(legacy).compute == "numpy"
        # The sampler has no compute axis: every drawn case is the reference.
        rng = random.Random(7)
        assert all(sample_case(rng).compute == "numpy" for _ in range(25))
