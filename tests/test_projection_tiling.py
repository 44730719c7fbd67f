"""Steps 7-8 give a pixel the same bits whatever tile it arrives in.

The step-7 projection and the step-8 3x3 colour mix run in zero-padded
panels of ``PANEL_PIXELS`` pixels (:func:`repro.core.steps.transform.
matmul_panels`), so every BLAS call has one shape and the host BLAS cannot
take a small-matrix path, with a different summation order, for a tile of a
few pixels.  This suite holds that contract:

* random cube shapes and row tilings, float32- and float64-stored: the
  concatenated tiles equal the whole cube bit for bit, for the fused
  ``project_and_map`` and for ``project_cube_block`` + ``color_map``;
* the panel edges (1, ``PANEL_PIXELS`` - 1, ``PANEL_PIXELS``,
  ``PANEL_PIXELS`` + 1 and 2 x ``PANEL_PIXELS`` pixels), at three
  components and at every band, into the zero-copy ``*_out`` views;
* at workload scale (HYDICE 64x64x32, 128x128x64, 256x256x64 at the
  default tiles), the kernel against the seed arithmetic: a full-rank
  pixel-major ``(x - m) @ A.T``, sliced, then the seed colour chain.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.kernels.numpy_backend import project_and_map
from repro.core.partition import extract_subcube
from repro.core.steps.colormap import (OPPONENCY_MATRIX, color_map,
                                       component_statistics,
                                       stretch_components)
from repro.core.steps.statistics import (covariance_matrix, covariance_sum,
                                         mean_vector)
from repro.core.steps.transform import (PANEL_PIXELS, project,
                                        project_cube_block,
                                        transformation_matrix)
from repro.core.streaming import default_tile_rows, plan_tiles
from repro.data.hydice import HydiceConfig, HydiceGenerator

def _scene(bands, rows, cols, seed):
    """A low-rank-plus-noise ``(bands, rows, cols)`` block, its full-rank
    basis and the stretch statistics of its first three components."""
    rng = np.random.default_rng(seed)
    latent = rng.random((rows * cols, min(4, bands)))
    mixing = rng.random((min(4, bands), bands)) + 0.05
    pixels = latent @ mixing + 0.01 + 0.05 * rng.random((rows * cols, bands))
    mean = mean_vector(pixels)
    covariance = covariance_matrix([covariance_sum(pixels, mean)],
                                   total_pixels=pixels.shape[0])
    basis = transformation_matrix(covariance, mean, n_components=None)
    stretch = component_statistics(project(pixels, basis)[:, :3])
    return pixels.T.reshape(bands, rows, cols).copy(), basis, stretch


def _fused(block, basis, stretch, n_components, normalize=True, **outs):
    return project_and_map(
        block, basis, n_components=n_components, normalize=normalize,
        stretch_mean=stretch[0], stretch_std=stretch[1], **outs)


@given(bands=st.integers(3, 70), rows=st.integers(2, 40),
       cols=st.integers(1, 40), tile_rows=st.data(),
       seed=st.integers(0, 2**31 - 1), all_components=st.booleans(),
       normalize=st.booleans(),
       stored=st.sampled_from([np.float64, np.float32]))
@settings(max_examples=150, deadline=None)
def test_tiles_concatenate_to_the_whole_cube(bands, rows, cols, tile_rows,
                                             seed, all_components, normalize,
                                             stored):
    block, basis, stretch = _scene(bands, rows, cols, seed)
    block = block.astype(stored)
    n_components = bands if all_components else 3
    tiles = plan_tiles(rows, tile_rows.draw(st.integers(1, rows)))
    row_ranges = [(spec.row_start, spec.row_stop) for spec in tiles]

    planes = project_cube_block(block, basis)
    whole_rgb = color_map(planes[..., :3], normalize=normalize,
                          mean=stretch[0], std=stretch[1])
    tiled_planes = [project_cube_block(block[:, start:stop], basis)
                    for start, stop in row_ranges]
    np.testing.assert_array_equal(np.concatenate(tiled_planes), planes)
    # The mix alone, on tiles of the same projected planes.
    np.testing.assert_array_equal(
        np.concatenate([color_map(planes[start:stop, :, :3],
                                  normalize=normalize, mean=stretch[0],
                                  std=stretch[1])
                        for start, stop in row_ranges]), whole_rgb)

    components, composite = _fused(block, basis, stretch, n_components,
                                   normalize)
    np.testing.assert_array_equal(components, planes[..., :n_components])
    np.testing.assert_array_equal(composite, whole_rgb)
    parts = [_fused(block[:, start:stop], basis, stretch, n_components,
                    normalize)
             for start, stop in row_ranges]
    np.testing.assert_array_equal(
        np.concatenate([part[0] for part in parts]), components)
    np.testing.assert_array_equal(
        np.concatenate([part[1] for part in parts]), composite)


@pytest.mark.parametrize("pixels", [1, PANEL_PIXELS - 1, PANEL_PIXELS,
                                    PANEL_PIXELS + 1, 2 * PANEL_PIXELS])
@pytest.mark.parametrize("all_components", [False, True])
def test_panel_edges_match_the_whole_cube(pixels, all_components):
    # Row 1 of a three-row cube starts `pixels` pixels in, so a tile of one
    # row sits at a different offset in its panels than in the whole
    # cube's; its outputs land in views of larger placements.
    bands = 9
    block, basis, stretch = _scene(bands, 3, pixels, seed=pixels)
    n_components = bands if all_components else 3
    whole = _fused(block, basis, stretch, n_components)
    placed_components = np.full((3, pixels, n_components), np.nan)
    placed_composite = np.full((3, pixels, 3), np.nan)
    returned = _fused(block[:, 1:2], basis, stretch, n_components,
                      components_out=placed_components[1:2],
                      composite_out=placed_composite[1:2])
    assert returned[0].base is placed_components
    assert returned[1].base is placed_composite
    np.testing.assert_array_equal(placed_components[1], whole[0][1])
    np.testing.assert_array_equal(placed_composite[1], whole[1][1])
    assert np.isnan(placed_components[[0, 2]]).all()
    assert np.isnan(placed_composite[[0, 2]]).all()
    np.testing.assert_array_equal(
        project_cube_block(block[:, 1:2], basis)[..., :n_components],
        whole[0][1:2])


def _seed_arithmetic(block, basis, stretch):
    """The seed's step 7-8: project every pixel onto every eigenvector in
    one pixel-major product, keep three, then the seed colour chain."""
    bands, rows, cols = block.shape
    pixels = block.reshape(bands, -1).T.astype(np.float64)
    planes = ((pixels - basis.mean[None, :]) @ basis.components.T)[:, :3]
    stretched = stretch_components(planes, mean=stretch[0], std=stretch[1])
    mixed = (stretched - 128.0) @ OPPONENCY_MATRIX.T
    rgb = np.clip((128.0 + mixed) / 256.0, 0.0, 1.0)
    return planes.reshape(rows, cols, 3), rgb.reshape(rows, cols, 3)


@pytest.mark.parametrize("rows, cols, bands", [(64, 64, 32), (128, 128, 64),
                                               (256, 256, 64)])
def test_workload_scale_matches_seed_arithmetic(rows, cols, bands):
    cube = HydiceGenerator(HydiceConfig(bands=bands, rows=rows, cols=cols,
                                        seed=424242)).generate()
    sample = cube.data.reshape(bands, -1).T[::7].astype(np.float64)
    mean = mean_vector(sample)
    covariance = covariance_matrix([covariance_sum(sample, mean)],
                                   total_pixels=sample.shape[0])
    basis = transformation_matrix(covariance, mean, n_components=None)
    stretch = component_statistics(project(sample, basis)[:, :3])
    want_planes, want_rgb = _seed_arithmetic(cube.data, basis, stretch)
    parts = [_fused(extract_subcube(cube, spec), basis, stretch, 3)
             for spec in plan_tiles(rows, default_tile_rows(rows, 2))]
    np.testing.assert_allclose(np.concatenate([p[0] for p in parts]),
                               want_planes, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.concatenate([p[1] for p in parts]),
                               want_rgb, rtol=0, atol=1e-12)
