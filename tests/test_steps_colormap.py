"""Unit tests for step 8: human-centred colour mapping."""

import numpy as np
import pytest

from repro.core.steps.colormap import (OPPONENCY_MATRIX, color_map,
                                       color_map_flops, component_statistics,
                                       luminance, stretch_components)


def random_components(shape=(16, 16, 3), seed=0, scale=100.0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape) * scale


class TestOpponencyMatrix:
    def test_shape(self):
        assert OPPONENCY_MATRIX.shape == (3, 3)

    def test_first_column_is_achromatic(self):
        """PC1 drives every RGB channel with the same sign (luminance)."""
        assert np.all(OPPONENCY_MATRIX[:, 0] > 0)

    def test_second_column_is_red_green_opponent(self):
        """PC2 pushes red and green in opposite directions."""
        assert OPPONENCY_MATRIX[0, 1] * OPPONENCY_MATRIX[1, 1] < 0

    def test_third_column_is_blue_yellow_opponent(self):
        """PC3 pushes blue against the red/green (yellow) pair."""
        blue = OPPONENCY_MATRIX[2, 2]
        yellow = OPPONENCY_MATRIX[0, 2] + OPPONENCY_MATRIX[1, 2]
        assert blue * yellow < 0

    def test_contains_paper_coefficients(self):
        flat = np.abs(OPPONENCY_MATRIX).round(4).ravel()
        for coefficient in (0.4387, 0.4972, 0.1403, 0.0795, 0.0641):
            assert np.any(np.isclose(flat, coefficient))


class TestStretch:
    def test_output_range(self):
        stretched = stretch_components(random_components())
        assert stretched.min() >= 0.0
        assert stretched.max() <= 256.0

    def test_explicit_statistics_used(self):
        components = random_components(seed=1)
        mean = np.zeros(3)
        std = np.ones(3) * 50.0
        a = stretch_components(components, mean=mean, std=std)
        b = stretch_components(components, mean=mean, std=std)
        np.testing.assert_array_equal(a, b)

    def test_self_normalising_centres_output(self):
        stretched = stretch_components(random_components(seed=2))
        assert abs(stretched.mean() - 128.0) < 20.0

    def test_component_statistics(self):
        components = random_components(seed=3)
        mean, std = component_statistics(components)
        np.testing.assert_allclose(mean, components.reshape(-1, 3).mean(axis=0))
        np.testing.assert_allclose(std, components.reshape(-1, 3).std(axis=0))

    def test_zero_variance_component_handled(self):
        components = np.zeros((8, 8, 3))
        mean, std = component_statistics(components)
        assert np.all(std == 1.0)
        stretched = stretch_components(components)
        assert np.all(np.isfinite(stretched))

    def test_needs_three_components(self):
        with pytest.raises(ValueError):
            stretch_components(np.zeros((4, 4, 2)))

    def test_bad_clip_sigma(self):
        with pytest.raises(ValueError):
            stretch_components(random_components(), clip_sigma=0.0)


class TestColorMap:
    def test_output_shape_and_range(self):
        rgb = color_map(random_components())
        assert rgb.shape == (16, 16, 3)
        assert rgb.min() >= 0.0
        assert rgb.max() <= 1.0

    def test_uint8_output(self):
        rgb = color_map(random_components(), as_uint8=True)
        assert rgb.dtype == np.uint8
        assert rgb.max() <= 255

    def test_extra_components_ignored(self):
        components = random_components(shape=(8, 8, 6))
        rgb_full = color_map(components)
        rgb_three = color_map(components[..., :3])
        np.testing.assert_allclose(rgb_full, rgb_three)

    def test_pc1_increase_raises_luminance(self):
        """Raising the first principal component brightens the composite."""
        base = np.full((4, 4, 3), 0.0)
        brighter = base.copy()
        brighter[..., 0] += 60.0
        stats = dict(mean=np.zeros(3), std=np.full(3, 50.0))
        lum_base = luminance(color_map(base, **stats)).mean()
        lum_bright = luminance(color_map(brighter, **stats)).mean()
        assert lum_bright > lum_base

    def test_pc2_shifts_red_green_balance(self):
        base = np.zeros((4, 4, 3))
        shifted = base.copy()
        shifted[..., 1] += 60.0
        stats = dict(mean=np.zeros(3), std=np.full(3, 50.0))
        rgb_base = color_map(base, **stats)
        rgb_shift = color_map(shifted, **stats)
        red_change = (rgb_shift[..., 0] - rgb_base[..., 0]).mean()
        green_change = (rgb_shift[..., 1] - rgb_base[..., 1]).mean()
        assert red_change > 0 > green_change

    def test_global_statistics_remove_block_seams(self):
        components = random_components(shape=(32, 16, 3), seed=5)
        mean, std = component_statistics(components)
        top = color_map(components[:16], mean=mean, std=std)
        bottom = color_map(components[16:], mean=mean, std=std)
        stitched = np.concatenate([top, bottom], axis=0)
        whole = color_map(components, mean=mean, std=std)
        np.testing.assert_allclose(stitched, whole)

    def test_without_global_statistics_blocks_differ(self):
        components = random_components(shape=(32, 16, 3), seed=6)
        top_self = color_map(components[:16])
        mean, std = component_statistics(components)
        top_global = color_map(components[:16], mean=mean, std=std)
        assert not np.allclose(top_self, top_global)

    def test_normalize_disabled_uses_raw_values(self):
        components = np.full((2, 2, 3), 128.0)
        rgb = color_map(components, normalize=False)
        np.testing.assert_allclose(rgb, 0.5, atol=1e-9)

    def test_too_few_components_rejected(self):
        with pytest.raises(ValueError):
            color_map(np.zeros((4, 4, 2)))


class TestLuminance:
    def test_grey_luminance(self):
        rgb = np.full((4, 4, 3), 0.5)
        np.testing.assert_allclose(luminance(rgb), 0.5)

    def test_green_weighted_highest(self):
        red = luminance(np.array([[1.0, 0.0, 0.0]]))
        green = luminance(np.array([[0.0, 1.0, 0.0]]))
        blue = luminance(np.array([[0.0, 0.0, 1.0]]))
        assert green > red > blue

    def test_wrong_channel_count_rejected(self):
        with pytest.raises(ValueError):
            luminance(np.zeros((4, 4, 4)))


def test_color_map_flops_positive():
    assert color_map_flops(1000) > 0
