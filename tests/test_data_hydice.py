"""Unit tests for the synthetic HYDICE collection generator."""

import numpy as np
import pytest

from repro.core.steps.screening import screen_unique_set, spectral_angles
from repro.data.hydice import (HydiceConfig, HydiceGenerator, generate_cube,
                               solar_illumination)


class TestConfigValidation:
    def test_defaults_match_paper_sensor(self):
        config = HydiceConfig()
        assert config.bands == 210
        assert (config.rows, config.cols) == (320, 320)

    def test_rejects_too_few_bands(self):
        with pytest.raises(ValueError):
            HydiceConfig(bands=2)

    def test_rejects_small_scene(self):
        with pytest.raises(ValueError):
            HydiceConfig(rows=4, cols=4)

    def test_rejects_bad_mixing(self):
        with pytest.raises(ValueError):
            HydiceConfig(mixing_strength=1.5)

    def test_rejects_bad_variants(self):
        with pytest.raises(ValueError):
            HydiceConfig(variants_per_material=0)


class TestGeneration:
    def test_cube_shape_and_wavelength_range(self, tiny_cube):
        assert tiny_cube.shape == (16, 32, 32)
        assert tiny_cube.wavelengths_nm[0] == pytest.approx(400.0)
        assert tiny_cube.wavelengths_nm[-1] == pytest.approx(2500.0)

    def test_metadata_carries_ground_truth(self, tiny_cube):
        assert "label_map" in tiny_cube.metadata
        assert "target_mask" in tiny_cube.metadata
        assert tiny_cube.metadata["label_map"].shape == (32, 32)
        assert tiny_cube.metadata["target_mask"].any()

    def test_deterministic_given_seed(self):
        config = HydiceConfig(bands=12, rows=24, cols=24, seed=11)
        a = HydiceGenerator(config).generate()
        b = HydiceGenerator(config).generate()
        np.testing.assert_array_equal(a.data, b.data)

    def test_different_seed_differs(self):
        a = HydiceGenerator(HydiceConfig(bands=12, rows=24, cols=24, seed=1)).generate()
        b = HydiceGenerator(HydiceConfig(bands=12, rows=24, cols=24, seed=2)).generate()
        assert not np.array_equal(a.data, b.data)

    def test_radiance_positive(self, tiny_cube):
        assert tiny_cube.data.min() >= 0.0
        assert tiny_cube.data.max() > 0.0

    def test_solar_illumination_normalised(self):
        wl = np.linspace(400, 2500, 50)
        illum = solar_illumination(wl)
        assert illum.max() == pytest.approx(1.0)
        assert illum.min() > 0.0
        # Visible peak above SWIR tail.
        assert illum[np.argmin(np.abs(wl - 600))] > illum[-1]

    def test_functional_shortcut(self):
        cube = generate_cube(bands=8, rows=20, cols=20, seed=0)
        assert cube.shape == (8, 20, 20)

    def test_quicklook_and_paper_cubes(self):
        quick = HydiceGenerator.quicklook_cube(bands=10, rows=24, cols=24)
        assert quick.shape == (10, 24, 24)
        scaled = HydiceGenerator.paper_granularity_cube(scale=0.1, seed=0)
        assert scaled.bands == 105
        assert scaled.rows == 32


class TestSpectralStructure:
    """The properties the fusion algorithm depends on (see ``repro.data.hydice``)."""

    def test_vehicle_pixels_spectrally_distinct_from_forest(self, small_cube):
        labels = small_cube.metadata["label_map"]
        materials = list(small_cube.metadata["materials"])
        matrix = small_cube.as_pixel_matrix()
        labels_flat = labels.reshape(-1)
        forest_mean = matrix[labels_flat == materials.index("forest")].mean(axis=0)
        vehicle_pixels = matrix[labels_flat == materials.index("vehicle")]
        assert vehicle_pixels.shape[0] > 0
        angle = spectral_angles(forest_mean[None, :],
                                vehicle_pixels.mean(axis=0)[None, :])[0, 0]
        assert angle > 0.05

    def test_unique_set_is_much_smaller_than_pixel_count(self, small_cube):
        pixels = small_cube.as_pixel_matrix()
        unique = screen_unique_set(pixels, 0.05, max_unique=4096)
        assert 10 < unique.shape[0] < pixels.shape[0] * 0.5

    def test_unique_set_size_saturates_with_pixel_count(self, small_cube):
        """Screening a quarter of the scene finds a comparable unique set to the
        full scene -- the bounded-diversity property that keeps the distributed
        screening workload nearly decomposition-independent."""
        pixels = small_cube.as_pixel_matrix()
        unique_full = screen_unique_set(pixels, 0.05, max_unique=4096).shape[0]
        unique_quarter = screen_unique_set(pixels[: pixels.shape[0] // 4], 0.05,
                                           max_unique=4096).shape[0]
        assert unique_quarter > unique_full * 0.35

    def test_bands_strongly_correlated(self, small_cube):
        """Adjacent spectral bands of a hyper-spectral cube are highly correlated;
        this is what makes the PCT useful for summarisation."""
        flat = small_cube.data.reshape(small_cube.bands, -1)
        a = flat[small_cube.bands // 2]
        b = flat[small_cube.bands // 2 + 1]
        correlation = np.corrcoef(a, b)[0, 1]
        assert correlation > 0.9

    def test_variant_library_bounded(self):
        config = HydiceConfig(bands=20, rows=32, cols=32, seed=5, variants_per_material=8)
        generator = HydiceGenerator(config)
        cube = generator.generate()
        pixels = cube.as_pixel_matrix()
        unique = screen_unique_set(pixels, 0.05, max_unique=4096)
        # Cannot exceed materials x variants by much (noise adds a few).
        limit = len(config.materials) * config.variants_per_material * 2
        assert unique.shape[0] <= limit
