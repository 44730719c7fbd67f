"""Unit tests for the spectral signature library and the noise model."""

import numpy as np
import pytest

from repro.core.steps.screening import spectral_angles
from repro.data.noise import NoiseModel, apply_sensor_noise, band_noise_sigma
from repro.data.signatures import (HYDICE_MAX_NM, HYDICE_MIN_NM,
                                   available_materials, get_signature,
                                   signature_matrix)

WAVELENGTHS = np.linspace(HYDICE_MIN_NM, HYDICE_MAX_NM, 120)


def angle_between(a, b):
    """The screening step's angle between two single spectra."""
    return spectral_angles(a[None, :], b[None, :])[0, 0]


class TestSignatures:
    def test_library_contains_paper_materials(self):
        materials = available_materials()
        for required in ("forest", "vehicle", "camouflage", "grass", "road"):
            assert required in materials

    def test_unknown_material_raises(self):
        with pytest.raises(KeyError):
            get_signature("unobtainium")

    def test_reflectance_bounded(self):
        for name in available_materials():
            reflectance = get_signature(name).reflectance(WAVELENGTHS)
            assert reflectance.shape == WAVELENGTHS.shape
            assert np.all(reflectance >= 0.0)
            assert np.all(reflectance <= 1.0)

    def test_signature_matrix_shape(self):
        matrix = signature_matrix(["forest", "soil"], WAVELENGTHS)
        assert matrix.shape == (2, len(WAVELENGTHS))

    def test_vegetation_red_edge(self):
        """Vegetation must reflect far more in the NIR than in the red."""
        forest = get_signature("forest").reflectance(WAVELENGTHS)
        red = forest[np.argmin(np.abs(WAVELENGTHS - 660))]
        nir = forest[np.argmin(np.abs(WAVELENGTHS - 860))]
        assert nir > 2.5 * red

    def test_vehicle_lacks_red_edge(self):
        vehicle = get_signature("vehicle").reflectance(WAVELENGTHS)
        red = vehicle[np.argmin(np.abs(WAVELENGTHS - 660))]
        nir = vehicle[np.argmin(np.abs(WAVELENGTHS - 860))]
        assert nir < 2.0 * max(red, 1e-6)

    def test_camouflage_differs_from_forest_in_nir_swir(self):
        """The camouflage net mimics vegetation in the visible but not beyond --
        the property the screening step must preserve."""
        forest = get_signature("forest").reflectance(WAVELENGTHS)
        camo = get_signature("camouflage").reflectance(WAVELENGTHS)
        angle = angle_between(forest, camo)
        assert angle > 0.05

    def test_spectral_angle_properties(self):
        a = get_signature("forest").reflectance(WAVELENGTHS)
        assert angle_between(a, a) == pytest.approx(0.0, abs=1e-6)
        # Scaling a spectrum (brightness) never changes its angle.
        assert angle_between(a, 3.0 * a) == pytest.approx(0.0, abs=1e-6)
        b = get_signature("road").reflectance(WAVELENGTHS)
        assert angle_between(a, b) == pytest.approx(angle_between(b, a))
        assert 0.0 <= angle_between(a, b) <= np.pi / 2 + 1e-9

    def test_spectral_angle_of_zero_vector(self):
        assert angle_between(np.zeros(10), np.ones(10)) == pytest.approx(np.pi / 2)

    def test_water_absorption_dips_present(self):
        forest = get_signature("forest").reflectance(WAVELENGTHS)
        at_1400 = forest[np.argmin(np.abs(WAVELENGTHS - 1400))]
        at_1250 = forest[np.argmin(np.abs(WAVELENGTHS - 1250))]
        assert at_1400 < at_1250


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(base_snr=0)
        with pytest.raises(ValueError):
            NoiseModel(dead_column_fraction=1.5)
        with pytest.raises(ValueError):
            NoiseModel(spectral_smoothing=-1)

    def test_band_noise_sigma_higher_in_absorption_bands(self):
        model = NoiseModel(base_snr=100, absorption_snr=20)
        signal = np.ones_like(WAVELENGTHS)
        sigma = band_noise_sigma(WAVELENGTHS, signal, model)
        clean_band = np.argmin(np.abs(WAVELENGTHS - 800))
        absorption_band = np.argmin(np.abs(WAVELENGTHS - 1400))
        assert sigma[absorption_band] > 2 * sigma[clean_band]

    def test_apply_noise_preserves_shape_and_dtype(self, rng):
        cube = np.ones((20, 16, 16), dtype=np.float64) * 100.0
        noisy = apply_sensor_noise(cube, np.linspace(400, 2500, 20), NoiseModel(), rng)
        assert noisy.shape == cube.shape
        assert noisy.dtype == np.float32
        assert np.all(noisy >= 0)

    def test_noise_magnitude_matches_snr(self, rng):
        cube = np.full((30, 32, 32), 1000.0)
        model = NoiseModel(base_snr=50, absorption_snr=50, spectral_smoothing=0)
        noisy = apply_sensor_noise(cube, np.linspace(400, 1300, 30), model, rng)
        relative = (noisy - 1000.0) / 1000.0
        assert 0.01 < relative.std() < 0.04

    def test_input_not_mutated(self, rng):
        cube = np.full((5, 8, 8), 10.0)
        original = cube.copy()
        apply_sensor_noise(cube, np.linspace(400, 900, 5), NoiseModel(), rng)
        np.testing.assert_array_equal(cube, original)

    def test_dead_columns(self, rng):
        cube = np.full((10, 16, 32), 500.0)
        model = NoiseModel(dead_column_fraction=0.25, spectral_smoothing=0)
        noisy = apply_sensor_noise(cube, np.linspace(400, 900, 10), model, rng)
        column_means = noisy.mean(axis=(0, 1))
        assert np.sum(column_means < 1.0) == 8

    def test_striping(self, rng):
        cube = np.full((10, 16, 32), 500.0)
        model = NoiseModel(stripe_amplitude=0.2, base_snr=1e6, absorption_snr=1e6,
                           spectral_smoothing=0)
        noisy = apply_sensor_noise(cube, np.linspace(400, 900, 10), model, rng)
        column_means = noisy.mean(axis=(0, 1))
        assert column_means.std() > 10.0

    def test_deterministic_given_rng_seed(self):
        cube = np.full((10, 8, 8), 100.0)
        wl = np.linspace(400, 900, 10)
        a = apply_sensor_noise(cube, wl, NoiseModel(), np.random.default_rng(5))
        b = apply_sensor_noise(cube, wl, NoiseModel(), np.random.default_rng(5))
        np.testing.assert_array_equal(a, b)
