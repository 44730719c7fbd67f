"""Unit tests for scene generation and the hyper-spectral cube container."""

import numpy as np
import pytest

from repro.data.cube import CubeError, HyperspectralCube
from repro.data.scene import ScenePlacementError, generate_scene, target_capacity


class TestSceneGeneration:
    def test_shape_and_label_range(self):
        scene = generate_scene(64, 64, seed=1)
        assert scene.labels.shape == (64, 64)
        assert scene.abundance.shape == (64, 64)
        assert scene.labels.min() >= 0
        assert scene.labels.max() < len(scene.materials)

    def test_deterministic_for_seed(self):
        a = generate_scene(48, 48, seed=9)
        b = generate_scene(48, 48, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)
        np.testing.assert_allclose(a.abundance, b.abundance)

    def test_different_seeds_differ(self):
        a = generate_scene(48, 48, seed=1)
        b = generate_scene(48, 48, seed=2)
        assert not np.array_equal(a.labels, b.labels)

    def test_vehicle_counts(self):
        scene = generate_scene(96, 96, seed=3, vehicles=2, camouflaged_vehicles=1)
        assert len(scene.vehicles) == 3
        assert sum(1 for v in scene.vehicles if v.camouflaged) == 1

    def test_first_camouflaged_vehicle_in_lower_left(self):
        scene = generate_scene(128, 128, seed=4, camouflaged_vehicles=1)
        camo = [v for v in scene.vehicles if v.camouflaged][0]
        assert camo.row >= 64
        assert camo.col < 64

    def test_target_mask_covers_all_vehicles(self):
        scene = generate_scene(96, 96, seed=5, vehicles=2, camouflaged_vehicles=1)
        mask = scene.target_mask()
        expected = sum(v.height * v.width for v in scene.vehicles)
        assert mask.sum() == expected

    def test_forest_is_dominant_material(self):
        scene = generate_scene(128, 128, seed=0)
        fractions = scene.fractions()
        assert fractions["forest"] == max(fractions.values())

    def test_clutter_increases_minor_material_presence(self):
        plain = generate_scene(96, 96, seed=6, clutter_fraction=0.0)
        cluttered = generate_scene(96, 96, seed=6, clutter_fraction=0.3)
        assert cluttered.fractions()["soil"] >= plain.fractions()["soil"]

    def test_abundance_is_positive_and_near_unity(self):
        scene = generate_scene(64, 64, seed=7)
        assert scene.abundance.min() > 0.3
        assert 0.9 < scene.abundance.mean() < 1.1

    def test_mask_lookup(self):
        scene = generate_scene(64, 64, seed=8)
        assert scene.mask("forest").dtype == bool
        with pytest.raises(KeyError):
            scene.mask("unknown-material")

    def test_scene_too_small_rejected(self):
        with pytest.raises(ValueError):
            generate_scene(4, 4)

    def test_missing_required_material_rejected(self):
        with pytest.raises(ValueError):
            generate_scene(64, 64, materials=("forest", "grass"))

    def test_bad_clutter_fraction_rejected(self):
        with pytest.raises(ValueError):
            generate_scene(64, 64, clutter_fraction=1.0)


class TestTinyScenePlacement:
    """Degenerate-size regression tests: tiny scenes must either place
    their targets or raise the typed placement error -- never crash in the
    RNG bounds or silently overlap targets."""

    def test_tiny_scenes_place_targets_at_capacity(self):
        for rows, cols in [(16, 16), (16, 48), (20, 20), (24, 24), (18, 31)]:
            capacity = target_capacity(rows, cols)
            for seed in range(12):
                scene = generate_scene(rows, cols, seed=seed,
                                       vehicles=capacity,
                                       camouflaged_vehicles=0)
                assert len(scene.vehicles) == capacity

    def test_tiny_scene_hosts_a_camouflaged_target(self):
        # The old quadrant constraint crashed in the RNG bounds below 32px.
        for seed in range(12):
            scene = generate_scene(16, 16, seed=seed, vehicles=0,
                                   camouflaged_vehicles=1)
            assert len(scene.vehicles) == 1
            assert scene.vehicles[0].camouflaged

    def test_placed_targets_never_overlap(self):
        scene = generate_scene(24, 24, seed=5,
                               vehicles=target_capacity(24, 24),
                               camouflaged_vehicles=0)
        boxes = [(v.row, v.col, v.height, v.width) for v in scene.vehicles]
        for i, (r1, c1, h1, w1) in enumerate(boxes):
            for r2, c2, h2, w2 in boxes[i + 1:]:
                disjoint = (r1 + h1 <= r2 or r2 + h2 <= r1
                            or c1 + w1 <= c2 or c2 + w2 <= c1)
                assert disjoint

    def test_impossible_placement_raises_typed_error(self):
        with pytest.raises(ScenePlacementError,
                           match="cannot place|candidate window"):
            generate_scene(16, 16, seed=0, vehicles=12,
                           camouflaged_vehicles=0)

    def test_large_scene_generation_is_unchanged(self):
        # The fallback path only engages when random placement fails;
        # >=32px scenes must consume the RNG exactly as before the fix.
        a = generate_scene(48, 48, seed=9)
        b = generate_scene(48, 48, seed=9)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert [v.row for v in a.vehicles] == [v.row for v in b.vehicles]

    def test_capacity_is_monotone_and_floored(self):
        assert target_capacity(16, 16) == 1
        assert target_capacity(8, 8) >= 1
        assert (target_capacity(48, 48)
                >= target_capacity(32, 32)
                >= target_capacity(16, 16))


class TestHyperspectralCube:
    def make_cube(self, bands=6, rows=8, cols=10):
        data = np.arange(bands * rows * cols, dtype=np.float32).reshape(bands, rows, cols)
        wavelengths = np.linspace(400, 2500, bands)
        return HyperspectralCube(data, wavelengths)

    def test_properties(self):
        cube = self.make_cube()
        assert cube.shape == (6, 8, 10)
        assert cube.pixels == 80
        assert cube.nbytes_estimate() >= cube.data.nbytes

    def test_dimension_validation(self):
        with pytest.raises(CubeError):
            HyperspectralCube(np.zeros((4, 4)), np.linspace(400, 500, 4))

    def test_wavelength_length_validation(self):
        with pytest.raises(CubeError):
            HyperspectralCube(np.zeros((3, 4, 4)), np.linspace(400, 500, 5))

    def test_wavelengths_must_ascend(self):
        with pytest.raises(CubeError):
            HyperspectralCube(np.zeros((3, 4, 4)), np.array([500.0, 400.0, 600.0]))

    def test_pixel_matrix_round_trip(self):
        cube = self.make_cube()
        matrix = cube.as_pixel_matrix()
        assert matrix.shape == (80, 6)
        np.testing.assert_array_equal(matrix.T.reshape(cube.shape), cube.data)

    def test_pixel_matrix_matches_indexing(self):
        cube = self.make_cube()
        matrix = cube.as_pixel_matrix()
        # Pixel (row=2, col=3) across bands.
        np.testing.assert_allclose(matrix[2 * cube.cols + 3], cube.data[:, 2, 3])

    def test_band_access(self):
        cube = self.make_cube()
        assert cube.band(2).shape == (8, 10)
        with pytest.raises(CubeError):
            cube.band(99)

    def test_band_nearest(self):
        cube = self.make_cube(bands=22)
        index, frame = cube.band_nearest(400.0)
        assert index == 0
        index_last, _ = cube.band_nearest(2500.0)
        assert index_last == cube.bands - 1
        index_mid, _ = cube.band_nearest(1450.0)
        assert 0 < index_mid < cube.bands - 1

    def test_save_and_load_npz(self, tmp_path):
        cube = self.make_cube()
        cube.metadata["label_map"] = np.ones((8, 10), dtype=np.int16)
        path = str(tmp_path / "cube.npz")
        cube.save_npz(path)
        loaded = HyperspectralCube.load_npz(path)
        np.testing.assert_allclose(loaded.data, cube.data)
        np.testing.assert_allclose(loaded.wavelengths_nm, cube.wavelengths_nm)
        assert "label_map" in loaded.metadata
