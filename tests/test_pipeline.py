"""Tests of the sequential spectral-screening PCT reference implementation."""

import numpy as np
import pytest

from repro.analysis.quality import target_contrast
from repro.baselines.plain_pct import PlainPCT
from repro.config import FusionConfig, PartitionConfig, ScreeningConfig
from repro.core.pipeline import FusionResult, SpectralScreeningPCT


class TestFusePipeline:
    def test_output_shapes(self, small_cube, fast_config):
        result = SpectralScreeningPCT(fast_config).fuse(small_cube)
        assert isinstance(result, FusionResult)
        assert result.composite.shape == (small_cube.rows, small_cube.cols, 3)
        assert result.components.shape == (small_cube.rows, small_cube.cols, 3)
        assert result.basis.bands == small_cube.bands

    def test_composite_in_unit_range(self, small_cube, fast_config):
        result = SpectralScreeningPCT(fast_config).fuse(small_cube)
        assert result.composite.min() >= 0.0
        assert result.composite.max() <= 1.0

    def test_unique_set_recorded(self, small_cube, fast_config):
        result = SpectralScreeningPCT(fast_config).fuse(small_cube)
        assert 0 < result.unique_set_size <= fast_config.screening.max_unique

    def test_deterministic(self, small_cube, fast_config):
        a = SpectralScreeningPCT(fast_config).fuse(small_cube)
        b = SpectralScreeningPCT(fast_config).fuse(small_cube)
        np.testing.assert_array_equal(a.composite, b.composite)

    def test_composite_has_contrast(self, small_cube, fast_config):
        """The fused image must not be flat -- Figure 3 shows improved contrast."""
        result = SpectralScreeningPCT(fast_config).fuse(small_cube)
        assert result.composite.std() > 0.01

    def test_target_enhanced_in_composite(self, small_cube, fast_config):
        """Vehicles (including the camouflaged one) stand out against foliage."""
        result = SpectralScreeningPCT(fast_config).fuse(small_cube)
        mask = small_cube.metadata["target_mask"]
        contrast = target_contrast(result.composite, mask)
        assert contrast > 1.0

    def test_screening_improves_or_matches_plain_pct_contrast(self, small_cube, fast_config):
        """Spectral screening is motivated by target de-emphasis in plain PCT;
        the screened composite should separate the rare target at least as well."""
        mask = small_cube.metadata["target_mask"]
        screened = SpectralScreeningPCT(fast_config).fuse(small_cube)
        plain = PlainPCT(fast_config).fuse(small_cube)
        screened_contrast = target_contrast(screened.composite, mask)
        plain_contrast = target_contrast(plain.composite, mask)
        assert screened_contrast >= plain_contrast * 0.8

    def test_partition_config_changes_are_consistent(self, small_cube):
        """Using more sub-cubes changes the screening decomposition but the
        composite stays closely similar (same materials survive screening)."""
        one = SpectralScreeningPCT(FusionConfig(
            partition=PartitionConfig(workers=1, subcubes=1))).fuse(small_cube)
        four = SpectralScreeningPCT(FusionConfig(
            partition=PartitionConfig(workers=2, subcubes=4))).fuse(small_cube)
        assert one.composite.shape == four.composite.shape
        correlation = np.corrcoef(one.composite.ravel(), four.composite.ravel())[0, 1]
        assert correlation > 0.8

    def test_threshold_affects_unique_size(self, small_cube):
        tight = SpectralScreeningPCT(FusionConfig(
            screening=ScreeningConfig(angle_threshold=0.03))).fuse(small_cube)
        loose = SpectralScreeningPCT(FusionConfig(
            screening=ScreeningConfig(angle_threshold=0.15))).fuse(small_cube)
        assert tight.unique_set_size > loose.unique_set_size

    def test_phase_flops_populated(self, small_cube, fast_config):
        result = SpectralScreeningPCT(fast_config).fuse(small_cube)
        for phase in ("screening", "projection", "eigendecomposition", "covariance"):
            assert result.phase_flops[phase] > 0
        assert result.total_flops() > 0

    def test_requires_three_components(self):
        with pytest.raises(ValueError):
            SpectralScreeningPCT(n_components=2)

    def test_metadata_echoes_configuration(self, small_cube, fast_config):
        result = SpectralScreeningPCT(fast_config).fuse(small_cube)
        assert result.metadata["mode"] == "sequential"
        assert result.metadata["bands"] == small_cube.bands
        assert "stretch_mean" in result.metadata


class TestPlainPCTBaseline:
    def test_output_shapes(self, small_cube, fast_config):
        result = PlainPCT(fast_config).fuse(small_cube)
        assert result.composite.shape == (small_cube.rows, small_cube.cols, 3)
        assert result.metadata["mode"] == "plain-pct"

    def test_statistics_use_every_pixel(self, small_cube, fast_config):
        result = PlainPCT(fast_config).fuse(small_cube)
        assert result.unique_set_size == small_cube.pixels

    def test_stride_reduces_statistics_sample(self, small_cube, fast_config):
        result = PlainPCT(fast_config, statistics_stride=4).fuse(small_cube)
        assert result.unique_set_size == small_cube.pixels // 4

    def test_validation(self):
        with pytest.raises(ValueError):
            PlainPCT(n_components=2)
        with pytest.raises(ValueError):
            PlainPCT(statistics_stride=0)

    def test_composite_differs_from_screened(self, small_cube, fast_config):
        plain = PlainPCT(fast_config).fuse(small_cube)
        screened = SpectralScreeningPCT(fast_config).fuse(small_cube)
        assert not np.allclose(plain.composite, screened.composite)
