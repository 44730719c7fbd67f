"""Unit tests for the configuration dataclasses."""

import dataclasses

import pytest

from repro.config import (PAPER_SETUP, ConfigurationError, FusionConfig,
                          PartitionConfig, ResilienceConfig, ScreeningConfig)


class TestScreeningConfig:
    def test_defaults_are_valid(self):
        config = ScreeningConfig()
        assert 0.0 < config.angle_threshold < 1.0
        assert config.max_unique is None or config.max_unique > 0

    def test_rejects_nonpositive_threshold(self):
        with pytest.raises(ConfigurationError):
            ScreeningConfig(angle_threshold=0.0)

    def test_rejects_threshold_above_right_angle(self):
        with pytest.raises(ConfigurationError):
            ScreeningConfig(angle_threshold=2.0)

    def test_rejects_zero_max_unique(self):
        with pytest.raises(ConfigurationError):
            ScreeningConfig(max_unique=0)

    def test_none_max_unique_allowed(self):
        assert ScreeningConfig(max_unique=None).max_unique is None

    def test_rejects_zero_stride(self):
        with pytest.raises(ConfigurationError):
            ScreeningConfig(sample_stride=0)

    def test_frozen(self):
        config = ScreeningConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.angle_threshold = 0.2  # type: ignore[misc]


class TestPartitionConfig:
    def test_effective_subcubes_defaults_to_workers(self):
        assert PartitionConfig(workers=5).effective_subcubes == 5

    def test_effective_subcubes_explicit(self):
        assert PartitionConfig(workers=4, subcubes=12).effective_subcubes == 12

    def test_rejects_zero_workers(self):
        with pytest.raises(ConfigurationError):
            PartitionConfig(workers=0)

    def test_rejects_subcubes_below_workers(self):
        with pytest.raises(ConfigurationError):
            PartitionConfig(workers=4, subcubes=2)


class TestResilienceConfig:
    def test_paper_defaults(self):
        config = ResilienceConfig()
        assert config.replication_level == 2
        assert config.regenerate is True

    def test_rejects_zero_replication(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(replication_level=0)

    def test_rejects_negative_heartbeat(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(heartbeat_period=0.0)

    def test_rejects_overhead_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ResilienceConfig(protocol_overhead=1.5)

    def test_level_one_is_allowed(self):
        assert ResilienceConfig(replication_level=1).replication_level == 1


class TestFusionConfig:
    def test_with_resilience(self):
        base = FusionConfig()
        assert base.resilience is None
        derived = base.with_resilience(ResilienceConfig(replication_level=3))
        assert derived.resilience.replication_level == 3
        assert base.resilience is None

    def test_with_resilience_none_clears(self):
        config = FusionConfig(resilience=ResilienceConfig())
        assert config.with_resilience(None).resilience is None

    def test_nested_defaults(self):
        config = FusionConfig()
        assert config.screening.angle_threshold > 0
        assert config.colormap.normalize_components is True


class TestPaperSetup:
    def test_figure4_processor_sweep(self):
        assert PAPER_SETUP.figure4_processors == (1, 2, 4, 8, 16)

    def test_figure5_sweep(self):
        assert PAPER_SETUP.figure5_processors == (2, 4, 8, 16)
        assert PAPER_SETUP.figure5_multipliers == (1, 2, 3)

    def test_granularity_cube_shape(self):
        bands, rows, cols = PAPER_SETUP.cube_shape
        assert (bands, rows, cols) == (105, 320, 320)

    def test_resiliency_level_two(self):
        assert PAPER_SETUP.resiliency_level == 2

    def test_tail_off_constant(self):
        assert PAPER_SETUP.tail_off_subcubes == 32
