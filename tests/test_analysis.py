"""Unit tests for the evaluation utilities (speed-up, quality, reporting)."""

import numpy as np
import pytest

from repro.analysis.quality import (band_contrast, best_band_contrast,
                                    enhancement_report, rms_contrast,
                                    target_contrast)
from repro.analysis.report import (dict_table, figure4_table, figure5_table,
                                   format_table, overhead_table)
from repro.analysis.speedup import (OverheadDecomposition, SpeedupCurve,
                                    SpeedupPoint, mean_protocol_overhead,
                                    overhead_decomposition)


class TestSpeedupCurve:
    def linear_curve(self, base=100.0):
        curve = SpeedupCurve("plain")
        for processors in (1, 2, 4, 8, 16):
            curve.add(processors, base / processors)
        return curve

    def test_point_validation(self):
        with pytest.raises(ValueError):
            SpeedupPoint(0, 1.0)
        with pytest.raises(ValueError):
            SpeedupPoint(2, 0.0)

    def test_perfect_scaling(self):
        curve = self.linear_curve()
        speedup = curve.speedup()
        efficiency = curve.efficiency()
        assert speedup[16] == pytest.approx(16.0)
        assert all(e == pytest.approx(1.0) for e in efficiency.values())
        assert curve.worst_efficiency() == pytest.approx(1.0)

    def test_sub_linear_scaling(self):
        curve = SpeedupCurve("real")
        curve.add(1, 100.0).add(2, 60.0).add(4, 40.0)
        efficiency = curve.efficiency()
        assert efficiency[2] == pytest.approx(100 / 60 / 2)
        assert curve.worst_efficiency() < 1.0

    def test_explicit_baseline(self):
        curve = SpeedupCurve("resilient")
        curve.add(2, 110.0).add(4, 55.0)
        speedup = curve.speedup(baseline_seconds=200.0)
        assert speedup[2] == pytest.approx(200.0 / 110.0)

    def test_baseline_normalised_to_one_processor(self):
        curve = SpeedupCurve("starts-at-two")
        curve.add(2, 50.0).add(4, 25.0)
        # baseline = 50 * 2 = 100 equivalent one-processor seconds
        assert curve.speedup()[4] == pytest.approx(4.0)

    def test_time_at(self):
        curve = self.linear_curve()
        assert curve.time_at(4) == pytest.approx(25.0)
        with pytest.raises(KeyError):
            curve.time_at(3)

    def test_empty_curve_rejected(self):
        with pytest.raises(ValueError):
            SpeedupCurve("empty").baseline_seconds()


class TestOverheadDecomposition:
    def test_paper_style_decomposition(self):
        plain = SpeedupCurve("plain")
        resilient = SpeedupCurve("resilient")
        for processors in (1, 2, 4):
            plain.add(processors, 100.0 / processors)
            resilient.add(processors, 220.0 / processors)  # 2x replication + 10%
        decompositions = overhead_decomposition(plain, resilient, replication_level=2)
        assert len(decompositions) == 3
        for d in decompositions:
            assert d.total_slowdown == pytest.approx(2.2)
            assert d.protocol_overhead_fraction == pytest.approx(0.10)
        assert mean_protocol_overhead(decompositions) == pytest.approx(0.10)

    def test_unmatched_processor_counts_skipped(self):
        plain = SpeedupCurve("plain").add(1, 10.0).add(2, 5.0)
        resilient = SpeedupCurve("res").add(2, 11.0)
        decompositions = overhead_decomposition(plain, resilient, 2)
        assert len(decompositions) == 1
        assert decompositions[0].processors == 2

    def test_mean_requires_data(self):
        with pytest.raises(ValueError):
            mean_protocol_overhead([])


class TestQualityMetrics:
    def synthetic_image(self, offset=3.0):
        rng = np.random.default_rng(0)
        image = rng.normal(1.0, 0.1, size=(40, 40))
        mask = np.zeros((40, 40), dtype=bool)
        mask[18:22, 18:25] = True
        image[mask] += offset
        return image, mask

    def test_target_contrast_detects_bright_target(self):
        image, mask = self.synthetic_image(offset=3.0)
        strong = target_contrast(image, mask)
        weak = target_contrast(*self.synthetic_image(offset=0.3))
        assert strong > weak > 0

    def test_target_contrast_rgb_combines_channels(self):
        image, mask = self.synthetic_image()
        rgb = np.stack([image, image, image], axis=-1)
        assert target_contrast(rgb, mask) >= target_contrast(image, mask)

    def test_chromatic_only_difference_detected(self):
        """A target that differs only in colour (not luminance) still scores."""
        rng = np.random.default_rng(1)
        rgb = rng.normal(0.5, 0.02, size=(32, 32, 3))
        mask = np.zeros((32, 32), dtype=bool)
        mask[10:14, 10:16] = True
        rgb[mask, 0] += 0.2
        rgb[mask, 1] -= 0.2
        assert target_contrast(rgb, mask) > 3.0

    def test_empty_mask_rejected(self):
        image, _ = self.synthetic_image()
        with pytest.raises(ValueError):
            target_contrast(image, np.zeros_like(image, dtype=bool))

    def test_rms_contrast(self):
        flat = np.full((10, 10), 2.0)
        assert rms_contrast(flat) == 0.0
        varied = np.concatenate([np.full(50, 1.0), np.full(50, 3.0)]).reshape(10, 10)
        assert rms_contrast(varied) > 0.4

    def test_band_and_best_band_contrast(self, small_cube):
        mask = small_cube.metadata["target_mask"]
        single = band_contrast(small_cube, mask, wavelength_nm=860)
        assert single > 0
        best_index, best = best_band_contrast(small_cube, mask, stride=1)
        assert best >= single * 0.99
        assert 0 <= best_index < small_cube.bands

    def test_enhancement_report_keys(self, small_cube):
        mask = small_cube.metadata["target_mask"]
        composite = np.repeat(small_cube.band(0)[..., None], 3, axis=-1)
        composite = composite / composite.max()
        report = enhancement_report(small_cube, composite, mask)
        for key in ("raw_contrast", "fused_contrast", "enhancement_factor"):
            assert key in report


class TestReportFormatting:
    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.23456], ["bb", 7]])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        assert "1.235" in lines[2]

    def test_figure4_table_contains_series(self):
        plain = SpeedupCurve("plain").add(1, 100.0).add(2, 55.0)
        resilient = SpeedupCurve("res").add(1, 210.0).add(2, 115.0)
        table = figure4_table(plain, resilient)
        assert "Figure 4" in table
        assert "processors" in table
        assert "100.000" in table
        assert "210.000" in table

    def test_figure5_table_multipliers(self):
        curves = {1: SpeedupCurve("m1").add(2, 40.0).add(4, 22.0),
                  2: SpeedupCurve("m2").add(2, 30.0).add(4, 18.0)}
        table = figure5_table(curves)
        assert "x 1" in table and "x 2" in table
        assert "40.000" in table

    def test_overhead_table(self):
        decomposition = OverheadDecomposition(processors=4, plain_seconds=10.0,
                                              resilient_seconds=22.0, replication_level=2)
        table = overhead_table([decomposition])
        assert "protocol_overhead" in table
        assert "4" in table

    def test_dict_table(self):
        table = dict_table("summary", {"workers": 4, "time": 1.5})
        assert "summary" in table and "workers" in table
