"""Tests for the ASCII figure rendering and the experiment runners."""

import pytest

from repro.analysis.figures import figure4_chart, figure5_chart, line_chart
from repro.analysis.speedup import SpeedupCurve
from repro.experiments import (run_figure4, run_figure5,
                               run_shared_memory_comparison)


def make_curve(label, base=100.0, efficiency=1.0, processors=(1, 2, 4)):
    curve = SpeedupCurve(label)
    for p in processors:
        curve.add(p, base / (p * efficiency) if p > 1 else base)
    return curve


class TestLineChart:
    def test_basic_rendering_contains_markers_and_labels(self):
        chart = line_chart({"a": [(1, 10.0), (2, 5.0)], "b": [(1, 20.0), (2, 10.0)]},
                           x_label="processors", y_label="time", title="demo")
        assert "demo" in chart
        assert "o" in chart and "x" in chart
        assert "processors" in chart
        assert "a" in chart and "b" in chart

    def test_log_axes_reject_nonpositive(self):
        with pytest.raises(ValueError):
            line_chart({"a": [(0.0, 1.0)]}, log_x=True)
        with pytest.raises(ValueError):
            line_chart({"a": [(1.0, 0.0)]}, log_y=True)

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            line_chart({})
        with pytest.raises(ValueError):
            line_chart({"a": []})

    def test_single_point_handled(self):
        chart = line_chart({"only": [(4, 2.0)]})
        assert "only" in chart

    def test_dimensions_respected(self):
        chart = line_chart({"a": [(1, 1.0), (10, 10.0)]}, width=30, height=10)
        plot_lines = [line for line in chart.splitlines() if "|" in line]
        assert len(plot_lines) == 10
        assert all(len(line) <= 30 + 12 for line in plot_lines)

    def test_overlapping_series_marked(self):
        samples = [(1, 10.0), (2, 5.0)]
        chart = line_chart({"a": samples, "b": samples})
        assert "*" in chart

    def test_figure4_chart(self):
        plain = make_curve("no resiliency", processors=(1, 2, 4, 8, 16))
        resilient = make_curve("resiliency level 2", base=210.0,
                               processors=(1, 2, 4, 8, 16))
        chart = figure4_chart(plain, resilient)
        assert "Figure 4" in chart
        assert "no resiliency" in chart
        assert "resiliency level 2" in chart

    def test_figure5_chart(self):
        curves = {1: make_curve("m1", efficiency=0.8, processors=(2, 4, 8)),
                  2: make_curve("m2", efficiency=0.9, processors=(2, 4, 8)),
                  3: make_curve("m3", efficiency=0.95, processors=(2, 4, 8))}
        chart = figure5_chart(curves)
        assert "Figure 5" in chart
        assert "x 3" in chart


@pytest.fixture(scope="module")
def experiment_cube():
    from repro.data.hydice import HydiceConfig, HydiceGenerator
    return HydiceGenerator(HydiceConfig(bands=24, rows=48, cols=48, seed=19)).generate()


class TestRunFigure4:
    @pytest.fixture(scope="class")
    def result(self, experiment_cube):
        return run_figure4(experiment_cube, processors=(1, 2, 4), subcubes=8)

    def test_curves_cover_requested_processors(self, result):
        assert sorted(p.processors for p in result.plain.sorted_points()) == [1, 2, 4]
        assert sorted(p.processors for p in result.resilient.sorted_points()) == [1, 2, 4]

    def test_resilient_costs_more(self, result):
        for p in (1, 2, 4):
            assert result.resilient.time_at(p) > result.plain.time_at(p)

    def test_decompositions_and_overhead(self, result):
        assert len(result.decompositions) == 3
        assert -0.5 < result.mean_protocol_overhead() < 0.5
        assert 0 < result.worst_efficiency() <= 1.05

    def test_report_contains_table_and_chart(self, result):
        report = result.report()
        assert "Figure 4" in report
        assert "protocol overhead" in report
        assert "processors" in report

    def test_metrics_recorded_per_run(self, result):
        assert (2, False) in result.per_run_metrics
        assert (2, True) in result.per_run_metrics
        assert result.per_run_metrics[(2, True)].replication_level == 2


class TestRunFigure5:
    @pytest.fixture(scope="class")
    def result(self, experiment_cube):
        return run_figure5(experiment_cube, processors=(2, 4), multipliers=(1, 2),
                           tail_off_subcubes=(8, 16), tail_off_workers=4)

    def test_curves_per_multiplier(self, result):
        assert set(result.curves) == {1, 2}
        for curve in result.curves.values():
            assert sorted(p.processors for p in curve.sorted_points()) == [2, 4]

    def test_tail_off_recorded(self, result):
        assert set(result.tail_off) == {8, 16}
        assert result.best_subcubes() in (8, 16)

    def test_improvement_metric(self, result):
        value = result.improvement_from_overlap(4)
        assert -1.0 < value < 1.0

    def test_report(self, result):
        report = result.report()
        assert "Figure 5" in report
        assert "tail-off" in report.lower()


class TestSharedMemoryComparison:
    def test_smp_at_least_as_efficient(self, experiment_cube):
        result = run_shared_memory_comparison(experiment_cube, processors=(1, 2, 4),
                                              subcubes=8)
        assert result.smp_worst_efficiency() >= result.lan_worst_efficiency() - 1e-9
        report = result.report()
        assert "Shared-memory" in report


class TestCLIFigureCommands:
    def test_figure4_command(self, capsys):
        from repro.cli import main
        assert main(["figure4", "--scale", "0.12", "--bands", "24",
                     "--processors", "1", "2", "--subcubes", "8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out

    def test_figure5_command(self, capsys):
        from repro.cli import main
        assert main(["figure5", "--scale", "0.12", "--bands", "16",
                     "--processors", "2", "4", "--multipliers", "1", "2",
                     "--no-tail-off"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
