"""``run.py compare``: per metric x workload verdicts, including unresolved."""

import json

import pytest

from e2e.compare import compare, compare_main, verdict

BENCHMARK = {
    "workloads": [{"name": "w1", "why": ""}, {"name": "w2", "why": ""}],
    "end_to_end": [
        {"name": "latency_s_p50", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "throughput_cubes_per_s", "unit": "cubes/s", "better": "higher", "bound": 0.10},
    ],
}

STEADY = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]


def _scaled(values, factor):
    return [value * factor for value in values]


def test_within_bound_and_steady_is_unchanged():
    assert verdict(STEADY, _scaled(STEADY, 1.05), better="lower", bound=0.10) == "unchanged"
    assert verdict(STEADY, _scaled(STEADY, 0.995), better="higher", bound=0.10) == "unchanged"


def test_worse_by_more_than_the_bound_is_regressed_in_the_metrics_direction():
    assert verdict(STEADY, _scaled(STEADY, 1.2), better="lower", bound=0.10) == "regressed"
    assert verdict(STEADY, _scaled(STEADY, 0.8), better="higher", bound=0.10) == "regressed"
    # the same move in the good direction is an improvement, not a regression
    assert verdict(STEADY, _scaled(STEADY, 0.8), better="lower", bound=0.10) == "improved"
    assert verdict(STEADY, _scaled(STEADY, 1.2), better="higher", bound=0.10) == "improved"


def test_spread_wider_than_the_bound_with_overlap_is_unresolved():
    noisy_a = [1.0, 1.4, 0.7, 1.2, 0.8, 1.3, 0.9, 1.1, 0.75, 1.35]
    noisy_b = [1.05, 1.45, 0.72, 1.25, 0.85, 1.3, 0.95, 1.15, 0.8, 1.4]
    assert verdict(noisy_a, noisy_b, better="lower", bound=0.10) == "unresolved"


def test_wide_spread_is_resolved_when_every_run_of_one_side_beats_the_other():
    noisy_a = [1.0, 1.4, 0.7, 1.2, 0.8, 1.3, 0.9, 1.1, 0.75, 1.35]
    assert verdict(noisy_a, _scaled(noisy_a, 0.4), better="lower", bound=0.10) == "improved"
    assert verdict(noisy_a, _scaled(noisy_a, 2.5), better="lower", bound=0.10) == "regressed"


def test_single_runs_are_compared_on_their_values():
    assert verdict([1.0], [1.05], better="lower", bound=0.10) == "unchanged"
    assert verdict([1.0], [1.5], better="lower", bound=0.10) == "regressed"


def test_unknown_direction_is_rejected():
    with pytest.raises(ValueError):
        verdict([1.0], [1.0], better="sideways", bound=0.1)


def _results(latency_factor=1.0, failed=0, workloads=("w1", "w2")):
    runs = []
    for workload in workloads:
        for seed, value in enumerate(STEADY):
            runs.append({"workload": workload, "seed": seed, "trace": 0, "attempted": 50,
                         "failed": failed, "correct": failed == 0,
                         "metrics": {
                             "latency_s_p50": {"value": value * latency_factor, "unit": "s"},
                             "throughput_cubes_per_s": {"value": 3.0 / value, "unit": "cubes/s"}}})
        runs.append({"workload": workload, "seed": 0, "trace": 1, "attempted": 5, "failed": 0,
                     "correct": True, "metrics": {}})  # traced runs are never gated
    return {"runs": runs}


def test_compare_has_one_row_per_metric_and_workload_plus_failed_share():
    rows = compare(_results(), _results(), BENCHMARK)
    assert [(row["workload"], row["metric"]) for row in rows] == [
        ("w1", "latency_s_p50"), ("w1", "throughput_cubes_per_s"), ("w1", "failed_share"),
        ("w2", "latency_s_p50"), ("w2", "throughput_cubes_per_s"), ("w2", "failed_share")]
    assert {row["verdict"] for row in rows} == {"unchanged"}
    assert "(n=10)" in rows[0]["a"]


def test_any_rise_of_failed_share_is_a_regression():
    rows = compare(_results(), _results(failed=1), BENCHMARK)
    assert [row["verdict"] for row in rows if row["metric"] == "failed_share"] == [
        "regressed", "regressed"]


def test_a_workload_missing_from_one_side_is_reported():
    rows = compare(_results(), _results(workloads=("w1",)), BENCHMARK)
    assert {"workload": "w2", "metric": "*", "verdict": "missing",
            "a": "10 runs", "b": "0 runs"} in rows


def test_compare_main_exits_non_zero_on_regression(tmp_path, capsys):
    a, b, c = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "c.json"
    a.write_text(json.dumps(_results()))
    b.write_text(json.dumps(_results(latency_factor=1.02)))
    c.write_text(json.dumps(_results(latency_factor=1.3)))
    assert compare_main([str(a), str(b)], BENCHMARK) == 0
    assert compare_main([str(a), str(c)], BENCHMARK) == 1
    assert "regressed" in capsys.readouterr().out
    assert compare_main([str(a)], BENCHMARK) == 2
