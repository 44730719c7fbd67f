"""The percentile / sample-count rule and the spread the driver computes."""

import statistics

import pytest

from e2e.stats import (percentile, quartiles, samples_beyond, spread, summarize,
                       supported_percentile)


def test_percentile_interpolates_like_numpy_linear():
    samples = [4.0, 1.0, 3.0, 2.0]
    assert percentile(samples, 0) == 1.0
    assert percentile(samples, 50) == 2.5
    assert percentile(samples, 100) == 4.0
    assert percentile(samples, 90) == pytest.approx(3.7)
    assert percentile([7.0], 90) == 7.0


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize("count, expected", [
    (5, 50.0),      # nothing is supported; the median is the fallback
    (20, 50.0),     # exactly ten samples beyond the median
    (39, 50.0),
    (40, 75.0),
    (49, 75.0),
    (50, 80.0),
    (99, 80.0),     # 9.9 samples beyond p90 is not ten
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (1000, 99.0),
])
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert supported_percentile(count) == expected


def test_samples_beyond_counts_the_tail():
    assert samples_beyond(100, 90) == 10
    assert samples_beyond(80, 90) == 8
    assert samples_beyond(20, 50) == 10


def test_summarize_reports_count_and_supported_tail():
    summary = summarize([float(value) for value in range(1, 101)])
    assert summary["n"] == 100
    assert summary["tail_percentile"] == 90.0
    assert summary["p50"] == 50.5
    assert summary["tail"] == pytest.approx(90.1)


def test_spread_is_the_drivers_interquartile_share_of_the_median():
    values = [10.0, 10.4, 9.8, 10.1, 10.9, 9.5, 10.0, 10.2, 9.9, 10.3]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert quartiles(values) == {"q1": q1, "median": q2, "q3": q3}


def test_spread_of_fewer_than_two_runs_is_zero():
    assert spread([3.0]) == 0.0
    assert quartiles([3.0]) is None
