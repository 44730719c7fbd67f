"""Sample statistics shared by the harness, the probes and ``compare``.

Two rules from the metrics guide live here so that every number the
benchmark prints follows them the same way:

* a timing is reported as a median plus the highest percentile that still
  has at least ten samples beyond it (:func:`supported_percentile`), with the
  sample count printed beside it;
* run-to-run spread is the distance between the first and third quartile as
  a share of the median (:func:`spread`), exactly as the driver computes it
  with :func:`statistics.quantiles`.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence

#: Samples that must lie beyond a percentile before it may be reported.
MIN_SAMPLES_BEYOND = 10

#: Percentiles the harness is willing to name, lowest first.
CANDIDATE_PERCENTILES = (50.0, 75.0, 80.0, 90.0, 95.0, 99.0)


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation.

    Same definition as ``numpy.percentile`` (method ``linear``); written out
    so the statistics of the benchmark do not depend on the program under
    test importing cleanly.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = math.ceil(position)
    if low == high:
        return float(ordered[low])
    weight = position - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)


def median(samples: Sequence[float]) -> float:
    return percentile(samples, 50.0)


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond the ``q``-th percentile."""
    return int(math.floor(count * (100.0 - q) / 100.0 + 1e-9))


def supported_percentile(count: int) -> float:
    """Highest candidate percentile with >= ``MIN_SAMPLES_BEYOND`` samples beyond it.

    20 samples support the median only; 50 support p80; 100 p90; 200 p95;
    1000 p99.
    Fewer than 20 samples support nothing -- the median is returned anyway,
    and callers print the count so the reader can discount it.
    """
    best = CANDIDATE_PERCENTILES[0]
    for q in CANDIDATE_PERCENTILES:
        if samples_beyond(count, q) >= MIN_SAMPLES_BEYOND:
            best = q
    return best


def quartiles(values: Sequence[float]) -> Optional[Dict[str, float]]:
    """``q1``/``median``/``q3`` of a set of runs, or ``None`` below two runs."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": q2, "q3": q3}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (0 below two runs)."""
    quarts = quartiles(values)
    if quarts is None or quarts["median"] == 0:
        return 0.0
    return abs(quarts["q3"] - quarts["q1"]) / abs(quarts["median"])


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Median, tail and count of one timing sample, following the rules above."""
    tail = supported_percentile(len(samples))
    return {
        "n": len(samples),
        "p50": median(samples),
        "tail_percentile": tail,
        "tail": percentile(samples, tail),
        "min": float(min(samples)),
        "max": float(max(samples)),
    }
