"""``run.py compare A.json B.json``: is B a regression of A?

Both files are ``results.json`` of the suite (``--runs N`` puts N untraced
runs per workload in each).  For every end-to-end metric x workload the
bound declared in ``BENCHMARK.json`` is applied to the medians of the two
sets of runs, each workload in its own row -- never a combined score:

``regressed``
    B's median is worse than A's by more than the bound.
``unresolved``
    the run-to-run spread (inter-quartile distance over the median, the
    wider of the two sides) exceeds the bound, and the two sets of runs
    overlap: the data cannot tell "unchanged" from "regressed".
``improved``
    every run of B reads better than every run of A.
``unchanged``
    within the bound, and the spread is small enough to say so.

``failed_share`` is judged separately and strictly: any rise is a
regression, because a run that fails more requests has not measured the same
work.  The command exits non-zero on a regression or a higher
``failed_share``; ``unresolved`` rows are printed and left to the reader.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Sequence

from .stats import median, quartiles, spread


def verdict(a: Sequence[float], b: Sequence[float], *, better: str, bound: float) -> str:
    """Judge one metric on one workload from the two sets of run values."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    median_a = median(a)
    median_b = median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (median_b - median_a) / abs(median_a) if median_a else 0.0
    if better == "lower":
        b_beats_a = max(b) < min(a)
        a_beats_b = max(a) < min(b)
    else:
        b_beats_a = min(b) > max(a)
        a_beats_b = min(a) > max(b)
    if max(spread(a), spread(b)) > bound and not (b_beats_a or a_beats_b):
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    if b_beats_a:
        return "improved"
    return "unchanged"


def _runs_by_workload(results: Dict[str, Any]) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for run in results["runs"]:
        if not run["trace"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def _describe(values: Sequence[float]) -> str:
    quarts = quartiles(values)
    if quarts is None:
        return f"{values[0]:.5g} (n=1)"
    return f"{quarts['median']:.5g} [{quarts['q1']:.5g}, {quarts['q3']:.5g}] (n={len(values)})"


def compare(a: Dict[str, Any], b: Dict[str, Any],
            benchmark: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per end-to-end metric x workload, plus a ``failed_share`` row."""
    runs_a, runs_b = _runs_by_workload(a), _runs_by_workload(b)
    rows: List[Dict[str, Any]] = []
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        side_a, side_b = runs_a.get(workload, []), runs_b.get(workload, [])
        if not side_a or not side_b:
            rows.append({"workload": workload, "metric": "*", "verdict": "missing",
                         "a": f"{len(side_a)} runs", "b": f"{len(side_b)} runs"})
            continue
        for spec in benchmark["end_to_end"]:
            values_a = [run["metrics"][spec["name"]]["value"] for run in side_a]
            values_b = [run["metrics"][spec["name"]]["value"] for run in side_b]
            rows.append({"workload": workload, "metric": spec["name"],
                         "verdict": verdict(values_a, values_b, better=spec["better"],
                                            bound=spec["bound"]),
                         "a": _describe(values_a), "b": _describe(values_b)})
        share_a = sum(run["failed"] for run in side_a) / sum(run["attempted"] for run in side_a)
        share_b = sum(run["failed"] for run in side_b) / sum(run["attempted"] for run in side_b)
        rows.append({"workload": workload, "metric": "failed_share",
                     "verdict": "regressed" if share_b > share_a else "unchanged",
                     "a": f"{share_a:.5g}", "b": f"{share_b:.5g}"})
    return rows


def compare_main(argv: List[str], benchmark: Dict[str, Any]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as fh:
        a = json.load(fh)
    with open(argv[1], encoding="utf-8") as fh:
        b = json.load(fh)
    rows = compare(a, b, benchmark)
    print(f"{'workload':<20s} {'metric':<24s} {'verdict':<11s} A: median [q1, q3] (n)"
          f"{'':<14s} B: median [q1, q3] (n)")
    for row in rows:
        print(f"{row['workload']:<20s} {row['metric']:<24s} {row['verdict']:<11s} "
              f"{row['a']:<37s} {row['b']}")
    bad = [row for row in rows if row["verdict"] in ("regressed", "missing")]
    unresolved = sum(1 for row in rows if row["verdict"] == "unresolved")
    print(f"\n{len(bad)} regressed or missing, {unresolved} unresolved, {len(rows)} rows")
    return 1 if bad else 0
