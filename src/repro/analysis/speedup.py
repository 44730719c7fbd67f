"""Speed-up, efficiency and resiliency-overhead analysis.

These are the derived quantities Section 4 reports: speed-up relative to the
single-processor run (Figure 4 plots its inverse, run time, on a log-log
scale), closeness to linear speed-up ("within 20% of linear"), and the
decomposition of the resilient run's extra cost into the replication factor
and the protocol overhead ("approximately 10% plus the cost of replication").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class SpeedupPoint:
    """One processor-count sample of a scaling curve."""

    processors: int
    elapsed_seconds: float

    def __post_init__(self) -> None:
        if self.processors < 1:
            raise ValueError("processors must be >= 1")
        if self.elapsed_seconds <= 0:
            raise ValueError("elapsed_seconds must be positive")


@dataclass
class SpeedupCurve:
    """A scaling curve: elapsed time as a function of processor count."""

    label: str
    points: List[SpeedupPoint] = field(default_factory=list)

    def add(self, processors: int, elapsed_seconds: float) -> "SpeedupCurve":
        self.points.append(SpeedupPoint(processors, elapsed_seconds))
        return self

    def sorted_points(self) -> List[SpeedupPoint]:
        return sorted(self.points, key=lambda p: p.processors)

    # ------------------------------------------------------------ derivations
    def baseline_seconds(self) -> float:
        """Elapsed time of the smallest processor count (usually 1)."""
        pts = self.sorted_points()
        if not pts:
            raise ValueError(f"curve {self.label!r} has no points")
        return pts[0].elapsed_seconds * pts[0].processors  # normalise to 1 proc

    def time_at(self, processors: int) -> float:
        for point in self.points:
            if point.processors == processors:
                return point.elapsed_seconds
        raise KeyError(f"curve {self.label!r} has no point at {processors} processors")

    def speedup(self, baseline_seconds: Optional[float] = None) -> Dict[int, float]:
        """Speed-up per processor count, relative to ``baseline_seconds``.

        When ``baseline_seconds`` is omitted the curve's own smallest
        processor count is used (scaled to an equivalent one-processor time),
        matching the paper's self-relative speed-up.
        """
        base = baseline_seconds if baseline_seconds is not None else self.baseline_seconds()
        return {p.processors: base / p.elapsed_seconds for p in self.sorted_points()}

    def efficiency(self, baseline_seconds: Optional[float] = None) -> Dict[int, float]:
        """Parallel efficiency (speed-up divided by processor count)."""
        return {p: s / p for p, s in self.speedup(baseline_seconds).items()}

    def worst_efficiency(self, baseline_seconds: Optional[float] = None) -> float:
        eff = self.efficiency(baseline_seconds)
        return min(eff.values())


@dataclass(frozen=True)
class OverheadDecomposition:
    """Decomposition of a resilient run's cost versus the plain run.

    Attributes
    ----------
    processors:
        Worker count at which the comparison is made.
    plain_seconds / resilient_seconds:
        Elapsed times of the two runs.
    replication_level:
        Replication level of the resilient run.
    replication_factor:
        Expected slow-down from replication alone (the replicated processes
        consume processor resources): equals the replication level when
        replicas share the same set of workstations.
    protocol_overhead_fraction:
        The extra cost beyond replication, expressed as a fraction of the
        replication-adjusted time -- the quantity the paper reports as
        "approximately 10%".
    """

    processors: int
    plain_seconds: float
    resilient_seconds: float
    replication_level: int

    @property
    def total_slowdown(self) -> float:
        return self.resilient_seconds / self.plain_seconds

    @property
    def replication_factor(self) -> float:
        return float(self.replication_level)

    @property
    def protocol_overhead_fraction(self) -> float:
        expected = self.plain_seconds * self.replication_factor
        return self.resilient_seconds / expected - 1.0


def overhead_decomposition(plain: SpeedupCurve, resilient: SpeedupCurve,
                           replication_level: int) -> List[OverheadDecomposition]:
    """Pair up two curves processor-by-processor and decompose the overhead."""
    decompositions = []
    resilient_by_p = {p.processors: p.elapsed_seconds for p in resilient.sorted_points()}
    for point in plain.sorted_points():
        if point.processors not in resilient_by_p:
            continue
        decompositions.append(OverheadDecomposition(
            processors=point.processors,
            plain_seconds=point.elapsed_seconds,
            resilient_seconds=resilient_by_p[point.processors],
            replication_level=replication_level))
    return decompositions


def mean_protocol_overhead(decompositions: Sequence[OverheadDecomposition]) -> float:
    """Average protocol overhead fraction across processor counts."""
    if not decompositions:
        raise ValueError("no decompositions to average")
    return sum(d.protocol_overhead_fraction for d in decompositions) / len(decompositions)


__all__ = [
    "SpeedupPoint",
    "SpeedupCurve",
    "OverheadDecomposition",
    "overhead_decomposition",
    "mean_protocol_overhead",
]
