"""Run metrics: timing, utilisation, message accounting.

Every simulated or locally-executed run produces a :class:`RunMetrics` record.
The benchmark harness builds the paper's figures entirely from these records,
so they capture everything Section 4 reports on: elapsed time, per-phase
breakdown, communication volume, and resiliency protocol activity.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional


@dataclass
class PhaseTiming:
    """Aggregated timing of one named phase (e.g. ``"screening"``)."""

    name: str
    total_seconds: float = 0.0
    invocations: int = 0

    def add(self, seconds: float) -> None:
        self.total_seconds += seconds
        self.invocations += 1


@dataclass
class RunMetrics:
    """Everything measured during one fusion run.

    Attributes
    ----------
    elapsed_seconds:
        End-to-end (virtual or wall-clock) time of the run.
    backend:
        ``"sim"``, ``"local"``, ``"process"`` or ``"sequential"``.
    workers / subcubes / replication_level:
        Run configuration echoed for convenience when tabulating sweeps.
    phase_seconds:
        Compute seconds charged per algorithm phase, summed over threads.
    messages / bytes_sent:
        Interconnect traffic totals.  ``bytes_sent`` is the modeled payload
        volume on every backend -- what the simulated LAN charges, a
        sub-cube task counting as its block's bytes -- not the bytes pickled.
    node_busy_seconds:
        Per node, the compute seconds it was busy (utilisation numerator).
    failures_injected / replicas_regenerated / reconfigurations:
        Resiliency activity counters.
    """

    elapsed_seconds: float = 0.0
    backend: str = "sequential"
    workers: int = 1
    subcubes: int = 1
    replication_level: int = 1
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    phase_invocations: Dict[str, int] = field(default_factory=dict)
    messages: int = 0
    bytes_sent: int = 0
    node_busy_seconds: Dict[str, float] = field(default_factory=dict)
    failures_injected: int = 0
    replicas_regenerated: int = 0
    reconfigurations: int = 0
    duplicate_messages_suppressed: int = 0
    extra: Dict[str, float] = field(default_factory=dict)

    # ----------------------------------------------------------- derivations
    @property
    def total_compute_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def utilisation(self) -> Dict[str, float]:
        """Per-node utilisation over the elapsed run time."""
        if self.elapsed_seconds <= 0:
            return {k: 0.0 for k in self.node_busy_seconds}
        return {k: v / self.elapsed_seconds for k, v in self.node_busy_seconds.items()}

    def mean_utilisation(self) -> float:
        util = self.utilisation()
        return sum(util.values()) / len(util) if util else 0.0

    def phase_fraction(self, name: str) -> float:
        """Fraction of total compute time spent in a phase."""
        total = self.total_compute_seconds
        return self.phase_seconds.get(name, 0.0) / total if total > 0 else 0.0


class MetricsCollector:
    """Mutable accumulator shared by the runtime and resilience layers.

    Backends create one collector per run, pass it around, and call
    :meth:`finalise` at the end to obtain an immutable-ish :class:`RunMetrics`.
    """

    def __init__(self) -> None:
        self._phases: Dict[str, PhaseTiming] = {}
        self._counters: Dict[str, int] = defaultdict(int)
        self._node_busy: Dict[str, float] = defaultdict(float)

    def add_phase(self, name: str, seconds: float) -> None:
        self._phases.setdefault(name, PhaseTiming(name)).add(seconds)

    def add_node_busy(self, node: str, seconds: float) -> None:
        self._node_busy[node] += seconds

    def increment(self, counter: str, amount: int = 1) -> None:
        self._counters[counter] += amount

    def count(self, counter: str) -> int:
        return self._counters.get(counter, 0)

    def finalise(self, *, elapsed_seconds: float, backend: str, workers: int,
                 subcubes: int, replication_level: int,
                 messages: int = 0, bytes_sent: int = 0,
                 extra: Optional[Mapping[str, float]] = None) -> RunMetrics:
        metrics = RunMetrics(
            elapsed_seconds=elapsed_seconds,
            backend=backend,
            workers=workers,
            subcubes=subcubes,
            replication_level=replication_level,
            messages=messages,
            bytes_sent=bytes_sent,
            failures_injected=self.count("failures_injected"),
            replicas_regenerated=self.count("replicas_regenerated"),
            reconfigurations=self.count("reconfigurations"),
            duplicate_messages_suppressed=self.count("duplicates_suppressed"),
            node_busy_seconds=dict(self._node_busy),
            extra=dict(extra or {}),
        )
        for name, timing in self._phases.items():
            metrics.phase_seconds[name] = timing.total_seconds
            metrics.phase_invocations[name] = timing.invocations
        return metrics


__all__ = ["PhaseTiming", "RunMetrics", "MetricsCollector"]
