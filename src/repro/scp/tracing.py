"""Execution tracing for the simulated backend.

A :class:`TraceRecorder` attached to a :class:`~repro.scp.sim_backend.SimBackend`
collects a timeline of what every physical thread did in virtual time --
compute intervals (with their phase), message deliveries, and lifecycle
events (spawn, finish, kill, crash).  Traces serve two purposes:

* **performance understanding** -- the text Gantt chart and per-node
  utilisation timeline make it obvious where a configuration loses time
  (serialised communication at the manager, idle workers at coarse
  granularity, processor sharing between replicas), and
* **debugging of the resiliency protocols** -- the lifecycle record shows
  exactly when replicas died, when the detector reacted and when the
  regenerated replica started doing useful work.

The recorder is entirely passive; attaching one does not change virtual-time
results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class ComputeInterval:
    """One charged compute interval of a physical thread."""

    physical_id: str
    node: str
    phase: str
    start: float
    end: float
    flops: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class MessageRecord:
    """One delivered message."""

    src: str
    dst_physical: str
    port: str
    nbytes: int
    send_time: float
    deliver_time: float


@dataclass(frozen=True)
class LifecycleEvent:
    """Spawn / finish / kill / crash of a physical thread."""

    physical_id: str
    kind: str
    time: float
    detail: str = ""


class TraceRecorder:
    """Collects compute, message and lifecycle records from a simulated run."""

    def __init__(self) -> None:
        self.compute: List[ComputeInterval] = []
        self.messages: List[MessageRecord] = []
        self.lifecycle: List[LifecycleEvent] = []

    # ------------------------------------------------------------- recording
    def record_compute(self, physical_id: str, node: str, phase: str,
                       start: float, end: float, flops: float) -> None:
        self.compute.append(ComputeInterval(physical_id, node, phase, start, end, flops))

    def record_message(self, src: str, dst_physical: str, port: str, nbytes: int,
                       send_time: float, deliver_time: float) -> None:
        self.messages.append(MessageRecord(src, dst_physical, port, nbytes,
                                           send_time, deliver_time))

    def record_lifecycle(self, physical_id: str, kind: str, time: float,
                         detail: str = "") -> None:
        self.lifecycle.append(LifecycleEvent(physical_id, kind, time, detail))

    # --------------------------------------------------------------- queries
    @property
    def span(self) -> float:
        """End of the last recorded activity."""
        latest = 0.0
        if self.compute:
            latest = max(latest, max(i.end for i in self.compute))
        if self.messages:
            latest = max(latest, max(m.deliver_time for m in self.messages))
        if self.lifecycle:
            latest = max(latest, max(e.time for e in self.lifecycle))
        return latest

    def threads(self) -> List[str]:
        names = {i.physical_id for i in self.compute}
        names |= {e.physical_id for e in self.lifecycle}
        return sorted(names)

    def busy_seconds(self, physical_id: str) -> float:
        return sum(i.duration for i in self.compute if i.physical_id == physical_id)

    def phase_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for interval in self.compute:
            totals[interval.phase] = totals.get(interval.phase, 0.0) + interval.duration
        return totals

    def node_busy_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for interval in self.compute:
            totals[interval.node] = totals.get(interval.node, 0.0) + interval.duration
        return totals

    def bytes_by_port(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for message in self.messages:
            totals[message.port] = totals.get(message.port, 0) + message.nbytes
        return totals

    def lifecycle_of(self, physical_id: str) -> List[LifecycleEvent]:
        return [e for e in self.lifecycle if e.physical_id == physical_id]

    # -------------------------------------------------------------- rendering
    def gantt(self, *, width: int = 72, threads: Optional[Sequence[str]] = None) -> str:
        """Text Gantt chart: one row per thread, ``#`` where it was computing.

        Lifecycle events are overlaid: ``S`` spawn, ``F`` finish, ``X`` kill
        or crash.  The chart is bucketed to ``width`` columns over the full
        trace span.
        """
        span = self.span
        if span <= 0:
            return "(empty trace)"
        selected = list(threads) if threads is not None else self.threads()
        scale = width / span
        lines = [f"virtual time 0 .. {span:.3f} s  "
                 f"(one column = {span / width:.4f} s; #=compute, S=spawn, F=finish, X=death)"]
        for name in selected:
            row = [" "] * width
            for interval in self.compute:
                if interval.physical_id != name:
                    continue
                start = min(width - 1, int(interval.start * scale))
                end = min(width - 1, max(start, int(interval.end * scale) - 1))
                for column in range(start, end + 1):
                    row[column] = "#"
            for event in self.lifecycle_of(name):
                column = min(width - 1, int(event.time * scale))
                marker = {"spawn": "S", "finish": "F"}.get(event.kind, "X")
                row[column] = marker
            lines.append(f"{name:>16s} |{''.join(row)}|")
        return "\n".join(lines)

    def utilisation_timeline(self, *, buckets: int = 24) -> str:
        """Per-bucket fraction of threads busy, as a small text histogram."""
        span = self.span
        if span <= 0:
            return "(empty trace)"
        thread_count = max(len(self.threads()), 1)
        totals = [0.0] * buckets
        bucket_span = span / buckets
        for interval in self.compute:
            first = int(interval.start / bucket_span)
            last = min(buckets - 1, int(interval.end / bucket_span))
            for bucket in range(first, last + 1):
                bucket_start = bucket * bucket_span
                bucket_end = bucket_start + bucket_span
                overlap = min(interval.end, bucket_end) - max(interval.start, bucket_start)
                if overlap > 0:
                    totals[bucket] += overlap
        lines = ["bucket  utilisation"]
        for bucket, busy in enumerate(totals):
            fraction = busy / (bucket_span * thread_count)
            bar = "#" * int(round(min(fraction, 1.0) * 40))
            lines.append(f"{bucket:6d}  |{bar:<40s}| {fraction:5.2f}")
        return "\n".join(lines)

    def summary(self) -> Dict[str, object]:
        """Aggregate numbers for reports and assertions."""
        return {
            "threads": len(self.threads()),
            "compute_intervals": len(self.compute),
            "messages": len(self.messages),
            "bytes": int(sum(m.nbytes for m in self.messages)),
            "span_seconds": self.span,
            "busy_seconds": float(sum(i.duration for i in self.compute)),
            "phases": self.phase_seconds(),
            "deaths": sum(1 for e in self.lifecycle if e.kind in ("killed", "crashed")),
            "spawns": sum(1 for e in self.lifecycle if e.kind == "spawn"),
        }


__all__ = ["TraceRecorder", "ComputeInterval", "MessageRecord", "LifecycleEvent"]
