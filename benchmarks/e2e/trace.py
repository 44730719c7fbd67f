"""In-memory span recorder for the traced benchmark pass.

The program under test has no span model of its own yet (ROADMAP item 1), so
the benchmark records spans *from outside*: one root span per request, child
spans laid out from the report's barrier-ordered stage timings (marked
``derived`` -- their durations are measured by the program, their start
offsets are reconstructed), and one span around every layer-probe call.
Spans are kept in memory and written as JSON lines when the run ends, so
recording never touches the disk inside a timed region.

A span's *self time* is its duration minus the part of that interval its
direct children cover (:func:`self_times`); overlapping children are merged
before subtracting, so two parallel children do not count twice.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Schema tag written as the first line of every trace file.
TRACE_SCHEMA = "repro-fusion/e2e-trace/v1"


@dataclass
class Span:
    """One timed interval: who caused it, what it was, when it ran."""

    id: int
    parent: Optional[int]
    request: Optional[int]
    name: str
    layer: str
    t0: float
    t1: float
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    def as_dict(self) -> Dict[str, Any]:
        return {"id": self.id, "parent": self.parent, "request": self.request,
                "name": self.name, "layer": self.layer, "t0": self.t0,
                "t1": self.t1, "attrs": self.attrs}


class TraceRecorder:
    """Collects spans; a disabled recorder records nothing and costs one branch.

    The untraced pass runs with ``enabled=False`` so the gated numbers never
    pay for tracing; the traced pass repeats the loop with ``enabled=True``
    and the difference between the two medians is ``trace.overhead_share``.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)

    def add(self, name: str, layer: str, t0: float, t1: float, *,
            parent: Optional[int] = None, request: Optional[int] = None,
            **attrs: Any) -> Optional[int]:
        """Record a finished interval; returns its id (``None`` when disabled)."""
        if not self.enabled:
            return None
        span = Span(next(self._ids), parent, request, name, layer, t0, t1, attrs)
        self.spans.append(span)
        return span.id

    def add_stage_children(self, parent: Optional[int], request: int, t0: float,
                           stages: Sequence[Tuple[str, float]], layer: str) -> None:
        """Child spans for a report's stage timings, laid back to back.

        The stages barrier on one another, so their order is known and their
        durations are the program's own measurement; only the start offsets
        are reconstructed, hence ``derived=True``.
        """
        if not self.enabled:
            return
        cursor = t0
        for stage, seconds in stages:
            self.add(stage, layer, cursor, cursor + seconds, parent=parent,
                     request=request, derived=True)
            cursor += seconds

    def write(self, path: str, header: Optional[Dict[str, Any]] = None) -> None:
        """Flush every span to ``path`` as JSON lines (schema line first)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"schema": TRACE_SCHEMA, **(header or {})}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span.as_dict()) + "\n")


def covered(intervals: Iterable[Tuple[float, float]], t0: float, t1: float) -> float:
    """Length of ``[t0, t1]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, t0), min(b, t1)) for a, b in intervals)
    total = 0.0
    cursor = t0
    for a, b in clipped:
        if b <= cursor:
            continue
        total += b - max(a, cursor)
        cursor = b
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span: duration minus what its direct children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.t0, span.t1))
    return {span.id: span.duration - covered(children.get(span.id, ()),
                                             span.t0, span.t1)
            for span in spans}


def self_time_by_name(spans: Sequence[Span]) -> Dict[str, List[float]]:
    """Self times grouped by ``layer/name`` (the summary the suite prints)."""
    own = self_times(spans)
    grouped: Dict[str, List[float]] = {}
    for span in spans:
        grouped.setdefault(f"{span.layer}/{span.name}", []).append(own[span.id])
    return grouped
