"""Deterministic discrete-event engine.

The simulated backend of the SCP runtime (:mod:`repro.scp.sim_backend`) and
the cluster hardware models are all driven by a single event queue.  The
engine is intentionally small: a binary heap of ``(time, tie_breaker, Event)``
entries plus a monotonically increasing tie-breaker so that events scheduled
for the same instant fire in insertion order.  That property is what makes
whole simulated runs -- including fault injection and recovery -- bit-for-bit
reproducible from a seed.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, List


class SimulationError(RuntimeError):
    """Raised when the event engine is used inconsistently."""


@dataclass(order=True)
class _QueueEntry:
    time: float
    order: int
    event: "Event" = field(compare=False)


@dataclass
class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Absolute virtual time (seconds) at which the callback fires.
    callback:
        Zero-argument callable invoked when the event fires.
    label:
        Human-readable description used in traces and error messages.
    cancelled:
        Cancelled events stay in the heap but are skipped when popped.
    """

    time: float
    callback: Callable[[], None]
    label: str = ""
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


class EventEngine:
    """Heap-based discrete-event scheduler with a virtual clock."""

    def __init__(self) -> None:
        self._heap: List[_QueueEntry] = []
        self._counter = itertools.count()
        self._now = 0.0

    # ------------------------------------------------------------------ API
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        ``delay`` must be non-negative; scheduling in the past would break the
        causality of the simulation and is treated as a programming error.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule event {label!r} in the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, label)

    def schedule_at(self, time: float, callback: Callable[[], None], label: str = "") -> Event:
        """Schedule ``callback`` at absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event {label!r} at t={time} before current time t={self._now}")
        event = Event(time=time, callback=callback, label=label)
        heapq.heappush(self._heap, _QueueEntry(time, next(self._counter), event))
        return event

    def step(self) -> bool:
        """Fire the next non-cancelled event.  Returns False if none remain."""
        while self._heap:
            entry = heapq.heappop(self._heap)
            if entry.event.cancelled:
                continue
            self._now = entry.time
            entry.event.callback()
            return True
        return False


__all__ = ["Event", "EventEngine", "SimulationError"]
