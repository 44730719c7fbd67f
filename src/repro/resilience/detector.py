"""Failure / attack detection.

Section 2 of the paper describes reactive threads whose "important transitions
between data states occur at the receipt of messages", which "provides a
natural mechanism to synchronize each thread, detect an information warfare
attack and initiate recovery".  The detector implemented here follows the
classic heartbeat scheme on top of that idea:

* every live replica emits a small heartbeat message each
  ``heartbeat_period`` seconds (generated by the backend so application code
  stays untouched),
* the detector records the last heartbeat time per physical replica, and
* a periodic sweep declares a replica *suspected* once it has missed
  ``heartbeat_misses`` consecutive heartbeats, invoking the recovery callback.

The detector itself is transport-agnostic: it only needs ``on_heartbeat``
notifications, a clock, and a way to schedule its sweep.  The simulated
backend wires these to virtual time; the local coordinator wires them to the
wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from ..config import ResilienceConfig
from ..logging_utils import get_logger

_LOG = get_logger("resilience.detector")


@dataclass
class SuspicionRecord:
    """Evidence collected about one suspected replica."""

    physical_id: str
    last_heartbeat: float
    detected_at: float
    silence: float


class HeartbeatFailureDetector:
    """Timeout-based failure detector over heartbeat notifications."""

    def __init__(self, *, period: float, misses: int,
                 clock: Callable[[], float],
                 on_suspect: Callable[[str, SuspicionRecord], None]) -> None:
        """Create a detector.

        Parameters
        ----------
        period:
            Expected heartbeat interval in seconds.
        misses:
            Number of consecutive missed heartbeats before suspicion.
        clock:
            Zero-argument callable returning the current time (virtual or
            wall-clock, depending on the backend).
        on_suspect:
            Callback invoked exactly once per suspected replica.
        """
        if period <= 0:
            raise ValueError("heartbeat period must be positive")
        if misses < 1:
            raise ValueError("misses must be >= 1")
        self.period = period
        self.misses = misses
        self._clock = clock
        self._on_suspect = on_suspect
        self._last_seen: Dict[str, float] = {}
        self._suspected: Set[str] = set()
        self._removed: Set[str] = set()
        self._history: List[SuspicionRecord] = []

    # -------------------------------------------------------------- tracking
    @property
    def timeout(self) -> float:
        """Silence duration after which a replica is suspected."""
        return self.period * self.misses

    def watch(self, physical_id: str) -> None:
        """Start monitoring a replica (counted as alive right now)."""
        self._removed.discard(physical_id)
        self._suspected.discard(physical_id)
        self._last_seen[physical_id] = self._clock()

    def forget(self, physical_id: str) -> None:
        """Stop monitoring a replica (it finished normally or was replaced)."""
        self._removed.add(physical_id)
        self._last_seen.pop(physical_id, None)
        self._suspected.discard(physical_id)

    def on_heartbeat(self, physical_id: str, timestamp: Optional[float] = None) -> None:
        """Record a heartbeat; automatically starts watching unknown senders."""
        if physical_id in self._removed:
            return
        self._last_seen[physical_id] = timestamp if timestamp is not None else self._clock()
        self._suspected.discard(physical_id)

    # ----------------------------------------------------------------- sweep
    def sweep(self) -> List[SuspicionRecord]:
        """Check every watched replica and report fresh suspicions."""
        now = self._clock()
        fresh: List[SuspicionRecord] = []
        for physical_id, last in list(self._last_seen.items()):
            if physical_id in self._suspected:
                continue
            silence = now - last
            if silence > self.timeout:
                record = SuspicionRecord(physical_id=physical_id, last_heartbeat=last,
                                         detected_at=now, silence=silence)
                self._suspected.add(physical_id)
                self._history.append(record)
                fresh.append(record)
                _LOG.info("suspecting %s after %.3fs of silence", physical_id, silence)
        for record in fresh:
            self._on_suspect(record.physical_id, record)
        return fresh

    # --------------------------------------------------------------- reports
    def watched(self) -> List[str]:
        return sorted(self._last_seen)

    def suspicion_history(self) -> List[SuspicionRecord]:
        return list(self._history)

    @classmethod
    def from_config(cls, config: ResilienceConfig, *, clock: Callable[[], float],
                    on_suspect: Callable[[str, SuspicionRecord], None]
                    ) -> "HeartbeatFailureDetector":
        return cls(period=config.heartbeat_period, misses=config.heartbeat_misses,
                   clock=clock, on_suspect=on_suspect)


__all__ = ["HeartbeatFailureDetector", "SuspicionRecord"]
