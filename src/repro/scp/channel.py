"""Per-thread mailboxes with port filtering and duplicate suppression.

Every physical thread owns one :class:`Mailbox`.  Senders (via the router)
deposit :class:`~repro.scp.serialization.Envelope` objects; the owning thread
consumes them with optional port filtering.  The mailbox is also where the
resiliency layer's *duplicate suppression* lives: when a logical sender is
replicated, each replica emits an identical copy of every message and the
receiving mailbox keeps only the first copy for a given dedup key.

The same class is used by both backends.  The simulated backend drives it
from a single-threaded event loop and never blocks; the local backend wraps
consumption in a condition variable so real threads can block on
:meth:`wait_matching`.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, List, Optional, Set, Tuple

from .serialization import Envelope


class Mailbox:
    """FIFO of envelopes addressed to one physical thread."""

    def __init__(self, owner: str, *, dedup: bool = True, thread_safe: bool = False) -> None:
        self.owner = owner
        self._queue: Deque[Envelope] = deque()
        self._seen_keys: Set[Tuple] = set()
        self._dedup = dedup
        self._lock = threading.Lock() if thread_safe else None
        self._condition = threading.Condition(self._lock) if thread_safe else None
        self._deposited = 0
        self._suppressed = 0
        self._closed = False

    # ------------------------------------------------------------ properties
    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def deposited(self) -> int:
        """Total number of envelopes ever accepted."""
        return self._deposited

    @property
    def suppressed_duplicates(self) -> int:
        return self._suppressed

    @property
    def closed(self) -> bool:
        return self._closed

    # --------------------------------------------------------------- deposit
    def deposit(self, envelope: Envelope) -> bool:
        """Add an envelope.  Returns False if it was suppressed as a duplicate
        or the mailbox is closed (owner died)."""
        if self._condition is not None:
            with self._condition:
                accepted = self._deposit_unlocked(envelope)
                if accepted:
                    self._condition.notify_all()
                return accepted
        return self._deposit_unlocked(envelope)

    def _deposit_unlocked(self, envelope: Envelope) -> bool:
        if self._closed:
            return False
        if self._dedup and not envelope.urgent:
            key = envelope.dedup_key
            if key in self._seen_keys:
                self._suppressed += 1
                return False
            self._seen_keys.add(key)
        self._queue.append(envelope)
        self._deposited += 1
        return True

    # --------------------------------------------------------------- consume
    def _find_index(self, port: Optional[str]) -> Optional[int]:
        for index, envelope in enumerate(self._queue):
            if port is None or envelope.port == port:
                return index
        return None

    def try_consume(self, port: Optional[str] = None) -> Optional[Envelope]:
        """Pop the first envelope matching ``port`` without blocking."""
        if self._condition is not None:
            with self._condition:
                return self._try_consume_unlocked(port)
        return self._try_consume_unlocked(port)

    def _try_consume_unlocked(self, port: Optional[str]) -> Optional[Envelope]:
        index = self._find_index(port)
        if index is None:
            return None
        envelope = self._queue[index]
        del self._queue[index]
        return envelope

    def has_matching(self, port: Optional[str] = None) -> bool:
        if self._condition is not None:
            with self._condition:
                return self._find_index(port) is not None
        return self._find_index(port) is not None

    def wait_matching(self, port: Optional[str] = None,
                      timeout: Optional[float] = None) -> Optional[Envelope]:
        """Blocking consume for the local backend.

        Returns None on timeout or when the mailbox is closed while waiting.
        Requires the mailbox to have been created with ``thread_safe=True``.
        """
        if self._condition is None:
            raise RuntimeError("wait_matching requires a thread_safe Mailbox")
        with self._condition:
            result = self._condition.wait_for(
                lambda: self._closed or self._find_index(port) is not None,
                timeout=timeout,
            )
            if not result or self._closed and self._find_index(port) is None:
                return None
            return self._try_consume_unlocked(port)

    # ----------------------------------------------------------------- close
    def close(self) -> None:
        """Mark the owner as dead; pending messages are dropped, waiters wake."""
        if self._condition is not None:
            with self._condition:
                self._closed = True
                self._queue.clear()
                self._condition.notify_all()
        else:
            self._closed = True
            self._queue.clear()

    def drain(self) -> List[Envelope]:
        """Remove and return all pending envelopes (used by reconfiguration
        to forward in-flight messages to a regenerated replica)."""
        if self._condition is not None:
            with self._condition:
                pending = list(self._queue)
                self._queue.clear()
                return pending
        pending = list(self._queue)
        self._queue.clear()
        return pending

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Mailbox {self.owner} pending={self.pending} closed={self._closed}>"


__all__ = ["Mailbox"]
