"""Fork-safe module-level synchronisation primitives.

The process backends can start workers with the ``fork`` method
(``BackendSpec.parse("process:fork")``), and a forked child inherits every
module-level lock *in whatever state it was in at fork time*.  A lock some
other thread of the parent happened to hold while :func:`os.fork` ran is
permanently stuck in the child -- the classic fork/lock deadlock -- and any
module-level cache the lock guards is inherited mid-mutation.

RPL003 (``repro-fusion lint``) therefore bans raw module-level
``threading.Lock()`` state outside this module.  :class:`ForkSafeLock` is
the sanctioned replacement: it registers an :func:`os.register_at_fork`
hook that re-creates the child's copy of the lock (always released) and
runs an optional ``on_reset`` callback so the guarded state can be cleared
in the same breath.  The parent's lock is untouched.

Usage (module level)::

    _CACHE: dict = {}
    _cache_lock = ForkSafeLock(on_reset=_CACHE.clear)

    with _cache_lock:
        ...
"""

from __future__ import annotations

import os
import threading
from typing import Callable, List, Optional

#: Every constructed lock; strong refs are fine -- module-level locks live
#: for the interpreter's lifetime by definition.
_FORK_SAFE_LOCKS: List["ForkSafeLock"] = []
_hook_installed = False


def _reset_all_after_fork_in_child() -> None:
    for lock in _FORK_SAFE_LOCKS:
        lock._reset_after_fork()


def _install_fork_hook() -> None:
    global _hook_installed
    if _hook_installed:
        return
    _hook_installed = True
    if hasattr(os, "register_at_fork"):  # POSIX; Windows never forks
        os.register_at_fork(after_in_child=_reset_all_after_fork_in_child)


class ForkSafeLock:
    """A mutex whose post-``fork()`` child copy is always released.

    After a fork, the child's underlying :class:`threading.Lock` is
    replaced with a fresh one and ``on_reset`` (when given) runs so the
    state the lock guards can be dropped atomically with the lock itself
    -- a forked child must never trust caches mutated by parent threads
    it did not inherit.

    The wrapper supports the context-manager protocol, the one idiom a
    module-level lock is used with in this codebase.
    """

    def __init__(self, on_reset: Optional[Callable[[], None]] = None) -> None:
        self._lock = threading.Lock()
        self._on_reset = on_reset
        _FORK_SAFE_LOCKS.append(self)
        _install_fork_hook()

    def _reset_after_fork(self) -> None:
        # The inherited lock may be held by a parent thread that does not
        # exist in the child; a fresh lock is the only safe state.
        self._lock = threading.Lock()
        if self._on_reset is not None:
            try:
                self._on_reset()
            except Exception:  # pragma: no cover - a reset hook must not
                pass           # be able to poison the child at birth

    # ---------------------------------------------------------------- facade
    def __enter__(self) -> bool:
        return self._lock.__enter__()

    def __exit__(self, *exc_info: object) -> None:
        self._lock.__exit__(*exc_info)


__all__ = ["ForkSafeLock"]
