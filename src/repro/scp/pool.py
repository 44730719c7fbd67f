"""Worker-process pool: the one place worker processes are forked.

A service fusing many cubes would pay the interpreter start-up (hundreds of
milliseconds per process under the portable ``spawn`` start method) on every
request if each run spawned its own workers.  :class:`ProcessPool` keeps
the processes alive instead: it owns long-lived *slots* -- worker processes
running :func:`_pool_child_main`, the one idle loop in the repo, which sits
on its inbox waiting for a program assignment
(:func:`~repro.scp.process_backend._interpret_program`) or a stage task
(:func:`~repro.scp.stages.try_run_stage`) -- both report by committing files
to their owner's spool -- and returns to idle.  The inbox is the only queue
a slot touches: the pool's owner alone writes it, the slot alone reads it,
the one direction a SIGKILLed slot cannot tear.  Every worker process is such
a slot: :class:`~repro.scp.process_backend.ProcessBackend` runs each replica
on one (a session's backends borrow from its persistent pool, a one-shot run
owns a private pool), the forked stage transport dispatches onto them, and
the socket transport's node agent holds its workers in a pool of its own --
so how a worker is spawned, retired and orphaned cannot differ by substrate.

The pool grows on demand (a run needing more replicas than there are idle
slots spawns the difference) and never shrinks on its own; slots whose
process died, was fault-injected, or may still be executing an abandoned
program are discarded rather than reused, so a recycled slot is always
genuinely idle.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import queue as queue_module
import threading
from typing import List, Optional

from .errors import RuntimeStateError

#: First element of a program-assignment tuple deposited on a slot's inbox;
#: the rest are ``_interpret_program``'s arguments after ``inbox``.
_ASSIGN = "__scp_pool_assign__"

#: Sentinel asking a pool child to exit its idle loop and terminate.
_POOL_EXIT = "__scp_pool_exit__"

#: What ``put`` on a slot inbox raises once the queue is already broken:
#: ValueError (closed queue), OSError (dead feeder pipe), AssertionError
#: (pre-3.12 closed-queue signalling).  Handlers that merely tolerate a
#: condemned slot catch exactly these (RPL005); anything else is a real bug
#: and must surface.
QUEUE_BROKEN_ERRORS = (ValueError, OSError, AssertionError)


def default_start_method() -> str:
    """Cheapest safe ``multiprocessing`` start method on this platform.

    ``fork`` avoids re-importing the interpreter per slot and is an order of
    magnitude faster to start than ``spawn``; it is preferred wherever the
    OS offers it.  For a pool the start cost only matters when the pool
    grows, but fast growth keeps the first request of a session cheap too.
    """
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _pool_child_main(slot_name: str, inbox) -> None:
    """Idle loop of a pool slot: wait for assignments, interpret, repeat.

    A slot accepts two kinds of work: full SCP *program* assignments
    (interpreted by the process backend's effect interpreter) and short
    *stage tasks* from the streaming pipeline engine
    (:mod:`repro.scp.stages`).  Anything else on the inbox -- a stale envelope
    or shutdown marker from a program that already ended -- is dropped, so
    leftovers of a previous run can never leak into the next.

    The slot also self-terminates when orphaned: a parent that was
    SIGKILLed (a session's process, a node agent) can send no exit marker,
    so an idle slot re-checks its parent once a second.
    """
    # Imported here: both modules import this one for ProcessPool.
    from ..data.shared import release_attachments
    from .process_backend import _interpret_program
    from .stages import try_run_stage
    parent = os.getppid()
    while True:
        try:
            item = inbox.get(timeout=1.0)
        except queue_module.Empty:
            if os.getppid() != parent:  # the slot's owner died underneath us
                break
            continue
        except (OSError, ValueError):  # inbox torn down: nothing left to do
            break
        if isinstance(item, str) and item == _POOL_EXIT:
            break
        if try_run_stage(item):
            continue
        if isinstance(item, tuple) and len(item) == 12 and item[0] == _ASSIGN:
            _interpret_program(inbox, *item[1:])
    # Drop any cached output-placement mappings deterministically rather
    # than relying on process teardown to release the pages.
    release_attachments()


class _PoolSlot:
    """Parent-side record of one long-lived worker process."""

    def __init__(self, name: str, process, inbox) -> None:
        self.name = name
        self.process = process
        self.inbox = inbox
        self.busy = False
        self.assignments = 0

    @property
    def alive(self) -> bool:
        return self.process.is_alive()


class ProcessPool:
    """A growable set of long-lived worker processes.

    Parameters
    ----------
    start_method:
        ``multiprocessing`` start method for slot processes; defaults to
        :func:`default_start_method` (``fork`` where available -- safe here
        because slots are spawned from the single-threaded control path).
    warm:
        Number of slots to spawn immediately; the pool also grows on demand.
    """

    def __init__(self, *, start_method: Optional[str] = None, warm: int = 0) -> None:
        self.start_method = start_method or default_start_method()
        self._ctx = multiprocessing.get_context(self.start_method)
        self._slots: List[_PoolSlot] = []
        self._lock = threading.Lock()
        self._names = itertools.count()
        self._closed = False
        #: Total slot processes ever spawned (observable setup cost; a warmed
        #: session keeps this flat across repeated runs).
        self.spawned_processes = 0
        if warm:
            self.ensure(warm)

    # --------------------------------------------------------------- queries
    @property
    def size(self) -> int:
        """Live slots, busy or idle."""
        with self._lock:
            return sum(1 for slot in self._slots if slot.alive)

    @property
    def idle(self) -> int:
        with self._lock:
            return sum(1 for slot in self._slots if slot.alive and not slot.busy)

    @property
    def closed(self) -> bool:
        return self._closed

    # ------------------------------------------------------------ allocation
    def ensure(self, count: int) -> None:
        """Grow the pool until at least ``count`` live slots exist."""
        with self._lock:
            self._check_open()
            self._prune_dead()
            while sum(1 for slot in self._slots if slot.alive) < count:
                self._spawn_slot()

    def acquire(self, *, allow_spawn: bool = True) -> Optional[_PoolSlot]:
        """Borrow an idle slot, spawning a fresh one when none is free.

        ``allow_spawn=False`` returns ``None`` instead of spawning -- used
        by callers on threads where forking a new slot process would race
        other threads' queue feeders (the stage executor's crash-retry
        path defers until a warm slot frees up instead).
        """
        with self._lock:
            self._check_open()
            self._prune_dead()
            for slot in self._slots:
                if slot.alive and not slot.busy:
                    slot.busy = True
                    slot.assignments += 1
                    return slot
            if not allow_spawn:
                return None
            slot = self._spawn_slot()
            slot.busy = True
            slot.assignments += 1
            return slot

    def release(self, slot: _PoolSlot) -> None:
        """Return a borrowed slot; unknown (discarded) slots are ignored."""
        with self._lock:
            if slot in self._slots:
                slot.busy = False

    def discard(self, slot: _PoolSlot) -> None:
        """Remove a slot from the pool and terminate its process.

        Used for fault injection, timeouts, and any slot that may still be
        executing an abandoned program.  The slot's inbox is released here
        too: its feeder thread would otherwise block interpreter shutdown
        on data buffered for the killed process.
        """
        with self._lock:
            if slot in self._slots:
                self._slots.remove(slot)
        if slot.process.is_alive():
            slot.process.kill()
            slot.process.join(timeout=1.0)
        slot.inbox.cancel_join_thread()
        slot.inbox.close()

    def _spawn_slot(self) -> _PoolSlot:
        name = f"scp-pool-{next(self._names)}"
        inbox = self._ctx.Queue()
        process = self._ctx.Process(target=_pool_child_main,
                                    args=(name, inbox),
                                    name=name, daemon=True)
        process.start()
        self.spawned_processes += 1
        slot = _PoolSlot(name, process, inbox)
        self._slots.append(slot)
        return slot

    def _prune_dead(self) -> None:
        self._slots = [slot for slot in self._slots if slot.alive]

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeStateError("process pool is closed")

    # ------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Terminate every slot and release the pool's queues (idempotent)."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            slots = list(self._slots)
            self._slots.clear()
        for slot in slots:
            try:
                slot.inbox.put(_POOL_EXIT)
            except QUEUE_BROKEN_ERRORS:  # pragma: no cover
                pass
        for slot in slots:
            slot.process.join(timeout=1.0)
            if slot.process.is_alive():
                slot.process.kill()
                slot.process.join(timeout=1.0)
        for slot in slots:
            slot.inbox.cancel_join_thread()
            slot.inbox.close()

    def __enter__(self) -> "ProcessPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["ProcessPool", "QUEUE_BROKEN_ERRORS", "default_start_method"]
