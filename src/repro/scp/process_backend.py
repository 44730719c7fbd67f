"""Process-parallel execution backend: real OS processes, wall-clock time.

This backend runs the *same* thread programs as the simulated and local
backends, but on genuine operating-system processes -- one
:class:`~repro.scp.pool.ProcessPool` slot per physical replica.  Unlike the
thread-based :class:`~repro.scp.local_backend.LocalBackend` -- which shares
a single CPython interpreter and therefore a single GIL -- every replica
here owns an interpreter of its own, so compute phases genuinely overlap on
multi-core hosts and the measured wall-clock speed-up is real rather than
simulated.

Architecture
------------
The parent process is the *post office*: it owns the logical-to-physical
:class:`~repro.scp.group.Router` and reads the pool's single ``outbox`` queue
that every child writes to.  A child never talks to another child directly;
a :class:`~repro.scp.effects.Send` becomes a pickled
:class:`~repro.scp.serialization.Envelope` on the outbox, the parent expands
the logical destination to the live replicas and deposits the envelope on
each replica's private ``inbox`` queue.  Inside the child the inbox feeds the
ordinary :class:`~repro.scp.channel.Mailbox`, so port filtering and duplicate
suppression behave exactly as on the other backends.

The pool is the only place a worker process is forked.  A one-shot run owns
a private pool and closes it afterwards; a
:class:`~repro.api.session.FusionSession` hands successive backend instances
its long-lived pool, so repeated runs reuse live processes.

Bulk problem data is *not* pickled: thread parameters holding a
:class:`~repro.data.cube.HyperspectralCube` are transparently converted to
:class:`~repro.data.shared.SharedCube`, whose samples live in a shared-memory
segment that every process maps zero-copy.

Crash handling mirrors the local backend (the parent-side bookkeeping is
literally shared, see :mod:`repro.scp.wallclock`): a program exception is
reported and recorded as a ``"crashed"`` outcome (raised as
:class:`~repro.scp.errors.ThreadCrashedError` after the run under the default
crash policy, unless the awaited thread finished anyway), and a process
that dies without reporting -- a hard kill, an out-of-memory kill, a
segfault -- is detected by the parent's liveness sweep.
Death notifications feed the same ``subscribe_thread_death`` /
``spawn_thread`` control interface the resiliency layer drives on the other
backends, so failed workers can be regenerated on fresh slots mid-run.
"""

from __future__ import annotations

import os
import queue as queue_module
import time
from typing import Any, Callable, Dict, List, Optional

from ..data.shared import share_cube_params
from ..logging_utils import get_logger
from .channel import Mailbox
from .effects import Checkpoint, Compute, GetTime, Probe, Recv, Send, Sleep
from .errors import ReceiveTimeout, SCPError
from .pool import (_ASSIGN, _DEATH_CONFIRM_SECONDS, QUEUE_BROKEN_ERRORS,
                   ProcessPool, _PoolSlot)
from .runtime import Context
from .serialization import Envelope
from .thread import ThreadSpec
from .wallclock import ReplicaTask, WallClockBackend

_LOG = get_logger("scp.process")

#: Sentinel deposited on a child's inbox asking it to abandon its program.
_SHUTDOWN = "__scp_shutdown__"

#: Spacing of the duplicate-suppression sequence ranges of successive
#: incarnations, so a regenerated replica's un-keyed messages are never
#: mistaken for its predecessor's.
_INCARNATION_SEQ_STRIDE = 1_000_000


class _ShutdownSignal(Exception):
    """Internal control flow: the parent asked this child to exit."""


# ---------------------------------------------------------------------------
# Child-process side
# ---------------------------------------------------------------------------

def _interpret_program(logical: str, replica: int, physical_id: str, node: str,
                       program: Callable, params: Dict[str, Any], restored: Any,
                       incarnation: int, inbox, outbox, epoch: float) -> None:
    """Interpret one thread program inside a worker process.

    Everything observable leaves through ``outbox`` as small tagged tuples:
    ``("send", pid, envelope)``, ``("phase", pid, node, name, seconds)``,
    ``("checkpoint", logical, state)``, ``("finished", pid, result, dups)``
    and ``("crashed", pid, message)``.

    Returns normally both when the program runs to completion and when the
    parent requests a shutdown mid-program, so a long-lived pool worker
    (:mod:`repro.scp.pool`) can call this in a loop, one program per run.
    """
    ctx = Context(name=logical, replica=replica, physical_id=physical_id,
                  node=node, params=dict(params), restored=restored,
                  incarnation=incarnation)
    mailbox = Mailbox(physical_id, dedup=True, thread_safe=False)
    send_seq = incarnation * _INCARNATION_SEQ_STRIDE
    parent = os.getppid()

    def now() -> float:
        # Monotonic (RPL004): envelope timestamps are run-relative
        # *elapsed* time shared with the parent's epoch; the wall clock
        # would skew them under an NTP step mid-run.  CLOCK_MONOTONIC is
        # system-wide, so parent/child differences stay meaningful.
        return time.monotonic() - epoch

    def absorb(item: Any) -> None:
        if isinstance(item, str) and item == _SHUTDOWN:
            raise _ShutdownSignal()
        mailbox.deposit(item)

    def drain_nonblocking() -> None:
        while True:
            try:
                item = inbox.get_nowait()
            except queue_module.Empty:
                return
            absorb(item)

    def do_recv(effect: Recv):
        deadline = (None if effect.timeout is None
                    else time.monotonic() + effect.timeout)
        while True:
            envelope = mailbox.try_consume(effect.port)
            if envelope is not None:
                envelope.deliver_time = now()
                return envelope
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise ReceiveTimeout(physical_id, effect.port, effect.timeout or 0.0)
            wait = 0.5 if remaining is None else min(remaining, 0.5)
            try:
                item = inbox.get(timeout=wait)
            except queue_module.Empty:
                if os.getppid() != parent:
                    # The backend's process was killed: nothing will ever
                    # arrive, so hand control back to the slot's idle
                    # loop, whose own orphan check ends the process.
                    raise _ShutdownSignal()
                continue
            absorb(item)

    def execute(effect):
        nonlocal send_seq
        if isinstance(effect, Compute):
            start = time.perf_counter()
            result = effect.fn(*effect.args, **effect.kwargs)
            outbox.put(("phase", physical_id, node, effect.phase,
                        time.perf_counter() - start))
            return result
        if isinstance(effect, Send):
            send_seq += 1
            envelope = Envelope(src=logical, dst=effect.dst, port=effect.port,
                                payload=effect.payload, seq=send_seq,
                                key=effect.key, src_physical=physical_id,
                                urgent=effect.urgent, send_time=now())
            outbox.put(("send", physical_id, envelope))
            return None
        if isinstance(effect, Recv):
            return do_recv(effect)
        if isinstance(effect, Probe):
            drain_nonblocking()
            return mailbox.has_matching(effect.port)
        if isinstance(effect, Sleep):
            time.sleep(max(0.0, effect.seconds))
            return None
        if isinstance(effect, Checkpoint):
            outbox.put(("checkpoint", logical, effect.state))
            return None
        if isinstance(effect, GetTime):
            return now()
        raise SCPError(f"program yielded a non-effect object: {effect!r}")

    gen = program(ctx, **params)
    value: Any = None
    throw: Optional[BaseException] = None
    try:
        while True:
            try:
                if throw is not None:
                    exc, throw = throw, None
                    effect = gen.throw(exc)
                else:
                    effect = gen.send(value)
            except StopIteration as stop:
                outbox.put(("finished", physical_id, stop.value,
                            mailbox.suppressed_duplicates))
                return
            try:
                value = execute(effect)
            except _ShutdownSignal:
                raise
            except ReceiveTimeout as err:
                value, throw = None, err
    except _ShutdownSignal:
        return
    except ReceiveTimeout as err:
        outbox.put(("crashed", physical_id, f"uncaught ReceiveTimeout: {err}"))
    except Exception as err:  # noqa: BLE001 - program errors are reported
        outbox.put(("crashed", physical_id, repr(err)))


# ---------------------------------------------------------------------------
# Parent-process side
# ---------------------------------------------------------------------------

class _ProcessTask(ReplicaTask):
    """Parent-side record of one replica running on a borrowed pool slot."""

    def __init__(self, spec: ThreadSpec, replica: int, physical_id: str,
                 incarnation: int, slot: _PoolSlot, restored: Any) -> None:
        super().__init__(spec, replica, physical_id, incarnation)
        self.slot = slot
        self.restored = restored
        self.first_seen_dead: Optional[float] = None


class ProcessBackend(WallClockBackend):
    """Multi-process execution backend with shared-memory data placement.

    Replicas always run on :class:`~repro.scp.pool.ProcessPool` slots.  Given
    a ``pool`` the backend borrows from it and hands recyclable slots back
    afterwards -- a backend instance is single use (parent-side routing
    state is per run) but the expensive part, the worker processes,
    persists in the pool across instances::

        with ProcessPool() as pool:
            result = ProcessBackend(pool).run(app, until_thread="manager")
            result = ProcessBackend(pool).run(app2, until_thread="manager")

    Given none, it owns a private pool for the one run and closes it in
    cleanup.
    """

    kind = "process"

    def __init__(self, pool: Optional[ProcessPool] = None, *,
                 crash_policy: str = "raise",
                 default_timeout: Optional[float] = 300.0,
                 start_method: str = "spawn",
                 shutdown_grace: float = 5.0) -> None:
        """Create a process backend.

        Parameters
        ----------
        pool:
            Slot pool to borrow replicas from; ``None`` creates a private
            pool per run.  One pool serves one run at a time.
        crash_policy:
            ``"raise"`` re-raises the first program crash as
            :class:`ThreadCrashedError` after the run (unless the run's
            ``until_thread`` finished regardless); ``"record"`` only
            records it in the outcomes.
        default_timeout:
            Wall-clock safety limit (seconds) applied to :meth:`run` unless
            overridden; prevents a wedged run from hanging forever.
        start_method:
            ``multiprocessing`` start method of the private pool.
            ``"spawn"`` (default) is portable and immune to
            fork-with-threads hazards; ``"fork"`` starts faster on Linux.
            A borrowed pool keeps the method it was created with.
        shutdown_grace:
            Seconds stragglers are given to exit on their own once the
            ``until_thread`` has finished, before being shut down.
        """
        super().__init__(crash_policy=crash_policy, default_timeout=default_timeout)
        self.start_method = pool.start_method if pool is not None else start_method
        self.shutdown_grace = shutdown_grace
        self._pool = pool
        self._owns_pool = pool is None
        self._shared_params: Dict[str, Dict[str, Any]] = {}
        self._shared_cubes: List[Any] = []
        self._epoch = 0.0

    # ----------------------------------------------------- per-run resources
    def _prepare_run(self) -> None:
        if self._pool is None:
            self._pool = ProcessPool(start_method=self.start_method)
        # The pool's report queue is long-lived; drop anything a previous
        # run may have left behind so its records cannot bleed into this one.
        while True:
            try:
                self._pool.outbox.get_nowait()
            except queue_module.Empty:
                break
        self._epoch = time.monotonic()  # run-relative timestamps (RPL004)

    # ------------------------------------------------------------- wait loop
    def _wait(self, until_thread: Optional[str], deadline: Optional[float]) -> None:
        while True:
            self._pump(0.02)
            self._sweep_dead_processes()
            with self._lock:
                if until_thread is not None:
                    group = [t for t in self._tasks.values() if t.logical == until_thread]
                    done = any(t.status == "finished" for t in group)
                    if done or all(not t.alive for t in group):
                        break
                else:
                    if not any(t.alive for t in self._tasks.values() if not t.daemon):
                        break
            if deadline is not None and time.perf_counter() > deadline:
                with self._lock:
                    stuck = [t.physical_id for t in self._tasks.values() if t.alive]
                for pid in stuck:
                    self.kill_thread(pid, reason="timeout")
                raise SCPError(f"process run timed out; still alive: {stuck}")
        self._drain_stragglers(until_thread, deadline)

    def _drain_stragglers(self, until_thread: Optional[str],
                          deadline: Optional[float]) -> None:
        """Give remaining processes a grace period, then shut them down."""
        grace_end = time.perf_counter() + self.shutdown_grace
        while True:
            self._pump(0.02)
            self._sweep_dead_processes()
            with self._lock:
                pending = [t for t in self._tasks.values() if t.alive and not t.daemon
                           and t.logical != until_thread]
            if not pending:
                break
            now = time.perf_counter()
            if now > grace_end or (deadline is not None and now > deadline):
                for task in pending:
                    self.kill_thread(task.physical_id, reason="shutdown")
                break
        with self._lock:
            leftovers = [t for t in self._tasks.values() if t.alive]
        for task in leftovers:
            self.kill_thread(task.physical_id, reason="shutdown")
        # Collect any last reports (a worker may have finished during the
        # sweep above) without blocking on an empty queue.
        for _ in range(50):
            if not self._pump(0.0):
                break

    def _pump(self, block_seconds: float) -> int:
        """Process queued child records; returns how many were handled."""
        outbox = self._pool.outbox
        handled = 0
        block = block_seconds > 0
        while True:
            try:
                record = (outbox.get(timeout=block_seconds) if block
                          else outbox.get_nowait())
            except queue_module.Empty:
                return handled
            block = False  # only the first get may block
            self._handle_record(record)
            handled += 1

    def _handle_record(self, record: tuple) -> None:
        tag = record[0]
        if tag == "send":
            self._route(record[2])
        elif tag == "phase":
            _, _pid, node, phase, seconds = record
            self._record_phase(phase, node, seconds)
        elif tag == "checkpoint":
            _, logical, state = record
            self._record_checkpoint(logical, state)
        elif tag == "finished":
            _, pid, result, suppressed = record
            if self._finish(pid, result) and suppressed:
                with self._lock:
                    self.collector.increment("duplicates_suppressed", suppressed)
        elif tag == "crashed":
            _, pid, message = record
            self._crash(pid, message)
        else:  # pragma: no cover - protocol bug
            _LOG.warning("unknown child record %r", record)

    def _sweep_dead_processes(self) -> None:
        """Detect replicas whose process died without a terminal report."""
        now = time.perf_counter()
        suspicious: List[str] = []
        with self._lock:
            for task in self._tasks.values():
                if task.status != "running":
                    continue
                if task.slot.process.exitcode is None:
                    task.first_seen_dead = None
                    continue
                if task.first_seen_dead is None:
                    task.first_seen_dead = now
                elif now - task.first_seen_dead >= _DEATH_CONFIRM_SECONDS:
                    suspicious.append(task.physical_id)
        for pid in suspicious:
            with self._lock:
                task = self._tasks[pid]
                # A report may have been handled between the sweep and now.
                if task.status != "running":
                    continue
                exitcode = task.slot.process.exitcode
            self._crash(pid, f"process died without reporting (exit code {exitcode})")

    # --------------------------------------------------------------- vehicle
    def _make_task(self, spec: ThreadSpec, replica: int, physical_id: str, *,
                   restored: Any, incarnation: int) -> _ProcessTask:
        if spec.name not in self._shared_params:
            params, created = share_cube_params(spec.params)
            self._shared_params[spec.name] = params
            self._shared_cubes.extend(created)
        return _ProcessTask(spec, replica, physical_id, incarnation,
                            self._pool.acquire(), restored)

    def _launch(self, task: _ProcessTask) -> None:
        task.slot.inbox.put((_ASSIGN, task.logical, task.replica, task.physical_id,
                             task.physical_id, task.spec.program,
                             self._shared_params[task.logical], task.restored,
                             task.incarnation, self._epoch))
        # Only after the assignment: the slot's idle loop drops anything
        # that arrives earlier.
        self._replay_dead_letters(task)

    def _deliver(self, task: _ProcessTask, envelope: Envelope) -> bool:
        try:
            task.slot.inbox.put(envelope)
        except QUEUE_BROKEN_ERRORS:
            # Routing picked the replica, then a kill_thread discarded its
            # slot: the envelope dies with the replica, as on a real crash.
            pass
        return True  # duplicates are suppressed (and counted) child-side

    def _terminate(self, task: _ProcessTask, reason: str) -> None:
        if reason == "shutdown":
            # Ask the child to abandon the program and return to idle; the
            # slot itself is discarded at cleanup (it may comply arbitrarily
            # late, so it must not be reused).
            try:
                task.slot.inbox.put(_SHUTDOWN)
            except QUEUE_BROKEN_ERRORS:  # pragma: no cover - slot already discarded
                pass
        else:
            # Fault injection / timeout: SIGKILL the slot for real --
            # indistinguishable from a genuine crash.
            self._pool.discard(task.slot)

    # --------------------------------------------------------------- cleanup
    def _cleanup(self) -> None:
        """Hand slots back to the pool; close the pool if it is private.

        Only slots whose program provably ended -- a ``finished`` report, or
        a ``crashed`` report from a program error the child caught (the
        child is back in its idle loop either way) -- are recycled.  A slot
        whose process died, or that was shut down mid-program and may still
        be executing, is discarded so the pool never hands out a slot with
        an old program attached.
        """
        with self._lock:
            tasks = list(self._tasks.values())
        for task in tasks:
            if task.status in ("finished", "crashed") and task.slot.alive:
                self._pool.release(task.slot)
            else:
                self._pool.discard(task.slot)
        if self._owns_pool and self._pool is not None:
            self._pool.close()
        for cube in self._shared_cubes:
            cube.close()
        self._shared_cubes.clear()


__all__ = ["ProcessBackend"]
