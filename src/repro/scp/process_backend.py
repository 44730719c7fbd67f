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
:class:`~repro.scp.group.Router` and the run's *spool* directory.  A child
never talks to another child and never writes to a queue (a SIGKILLed writer
tears one for every reader, see :mod:`repro.scp.stages`): a
:class:`~repro.scp.effects.Send` becomes a pickled
:class:`~repro.scp.serialization.Envelope` committed to the spool by atomic
rename; the parent, asleep on the spool's doorbell and the replicas' process
sentinels, scans, expands the logical destination to the live replicas and
puts the envelope on each one's private ``inbox`` queue, which it alone
writes.  In the child the inbox feeds the ordinary
:class:`~repro.scp.channel.Mailbox`, so port filtering and duplicate
suppression behave exactly as on the other backends.

The pool is the only place a worker process is forked.  A one-shot run owns
a private pool and closes it afterwards; a
:class:`~repro.api.session.FusionSession` hands successive backend instances
its long-lived pool, so repeated runs reuse live processes.

Bulk problem data is *not* pickled: thread parameters holding a
:class:`~repro.data.cube.HyperspectralCube` are transparently converted to
:class:`~repro.data.shared.SharedCube`, whose samples live in a shared-memory
segment that every process maps zero-copy.  Messages carry none either: a
message naming that cube pickles as its handle, so the fusion manager's
sub-cube tasks (the cube plus a row range) no longer copy their blocks to
every replica.  The segment outlives every replica that can read it, regenerated
ones included: a session pins its placement for the whole run, and a cube
placed here is closed by :meth:`_cleanup`, after the stragglers' grace.

Crash handling mirrors the local backend (the parent-side bookkeeping is
literally shared, see :mod:`repro.scp.wallclock`): a program exception is
reported and recorded as a ``"crashed"`` outcome (raised as
:class:`~repro.scp.errors.ThreadCrashedError` after the run under the default
crash policy, unless the awaited thread finished anyway), and a process
that dies without reporting -- a hard kill, an out-of-memory kill, a
segfault -- is declared crashed once reaped and scanned for one last time.
Death notifications feed the same ``subscribe_thread_death`` /
``spawn_thread`` control interface the resiliency layer drives on the other
backends, so failed workers can be regenerated on fresh slots mid-run.
"""

from __future__ import annotations

import os
import pickle
import queue as queue_module
import shutil
import tempfile
import time
from typing import Any, Callable, Dict, List, Optional

from ..data.shared import share_cube_params
from ..logging_utils import get_logger
from .channel import Mailbox
from .effects import Checkpoint, Compute, GetTime, Probe, Recv, Send, Sleep
from .errors import ReceiveTimeout, SCPError
from .pool import _ASSIGN, QUEUE_BROKEN_ERRORS, ProcessPool, _PoolSlot
from .runtime import Context
from .serialization import (RESULT_SUFFIX, CommittedResult, Envelope, _Doorbell,
                            _join_fired, collect_spool, commit_spool_file,
                            discard_partials, ring_doorbell, spool_root)
from .thread import ThreadSpec
from .wallclock import ReplicaTask, WallClockBackend

_LOG = get_logger("scp.process")

#: Sentinel deposited on a child's inbox asking it to abandon its program.
_SHUTDOWN = "__scp_shutdown__"

#: Spacing of the duplicate-suppression sequence ranges of successive
#: incarnations, so a regenerated replica's un-keyed messages are never
#: mistaken for its predecessor's.
_INCARNATION_SEQ_STRIDE = 1_000_000


class _ShutdownSignal(BaseException):
    """Internal control flow: the parent asked this child to abandon its
    program (a ``BaseException`` so no program-error handler swallows it)."""


# ---------------------------------------------------------------------------
# Child-process side
# ---------------------------------------------------------------------------

def _interpret_program(inbox, logical: str, replica: int, physical_id: str,
                       node: str, program: Callable, params: Dict[str, Any],
                       restored: Any, incarnation: int, epoch: float,
                       spool_dir: str, uid: int) -> None:
    """Interpret one thread program inside a worker process.

    Everything observable leaves as small tagged tuples -- ``("send",
    envelope)``, ``("phase", name, node, seconds)``, ``("checkpoint", state)``,
    ``("finished", result, dups)`` and ``("crashed", message)`` -- each
    committed to ``spool_dir`` as ``{uid}-{seq}.result`` (``uid`` names this
    launch to the parent, ``seq`` counts its records from 0).

    Returns normally when the program runs to completion, when the parent
    requests a shutdown mid-program and when the run's spool is already gone,
    so a long-lived pool worker (:mod:`repro.scp.pool`) can call this in a
    loop, one program per run.
    """
    ctx = Context(name=logical, replica=replica, physical_id=physical_id,
                  node=node, params=dict(params), restored=restored,
                  incarnation=incarnation)
    mailbox = Mailbox(physical_id, dedup=True, thread_safe=False)
    send_seq = incarnation * _INCARNATION_SEQ_STRIDE
    parent = os.getppid()
    committed = 0

    def report(*record: Any) -> None:
        # A number is spent only on a commit: a record pickle or the spool
        # refuses leaves no hole for the crash record that follows to wait behind.
        nonlocal committed
        payload = pickle.dumps(record, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            commit_spool_file(spool_dir, f"{uid}-{committed}{RESULT_SUFFIX}", payload)
        except OSError:
            if os.path.isdir(spool_dir):
                raise
            raise _ShutdownSignal() from None  # the run is over, its spool removed
        committed += 1
        ring_doorbell(spool_dir)

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
            report("phase", effect.phase, node, time.perf_counter() - start)
            return result
        if isinstance(effect, Send):
            send_seq += 1
            envelope = Envelope(src=logical, dst=effect.dst, port=effect.port,
                                payload=effect.payload, seq=send_seq,
                                key=effect.key, src_physical=physical_id,
                                urgent=effect.urgent, send_time=now())
            report("send", envelope)
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
            report("checkpoint", effect.state)
            return None
        if isinstance(effect, GetTime):
            return now()
        raise SCPError(f"program yielded a non-effect object: {effect!r}")

    gen = program(ctx, **params)
    value: Any = None
    throw: Optional[BaseException] = None
    try:
        try:
            while True:
                try:
                    if throw is not None:
                        exc, throw = throw, None
                        effect = gen.throw(exc)
                    else:
                        effect = gen.send(value)
                except StopIteration as stop:
                    report("finished", stop.value, mailbox.suppressed_duplicates)
                    return
                try:
                    value = execute(effect)
                except ReceiveTimeout as err:
                    value, throw = None, err
        except ReceiveTimeout as err:
            report("crashed", f"uncaught ReceiveTimeout: {err}")
        except Exception as err:  # noqa: BLE001 - program errors (and records
            report("crashed", repr(err))  # pickle refuses) are reported
    except _ShutdownSignal:
        return


# ---------------------------------------------------------------------------
# Parent-process side
# ---------------------------------------------------------------------------

class _ProcessTask(ReplicaTask):
    """Parent-side record of one replica running on a borrowed pool slot."""

    def __init__(self, spec: ThreadSpec, replica: int, physical_id: str,
                 incarnation: int, slot: _PoolSlot, restored: Any, uid: int) -> None:
        super().__init__(spec, replica, physical_id, incarnation)
        self.slot = slot
        self.restored = restored
        self.uid = uid
        #: Records read ahead of a predecessor, by sequence number, and the
        #: number of the next one to handle (see ``_pump``).
        self.held: Dict[int, CommittedResult] = {}
        self.next_seq = 0


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
            pool per run.
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
        self._spool: Optional[str] = None
        #: Every vehicle launched, indexed by the ``uid`` its records carry: a
        #: regenerated replica cannot be taken for its predecessor.
        self._vehicles: List[_ProcessTask] = []

    # ----------------------------------------------------- per-run resources
    def _prepare_run(self) -> None:
        # This run's alone: a pool that outlives it carries nothing over.
        self._spool = tempfile.mkdtemp(prefix="scp-stages-", dir=spool_root())
        self._doorbell = _Doorbell(self._spool)
        if self._pool is None:
            self._pool = ProcessPool(start_method=self.start_method)
        self._epoch = time.monotonic()  # run-relative timestamps (RPL004)

    # ------------------------------------------------------------- wait loop
    def _wait(self, until_thread: Optional[str], deadline: Optional[float]) -> None:
        while True:
            self._pump(0.02)
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
        self._pump(0.0)  # a worker may have finished during the sweep above

    def _pump(self, block_seconds: float) -> int:
        """Sleep until a commit, a replica's death or the timeout, then handle
        what the spool holds; returns how many records were handled.

        The directory may list a replica's record *n+1* and miss *n*, renamed
        a moment earlier, so a record waits for its predecessors.  A replica
        reaped before the scan can commit nothing more and all it renamed is
        listed: still ``running`` afterwards, it died without reporting.

        The running replicas' sentinels are the one liveness source: a wake
        with none fired asks no process for its exit status, and a zero
        ``block_seconds`` still reports a death that has happened.
        """
        with self._lock:
            running = [t for t in self._tasks.values() if t.status == "running"]
        watched = {task.slot.process.sentinel: task.slot.process for task in running}
        fired = self._doorbell.wait(block_seconds, watched)
        _join_fired(watched, fired)
        reaped = [task for task in running if task.slot.process.sentinel in fired]
        for item in collect_spool(self._spool):  # named {uid}-{seq}
            self._vehicles[item.task_id].held[item.attempt] = item
        handled = 0
        for task in list(self._vehicles):
            while task.next_seq in task.held:
                item = task.held.pop(task.next_seq)
                task.next_seq += 1
                # A commit that cannot be read back costs the run its replica.
                record = ("crashed", item.value) if item.crash else item.value
                self._handle_record(task, *record)
                handled += 1
        for task in reaped:
            discard_partials(self._spool, f"{task.uid}-")  # killed mid-commit
            self._crash(task.physical_id, "process died without reporting "
                        f"(exit code {task.slot.process.exitcode})")
        return handled

    def _handle_record(self, task: _ProcessTask, tag: str, *fields: Any) -> None:
        if tag == "send":
            self._route(*fields)
        elif tag == "phase":
            self._record_phase(*fields)
        elif tag == "checkpoint":
            self._record_checkpoint(task.logical, *fields)
        elif not task.alive:
            pass  # declared dead already; a successor may hold its name by now
        elif tag == "finished":
            result, suppressed = fields
            if self._finish(task.physical_id, result) and suppressed:
                with self._lock:
                    self.collector.increment("duplicates_suppressed", suppressed)
        elif tag == "crashed":
            self._crash(task.physical_id, *fields)
        else:  # pragma: no cover - protocol bug
            _LOG.warning("unknown child record %r", (tag, *fields))

    # --------------------------------------------------------------- vehicle
    def _make_task(self, spec: ThreadSpec, replica: int, physical_id: str, *,
                   restored: Any, incarnation: int) -> _ProcessTask:
        if spec.name not in self._shared_params:
            params, created = share_cube_params(spec.params)
            self._shared_params[spec.name] = params
            self._shared_cubes.extend(created)
        task = _ProcessTask(spec, replica, physical_id, incarnation,
                            self._pool.acquire(), restored, len(self._vehicles))
        self._vehicles.append(task)
        return task

    def _launch(self, task: _ProcessTask) -> None:
        task.slot.inbox.put((_ASSIGN, task.logical, task.replica, task.physical_id,
                             task.physical_id, task.spec.program,
                             self._shared_params[task.logical], task.restored,
                             task.incarnation, self._epoch, self._spool, task.uid))
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
        if self._spool is not None:  # after the slots: nothing reports any more
            self._doorbell.close()
            shutil.rmtree(self._spool, ignore_errors=True)
        for cube in self._shared_cubes:
            cube.close()
        self._shared_cubes.clear()


__all__ = ["ProcessBackend"]
