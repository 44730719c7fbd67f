"""Stage-task execution over worker transports: the streaming engine's motor.

The SCP backends run *programs* -- long-lived effectful generators wired
into a manager/worker application.  The streaming pipeline engine
(:mod:`repro.core.streaming`) needs something much smaller: fire thousands
of short, pure *stage tasks* (screen this tile, accumulate this covariance
partial, colour-map that tile) at a bounded set of workers and collect
their results as futures, with several independent fusions in flight at
once.

This module provides that layer on top of the worker-transport seam
(:mod:`repro.scp.transport`):

* a tiny child-side task protocol (:func:`try_run_stage`) the pool's idle
  loop understands -- every process worker, forked or behind a node agent,
  is a pool slot -- so stage tasks execute on whatever substrate the
  transport provides;
* :class:`TransportStageExecutor` -- the parent-side dispatcher: it keeps
  one FIFO *ready queue*, sends its oldest task whenever the transport
  grants a place (the transport alone bounds the tasks in flight, so
  ``submit`` never blocks), routes committed results back to per-task
  futures, sweeps for workers that died mid-task (SIGKILL, OOM, whole-node
  loss) and transparently re-dispatches the task on a fresh worker, ahead
  of everything queued; it also keeps the kill-request bookkeeping and the
  per-stage observability counters (identical semantics on threads and
  processes, because there is one executor);
* a typed error taxonomy (:class:`StageError`, :class:`StageCrashError`)
  so a stream either completes or fails cleanly -- never hangs.

Determinism note: stage tasks must be *pure* module-level functions of
their arguments.  That is what makes crash recovery invisible -- a task
re-run on a fresh worker returns bit-identical results -- and what the
crash matrix tests assert stage by stage.

Crash-safe result transport
---------------------------
Multiprocessing queues cannot survive a SIGKILLed writer: a process killed
mid-``put`` leaves a partial pickle frame that wedges every later read,
and one killed between ``send_bytes`` and releasing the queue's shared
write-lock leaks a non-robust POSIX semaphore that blocks every *other*
process's feeder forever (both failure modes were observed under the
crash-matrix tests; the second is why ``concurrent.futures`` declares a
pool "broken" on any worker death).  Stage results therefore never touch
a queue at all: the child pickles the result (or the error text) to a
*spool file* on tmpfs and commits it with an atomic ``os.rename``
(:func:`repro.scp.serialization.commit_spool_file`), and the parent's
router discovers completions by scanning the spool directory.  A kill
either commits a complete file or leaves nothing, no lock is shared on
the result path, and the router can never block -- which is what makes
the "completes or fails typed, never hangs" contract hold.  This
invariant lives in :mod:`repro.scp.transport`, where every transport
(forked pool slots and socket node agents alike) reuses it, and it holds
on the other worker substrate too: the replicas of an SCP ``process`` run
commit their records to their run's spool the same way
(:mod:`repro.scp.process_backend`).  The one queue a worker touches is its
slot's inbox, which only the slot's owner writes.

The router does not *poll* for those files, though: it sleeps in the
transport's ``wait`` until something may have changed.  ``submit`` and
``close`` wake it, a worker rings the spool's doorbell after its rename
(one byte into a FIFO: a hint to scan now, never the result -- a lost
ring costs one 50 ms safety-net timeout, and :attr:`TransportStageExecutor.
late_commits` counts the commits found that way), and the death of a
worker with a task in flight ends the wait through its process sentinel
or the node agent's ``worker-dead`` frame.  A worker the transport can
certify *reaped* can commit nothing more and whatever it renamed before
dying is already visible, so its task is retried after one more scan;
the timed ``_DEATH_CONFIRM_SECONDS`` window remains only for a ref whose
transport cannot say so -- a lost node agent, whose orphaned workers may
still be running.
"""

from __future__ import annotations

import collections
import itertools
import pickle
import threading
import time
from concurrent.futures import Future
from typing import Any, Callable, Deque, Dict, Optional, Sequence, Tuple

from ..logging_utils import get_logger
from .errors import SCPError
from .serialization import (ERROR_SUFFIX as _ERROR_SUFFIX,
                            RESULT_SUFFIX as _RESULT_SUFFIX,
                            commit_spool_file as _commit_spool_file,
                            ring_doorbell as _ring_doorbell)
from .transport import (STAGE_ASSIGN as _STAGE_ASSIGN, CommittedResult,
                        TaskFrame, WorkerTransport)

_LOG = get_logger("scp.stages")

#: Longest the router sleeps with work in flight: the safety net behind a
#: lost doorbell ring, and the tick of the timed death confirmation.
_SAFETY_NET_SECONDS = 0.05

#: Seconds a worker that probes dead, but that its transport cannot certify
#: reaped (a lost node agent's orphans may still be renaming), is given before
#: its task is declared lost.  A reaped process needs no such window:
#: everything it committed is already visible to one more scan.
_DEATH_CONFIRM_SECONDS = 0.25

#: Longest an idle router sleeps.  Nothing can commit while nothing is in
#: flight and ``submit``/``close`` wake it, so this is only a backstop.
_IDLE_BACKSTOP_SECONDS = 5.0


class StageError(SCPError):
    """A stage task failed and the failure is attributable to the task.

    Raised out of the task's future when the stage function itself raised
    (deterministic program error -- retrying would fail identically) or when
    the executor was closed underneath a pending task.
    """

    def __init__(self, stage: str, message: str) -> None:
        super().__init__(f"stage {stage!r}: {message}")
        self.stage = stage


class StageCrashError(StageError):
    """A stage task's worker process died and the retry budget is exhausted.

    Distinct from :class:`StageError` so callers can tell "my stage function
    is buggy" from "the execution substrate kept dying under me".
    """


def try_run_stage(item: Any) -> bool:
    """Child-side protocol: execute ``item`` if it is a stage task.

    Called from the pool slot's idle loop for every inbox item.  Returns
    True when ``item`` was a stage task (handled here, loop continues),
    False when it is something else (a program assignment, a stale
    envelope) the caller should interpret itself.  Results travel through
    spool files, never a queue, precisely so nothing is shared with
    processes that may be SIGKILLed (see the module docstring); the
    doorbell is rung after the rename so the owner scans now.

    The stage function runs under a blanket exception guard: a failing task
    commits an error file and leaves the worker healthy and reusable, so
    one poisoned tile cannot take a worker down with it.
    """
    if not (isinstance(item, tuple) and len(item) == 7 and item[0] == _STAGE_ASSIGN):
        return False
    _, task_id, attempt, spool_dir, fn, args, kwargs = item
    stem = f"{task_id}-{attempt}"
    try:
        try:
            result = fn(*args, **kwargs)
        except Exception as err:  # noqa: BLE001 - task errors reported, not fatal
            _commit_spool_file(spool_dir, stem + _ERROR_SUFFIX,
                               repr(err).encode("utf-8", "replace"))
        else:
            _commit_spool_file(spool_dir, stem + _RESULT_SUFFIX,
                               pickle.dumps(result,
                                            protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:  # spool dir gone: the executor was closed underneath
        return True    # this task; keep the worker alive regardless
    _ring_doorbell(spool_dir)
    return True


class _PendingStage:
    """Parent-side record of one in-flight stage task."""

    __slots__ = ("task_id", "stage", "runs", "fn", "args", "kwargs", "future",
                 "ref", "attempt", "first_seen_dead")

    def __init__(self, task_id: int, stage: str, covers: Sequence[str],
                 fn: Callable, args: Tuple, kwargs: Dict) -> None:
        self.task_id = task_id
        self.stage = stage
        #: Every stage whose work this task runs: its own label, then the
        #: stages it covers.  An armed kill on any of them fires on it.
        self.runs: Tuple[str, ...] = (stage, *covers)
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.future: Future = Future()
        self.ref = None
        self.attempt = 0
        self.first_seen_dead: Optional[float] = None


class TransportStageExecutor:
    """Dispatch stage tasks onto the workers of a :class:`WorkerTransport`.

    Parameters
    ----------
    transport:
        The worker substrate.  The executor owns it for its lifetime
        (``close()`` closes it); a transport wrapping a shared resource
        -- e.g. a session's :class:`~repro.scp.pool.ProcessPool` -- leaves
        that resource open (it closes only what it created itself).
    workers:
        Workers the tasks run on, provisioned at construction.  How many
        tasks each one holds at once is the transport's to grant; the rest
        wait in the executor's ready queue.
    max_retries:
        How many times a task whose *worker died* is re-dispatched on a
        fresh worker before its future fails with
        :class:`StageCrashError`.  Deterministic task errors are never
        retried.
    """

    def __init__(self, transport: WorkerTransport, *, workers: int = 4,
                 max_retries: int = 2) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self._transport = transport
        self._workers = workers
        self._max_retries = max_retries
        self._pending: Dict[int, _PendingStage] = {}
        #: Tasks waiting for a place on a worker, oldest first: submits join
        #: the back, crash retries the front.
        self._ready: Deque[_PendingStage] = collections.deque()
        self._lock = threading.Lock()
        #: Held while the ready queue is drained: tasks leave it in order,
        #: whichever thread -- a submitter or the router -- sends them.
        self._dispatch_lock = threading.Lock()
        self._ids = itertools.count()
        self._closed = False
        #: Tasks re-dispatched after their worker died (chaos metric).
        self.retries = 0
        #: Commits first found by a scan that followed a *timed-out* wait:
        #: the hint that should have announced them was lost or absent.
        #: What makes event-drivenness testable without a stopwatch: 0 in a
        #: healthy run, about one per task once rings stop arriving.  (The
        #: one benign source is a safety-net timeout that beats a ring by
        #: microseconds -- a few per thousand requests, and only where tasks
        #: leave 50 ms of silence, e.g. while a killed worker is respawned.)
        self.late_commits = 0
        #: Result-payload bytes read back through the spool, per stage.
        #: The output placement's observable: the ``project`` stage's entry
        #: is O(1) row-range acknowledgements per tile, not O(pixels)
        #: pickled arrays.
        #: Stays empty on in-process transports (nothing is serialised).
        self.stage_payload_bytes: Dict[str, int] = {}
        #: Injected kills that actually fired, per stage (chaos
        #: observability: recovery metrics diff this against ``retries``).
        self.kills_delivered: Dict[str, int] = {}
        self._kill_requests: Dict[str, int] = {}
        # Pre-provision the worker budget from the constructing thread:
        # steady-state dispatches then find idle workers instead of
        # spawning from driver or router threads (forking there can race
        # other threads' queue feeders; only the crash-retry respawn
        # still grows the substrate off-thread, as a last resort).
        try:
            transport.start(workers)
        except Exception:
            transport.close()
            raise
        self._router = threading.Thread(target=self._route, daemon=True,
                                        name="stage-router")
        self._router.start()

    # ------------------------------------------------------------------ API
    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def in_flight(self) -> int:
        with self._lock:
            return len(self._pending)

    @property
    def transport(self) -> WorkerTransport:
        """The worker transport this executor dispatches through."""
        return self._transport

    @property
    def supports_kill(self) -> bool:
        """Whether :meth:`inject_kill` can SIGKILL a real worker."""
        return self._transport.supports_kill

    def submit(self, stage: str, fn: Callable, *args,
               covers: Sequence[str] = (), **kwargs) -> Future:
        """Queue one stage task; returns its future at once.

        The task joins the back of the ready queue, which is then drained
        for as long as the transport grants a place, so a task that finds a
        free place is sent before ``submit`` returns; the others are sent
        by the router as commits free places.  A task that cannot be sent
        (say, it does not pickle) fails its future with
        :class:`StageCrashError` and costs no worker, place or armed kill.

        ``covers`` names further stages whose work this one task *runs* (a
        whole-request task runs screening, covariance and projection), so
        :meth:`inject_kill` on any of them still finds a task to fire on.
        """
        record = _PendingStage(next(self._ids), stage, covers, fn, args, kwargs)
        with self._lock:
            # Checked under the lock: close() drains _pending under the same
            # lock after setting _closed, so a racing submit either lands
            # before the drain (and is failed by it) or sees _closed here --
            # a task can never be registered with no router left to resolve
            # it.
            if self._closed:
                raise StageError(stage, "stage executor is closed")
            self._pending[record.task_id] = record
            self._ready.append(record)
        self._dispatch_ready(spawn=True)
        self._transport.wake()  # an idle router sleeps until told
        return record.future

    # ---------------------------------------------------------------- chaos
    def inject_kill(self, stage: str, kills: int = 1) -> None:
        """Chaos hook: SIGKILL the worker of the next ``kills`` tasks that
        *run* ``stage`` right after dispatch, exactly as a mid-stage OOM
        kill or node loss would.  The crash-matrix tests drive every
        pipeline stage through this and assert the stream still completes
        bit-identically (retry budget permitting) or fails with a typed
        error.

        A task runs the stage it is labelled with and every stage it
        ``covers`` (see :meth:`submit`).  One dispatch takes one armed kill
        from *each* stage the task runs, its worker is killed once, and
        :attr:`kills_delivered` credits every stage taken -- so a kill armed
        on ``"screen"`` fires whether the request was split into stage tasks
        or placed whole, and one kill per stage armed before a whole request
        costs it one retry, not three.

        A request only fires when a task running ``stage`` actually dispatches.
        On a long-lived session executor an unconsumed request would
        otherwise leak into the *next* run (an empty stream, a stage name
        that never dispatches); callers injecting chaos should drain
        leftovers with :meth:`cancel_kills` at the end of each run --
        :attr:`pending_kills` makes the leak observable.

        The count is validated *first* (``ValueError`` on every transport),
        then the capability (``NotImplementedError`` on host threads).
        """
        if kills < 1:
            raise ValueError("kills must be >= 1")
        if not self.supports_kill:
            raise NotImplementedError(
                "thread-backed stage executors cannot lose a worker to "
                "SIGKILL; use a 'process' or 'socket' backend spec to "
                "exercise crash recovery")
        with self._lock:
            self._kill_requests[stage] = self._kill_requests.get(stage, 0) + kills

    @property
    def pending_kills(self) -> Dict[str, int]:
        """Outstanding :meth:`inject_kill` requests that have not fired yet."""
        with self._lock:
            return {stage: count for stage, count
                    in self._kill_requests.items() if count > 0}

    def cancel_kills(self, stage: Optional[str] = None) -> Dict[str, int]:
        """Withdraw outstanding kill requests (all stages, or just ``stage``).

        Returns what was cancelled, so chaos harnesses can both clean up
        after a run and report how many injected kills never dispatched.
        """
        with self._lock:
            if stage is None:
                cancelled = {name: count for name, count
                             in self._kill_requests.items() if count > 0}
                self._kill_requests.clear()
            else:
                count = self._kill_requests.pop(stage, 0)
                cancelled = {stage: count} if count > 0 else {}
        return cancelled

    def _take_kill_request_locked(self, stage: str) -> bool:
        """Consume one kill request for ``stage`` (caller holds the lock)."""
        count = self._kill_requests.get(stage, 0)
        if count <= 0:
            return False
        if count == 1:
            # Drop exhausted entries so pending_kills only reports
            # requests that can still fire.
            del self._kill_requests[stage]
        else:
            self._kill_requests[stage] = count - 1
        return True

    # ------------------------------------------------------------- dispatch
    def _dispatch_ready(self, *, spawn: bool) -> None:
        """Send ready tasks, oldest first, while the transport grants a place.

        Only a submitter (``spawn=True``) may replace a lost worker: the
        router must not fork while driver threads are mid-put on other
        queues (a forked child can inherit feeder state that loses its
        first assignment -- observed as a wedged retry slot), so it grows
        or restarts the substrate only on total loss (a dead pool, or a
        SIGKILLed node agent).  A task whose dispatch raises fails typed;
        the drain goes on.
        """
        with self._dispatch_lock:
            while True:
                with self._lock:
                    if not self._ready:
                        return
                    record = self._ready.popleft()
                try:
                    ref = self._transport.acquire(spawn=spawn)
                    if (ref is None and not spawn
                            and self._transport.alive_workers() == 0):
                        ref = self._transport.acquire()
                    if ref is None:  # every place taken; a commit frees one
                        with self._lock:
                            self._ready.appendleft(record)
                        return
                    self._dispatch(record, ref)
                except Exception as err:  # noqa: BLE001 - failed typed, never fatal
                    crash = StageCrashError(record.stage,
                                            f"could not dispatch: {err!r}")
                    crash.__cause__ = err
                    self._fail(record, crash)

    def _dispatch(self, record: _PendingStage, ref) -> None:
        """Send ``record`` to ``ref``, then fire any kill armed on it.  A
        send that raises hands ``ref`` back and leaves the armed kills."""
        with self._lock:
            abandoned = self._pending.get(record.task_id) is not record
            if not abandoned:
                record.ref = ref
                record.first_seen_dead = None
                record.attempt += 1
        if abandoned:
            # close() failed this task between registration and dispatch;
            # hand the unused worker straight back.
            self._transport.release(ref)
            return
        try:
            self._transport.send(ref, TaskFrame(
                task_id=record.task_id, attempt=record.attempt,
                stage=record.stage, fn=record.fn, args=record.args,
                kwargs=record.kwargs))
        except Exception:
            with self._lock:
                record.ref = None
            self._transport.release(ref)
            raise
        with self._lock:
            chaos = [stage for stage in record.runs
                     if self._take_kill_request_locked(stage)]
        if chaos:
            self._transport.kill(ref)
            with self._lock:
                for stage in chaos:
                    self.kills_delivered[stage] = (
                        self.kills_delivered.get(stage, 0) + 1)

    # --------------------------------------------------------------- router
    def _route(self) -> None:
        """Collect committed results; sweep for dead workers; sleep until
        the transport says something may have changed.

        The router reads no queue that a SIGKILLed worker could corrupt --
        commits arrive through the transport's crash-safe path (spool scan
        or in-memory hand-off), so it can never block (the property the
        crash matrix leans on).  What wakes it is only ever a hint; the
        scan decides.
        """
        woken = True
        while not self._closed:
            resolved = self._collect()
            if not woken:
                self.late_commits += resolved
            self._sweep()
            self._dispatch_ready(spawn=False)  # resolves and sweeps free places
            woken = self._transport.wait(_SAFETY_NET_SECONDS if self._pending
                                         else _IDLE_BACKSTOP_SECONDS)

    def _collect(self) -> int:
        """One authoritative scan: resolve what was committed; the count."""
        return sum(1 for committed in self._transport.poll_committed()
                   if self._resolve(committed))

    def _resolve(self, committed: CommittedResult) -> bool:
        with self._lock:
            record = self._pending.get(committed.task_id)
            if record is None or committed.attempt != record.attempt:
                # A stale commit from an attempt whose worker was discarded
                # (e.g. killed right after committing, then retried): the
                # retry's commit is the one that counts.  The transport
                # already consumed the stale file.
                return False
            del self._pending[committed.task_id]
        if record.ref is not None:
            self._transport.release(record.ref)
        if committed.payload_nbytes:
            with self._lock:
                self.stage_payload_bytes[record.stage] = (
                    self.stage_payload_bytes.get(record.stage, 0)
                    + committed.payload_nbytes)
        if committed.crash:  # the commit happened, so this is abnormal
            record.future.set_exception(StageCrashError(
                record.stage, str(committed.value)))
        elif committed.error:
            value = committed.value
            if isinstance(value, StageError):
                record.future.set_exception(value)
            elif isinstance(value, BaseException):
                error = StageError(record.stage, repr(value))
                error.__cause__ = value
                record.future.set_exception(error)
            else:
                record.future.set_exception(StageError(record.stage, str(value)))
        else:
            record.future.set_result(committed.value)
        return True

    def _sweep(self) -> None:
        """Detect workers that died mid-task; retry or fail their tasks.

        Every pending record bound to a dead ref is lost, so one SIGKILL
        retries both tasks its worker held: the one it ran and the one
        queued behind it.  Retries join the front of the ready queue, so
        they are sent before any task submitted after the death was seen.
        Each retry resolves once, by attempt number.

        A worker the transport certifies *reaped* needs no timer: it can
        commit nothing more, so one scan made after the death was observed
        sees everything it ever renamed, and a task still pending after
        that scan is lost -- as is whatever its attempt left half-written
        (a kill mid-commit), which is removed before the retry.  Only a ref
        whose transport cannot say so waits out ``_DEATH_CONFIRM_SECONDS``.
        """
        now = time.monotonic()
        lost = []
        reaped = []
        with self._lock:
            for record in self._pending.values():
                if record.ref is None or self._transport.probe(record.ref):
                    record.first_seen_dead = None
                elif self._transport.reaped(record.ref):
                    reaped.append((record.task_id, record.attempt))
                    lost.append(record)
                elif record.first_seen_dead is None:
                    record.first_seen_dead = now
                elif now - record.first_seen_dead >= _DEATH_CONFIRM_SECONDS:
                    lost.append(record)
        if reaped:
            self._collect()
            for task_id, attempt in reaped:
                self._transport.discard_partial(task_id, attempt)
            with self._lock:
                lost = [record for record in lost
                        if record.task_id in self._pending]
        retried = []
        for record in lost:
            self._transport.discard(record.ref)
            if record.attempt <= self._max_retries:
                _LOG.warning("stage %r task %d lost its worker (attempt %d); "
                             "re-dispatching", record.stage, record.task_id,
                             record.attempt)
                retried.append(record)
            else:
                self._fail(record, StageCrashError(
                    record.stage,
                    f"worker process died {record.attempt} time(s) running "
                    f"task {record.task_id}; retry budget exhausted"))
        if retried:
            with self._dispatch_lock, self._lock:  # not amid a drain's put-back
                for record in retried:
                    record.ref = None
                self._ready.extendleft(reversed(retried))  # ahead of all queued
                self.retries += len(retried)

    def _fail(self, record: _PendingStage, error: StageError) -> None:
        with self._lock:
            if self._pending.pop(record.task_id, None) is None:
                return
        record.future.set_exception(error)

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Stop routing, settle pending tasks, close the transport
        (idempotent).

        Killable transports (processes): an abandoned stream may leave
        tasks mid-execution; their workers are discarded rather than
        released (a recycled worker must be genuinely idle) and their
        futures fail with a typed error, so nothing blocks interpreter
        shutdown on a queue feeder thread.

        Drain-on-close transports (host threads): running tasks cannot be
        abandoned, so the transport is closed first -- which waits for
        them -- and their already-committed results resolve normally.
        """
        if self._closed:
            return
        self._closed = True
        self._transport.wake()  # the router may be asleep until woken
        self._router.join(timeout=2.0)
        if self._transport.drain_on_close:
            self._transport.close()  # waits for running thread tasks
            for committed in self._transport.poll_committed():
                self._resolve(committed)
        with self._lock:
            pending = list(self._pending.values())
            self._pending.clear()
            self._ready.clear()
        for record in pending:  # a worker's running and queued task alike
            if record.ref is not None:
                self._transport.discard(record.ref)
            if not record.future.done():
                record.future.set_exception(
                    StageError(record.stage, "stage executor closed with the "
                                             "task still in flight"))
        self._transport.close()

    def __enter__(self) -> "TransportStageExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


__all__ = ["StageCrashError", "StageError", "TransportStageExecutor",
           "try_run_stage"]
