"""Worker transports: the one seam between stage executors and workers.

A :class:`WorkerTransport` is the narrow contract the stage executor
(:class:`~repro.scp.stages.TransportStageExecutor`) drives, so a new
execution substrate is one subclass, not another copy of the worker
plumbing:

* ``start`` -- pre-provision the worker budget (spawn or attach);
* ``acquire``/``send`` -- borrow a place on a worker and hand it a task
  frame: each worker runs one task and holds the next
  (:data:`TASKS_PER_WORKER`: the one bound on tasks in flight);
* ``poll_committed`` -- collect results that were durably *committed*
  (an atomic spool rename, or an in-memory hand-off for host threads);
* ``wait``/``wake`` -- park the router until a commit, a worker death or
  a ``wake()`` (level-triggered), and say whether an event or the clock
  ended the wait;
* ``probe``/``reaped``/``kill`` -- liveness, the death certificate that
  spares a timed confirmation, and the chaos hard-kill hook;
* ``release``/``discard``/``close`` -- recycle, condemn, drain.

Three transports ship here; :func:`transport_for_spec` is the one place a
backend spec is mapped to one of them:

``inprocess`` (:class:`InProcessTransport`)
    Host threads inside the session process; no pickling, results
    hand over through an in-memory queue.  Backs the ``local`` and
    ``sim`` specs.
``forked-process`` (:class:`ForkedProcessTransport`)
    Long-lived :class:`~repro.scp.pool.ProcessPool` slots; task frames
    travel over each slot's private mp-queue inbox, results come back
    through spool files.  Backs ``process:N``.
``socket`` (:class:`SocketTransport`)
    A localhost *node agent* -- a separate interpreter running
    :func:`_agent_cli` -- reached over length-prefixed pickled frames
    on a TCP connection.  The agent owns N worker processes (pool slots
    of its own :class:`~repro.scp.pool.ProcessPool`); the parent never
    shares a queue with anything it might SIGKILL, and results still
    travel through the very same spool commit as the forked transport.
    Backs ``socket:N`` and is the stepping stone to multi-host
    ``cluster:`` specs: pointing the frame stream at a remote agent is a
    configuration change, not a rewrite.

Crash-safety invariants (kept here, in one place lintlab can see):

* results *never* travel over a queue or socket shared with a killable
  worker -- workers commit pickled results to tmpfs spool files with an
  atomic rename (:func:`repro.scp.serialization.commit_spool_file`) and
  parents discover completions by directory scan;
* the spool's *doorbell* -- a FIFO inside the spool directory that a
  worker writes one byte to after its rename
  (:func:`repro.scp.serialization.ring_doorbell`) and the owning
  transport sleeps on in ``poll`` -- is a hint, never the source of
  truth: a byte says "scan now" and nothing else, so a SIGKILLed writer
  can tear nothing and holds no lock, a lost, absent or surplus ring
  costs one safety-net timeout or one empty scan, and ``collect_spool``
  alone decides what was committed.  That is why a doorbell pipe is
  allowed where a result pipe is not;
* the only multiprocessing queue a worker touches is its slot's inbox,
  built by :mod:`repro.scp.pool`, written only by the parent that owns the
  worker and released with ``cancel_join_thread`` when the worker is
  condemned, so a feeder thread can never wedge shutdown.
"""

from __future__ import annotations

import collections
import itertools
import os
import pickle
import select
import shutil
import socket as socket_module
import struct
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from ..logging_utils import get_logger
from .errors import RuntimeStateError
from .pool import QUEUE_BROKEN_ERRORS, ProcessPool, default_start_method
from .registry import BackendSpec
from .serialization import (CommittedResult, _Doorbell, _join_fired,
                            collect_spool, discard_partials, spool_root)

_LOG = get_logger("scp.transport")

#: First element of a stage-task tuple deposited on a worker's inbox.
#: (Re-exported by :mod:`repro.scp.stages` for the child-side protocol.)
STAGE_ASSIGN = "__scp_stage_assign__"

#: Seconds the parent waits for a freshly launched node agent to call back.
_AGENT_CONNECT_TIMEOUT = 15.0

#: Stage tasks a worker holds at once: the one it runs and the next, already
#: waiting on its inbox.  The worker starts that one the moment it commits, so
#: the parent's refill round trip (doorbell, router scan, dispatch, inbox
#: feeder, unpickle -- about 1 ms, each hop a thread wake on the cores the
#: workers compute on) runs during compute instead of between tasks.  One
#: queued task hides that refill; a deeper queue hides nothing more and only
#: adds head-of-line blocking behind a long task.  A constant, not a knob.
TASKS_PER_WORKER = 2


@dataclass(frozen=True)
class TaskFrame:
    """One stage task as handed to a transport: id, attempt, payload."""

    task_id: int
    attempt: int
    stage: str
    fn: Callable
    args: Tuple
    kwargs: Dict


class _Pickled:
    """An inbox item pickled on the thread that sends it.

    ``multiprocessing.Queue`` pickles in its feeder thread, where a failure
    is only printed and the item dropped -- the task would never start.
    Pickled up front, an unpicklable task raises to its sender; the feeder
    then only copies the bytes, and the reader's unpickling returns the
    original item.
    """

    __slots__ = ("payload",)

    def __init__(self, item: Any) -> None:
        self.payload = pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL)

    def __reduce__(self):
        return pickle.loads, (self.payload,)


# ---------------------------------------------------------------------------
# The transport contract
# ---------------------------------------------------------------------------

class WorkerTransport:
    """Contract between a stage executor and its execution substrate.

    Implementations provide workers (threads, pool slots, node-agent
    processes), move task frames to them, and surface *committed*
    results back.  The executor owns the ready queue, retries, futures and
    kill accounting; the transport owns processes, sockets, spools and the
    places on its workers.
    """

    #: Short name of the transport kind (logs, benchmark labels).
    kind: str = "abstract"
    #: Whether :meth:`kill` can actually SIGKILL a worker (chaos hooks).
    supports_kill: bool = False
    #: Whether close() waits for in-flight tasks to finish and commit
    #: (host threads cannot be abandoned mid-task; processes can).
    drain_on_close: bool = False

    def start(self, workers: int) -> None:
        """Pre-provision ``workers`` execution vehicles (spawn/attach)."""
        raise NotImplementedError

    def acquire(self, *, spawn: bool = True):
        """Borrow a place on a worker, or ``None`` when every place is held.

        The transport alone bounds the tasks in flight: each worker runs
        one task and holds the next (:data:`TASKS_PER_WORKER` places, so the
        ref may name a worker already running one), and no more workers run
        than ``start`` was given.  An idle worker is handed out before a
        half-full one, and a worker sent a :meth:`kill` gets no further
        task.  ``spawn=False`` must never create a new OS process -- callers
        on router threads use it so forking cannot race other threads'
        queue feeders; ``spawn=True`` may replace a lost worker or restart
        the substrate.
        """
        raise NotImplementedError

    def send(self, ref, frame: TaskFrame) -> None:
        """Hand ``frame`` to the worker behind ``ref`` (fire and forget)."""
        raise NotImplementedError

    def probe(self, ref) -> bool:
        """Liveness: is the worker behind ``ref`` still able to commit?"""
        raise NotImplementedError

    def reaped(self, ref) -> bool:
        """Death certificate for a ``ref`` that probes dead: has its process
        been *reaped* (exit status collected)?  Such a worker can commit
        nothing more and whatever it renamed before dying is visible to the
        next scan, so the executor scans once more and retries at once.
        ``False`` means the transport cannot say (a lost node agent's
        orphaned workers may still be running) and sends the executor
        through its timed confirmation window instead."""
        raise NotImplementedError

    def kill(self, ref) -> None:
        """Hard-kill (SIGKILL) the worker behind ``ref`` (chaos hook)."""
        raise NotImplementedError

    def release(self, ref) -> None:
        """Free the place a committed task held on ``ref``'s worker."""
        raise NotImplementedError

    def discard(self, ref) -> None:
        """Condemn a worker that died or may still run an abandoned task."""
        raise NotImplementedError

    def poll_committed(self) -> List[CommittedResult]:
        """Collect results committed since the last poll (consuming)."""
        raise NotImplementedError

    def discard_partial(self, task_id: int, attempt: int) -> None:
        """Remove what the attempt's worker left mid-commit.  Called once
        :meth:`reaped` certified that worker dead: no writer is left."""
        raise NotImplementedError

    def wait(self, timeout: float) -> bool:
        """Park the router until something may have changed -- a commit, the
        death of a worker with a task in flight, a :meth:`wake` -- or
        ``timeout`` seconds pass.  Returns ``True`` when woken, ``False``
        when the clock ran out.  Level-triggered: an event that lands
        before the call makes it return at once."""
        raise NotImplementedError

    def wake(self) -> None:
        """End the current (or the next) :meth:`wait` early.  Thread-safe;
        the executor calls it after every dispatch and from ``close()``."""
        raise NotImplementedError

    def alive_workers(self) -> int:
        """Live workers, busy or idle (0 signals total substrate loss)."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear down workers and spools (idempotent)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# In-process transport (host threads)
# ---------------------------------------------------------------------------

#: The single opaque worker ref of the in-process transport: host threads
#: are interchangeable and cannot die under us, so one token serves all.
_THREAD_WORKER_REF = "__inprocess_worker__"


class InProcessTransport(WorkerTransport):
    """Stage tasks on host threads; results hand over in memory.

    Backs the ``local`` and ``sim`` backend specs.  There is no spool
    and no serialisation: a finished task appends its outcome to an
    in-memory queue and wakes the router, so ``payload_nbytes`` stays 0
    and the executor's payload accounting stays empty.
    """

    kind = "inprocess"
    supports_kill = False
    drain_on_close = True

    def __init__(self, *, workers: int = 4) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = workers
        self._executor = ThreadPoolExecutor(max_workers=workers,
                                            thread_name_prefix="stage")
        self._committed: Deque[CommittedResult] = collections.deque()
        self._wakeup = threading.Event()
        #: Places granted and not yet given back, running plus queued.
        self._held = 0
        self._held_lock = threading.Lock()
        self._closed = False

    def start(self, workers: int) -> None:
        pass  # the thread pool grows lazily up to max_workers

    def acquire(self, *, spawn: bool = True) -> Optional[str]:
        with self._held_lock:
            if self._held >= TASKS_PER_WORKER * self._workers:
                return None
            self._held += 1
        return _THREAD_WORKER_REF

    def send(self, ref, frame: TaskFrame) -> None:
        def run() -> None:
            try:
                value = frame.fn(*frame.args, **frame.kwargs)
            except Exception as err:  # noqa: BLE001 - task errors reported, not fatal
                self._commit(CommittedResult(frame.task_id, frame.attempt,
                                             value=err, error=True))
                return
            self._commit(CommittedResult(frame.task_id, frame.attempt,
                                         value=value))
        try:
            self._executor.submit(run)
        except RuntimeError as err:  # close() won the race to shutdown
            raise RuntimeStateError("in-process transport is closed") from err

    def _commit(self, result: CommittedResult) -> None:
        self._committed.append(result)
        self._wakeup.set()

    def probe(self, ref) -> bool:
        return True  # host threads cannot be SIGKILLed out from under us

    def reaped(self, ref) -> bool:
        return False

    def kill(self, ref) -> None:
        raise NotImplementedError(
            "thread-backed stage executors cannot lose a worker to SIGKILL; "
            "use a 'process' or 'socket' backend spec to exercise crash "
            "recovery")

    def release(self, ref) -> None:
        with self._held_lock:
            self._held -= 1

    def discard(self, ref) -> None:
        self.release(ref)  # a host thread is never lost: only its place

    def discard_partial(self, task_id: int, attempt: int) -> None:
        pass  # results hand over in memory: nothing is ever half-written

    def poll_committed(self) -> List[CommittedResult]:
        committed: List[CommittedResult] = []
        while True:
            try:
                committed.append(self._committed.popleft())
            except IndexError:
                return committed

    def wait(self, timeout: float) -> bool:
        woken = self._wakeup.wait(timeout)
        self._wakeup.clear()  # before the caller's scan: a later set() stays
        return woken

    def wake(self) -> None:
        self._wakeup.set()

    def alive_workers(self) -> int:
        return self._workers

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=True, cancel_futures=True)


# ---------------------------------------------------------------------------
# Forked-process transport (ProcessPool slots)
# ---------------------------------------------------------------------------

class ForkedProcessTransport(WorkerTransport):
    """Stage tasks on :class:`~repro.scp.pool.ProcessPool` slots.

    Backs the ``process:N`` backend spec.  Task frames travel over each
    slot's private inbox queue (written only by this parent, read only
    by that slot); results come back exclusively through the spool --
    a killable worker never writes to a queue (see the module
    docstring's invariants).
    """

    kind = "forked-process"
    supports_kill = True

    def __init__(self, pool: Optional[ProcessPool] = None, *,
                 start_method: Optional[str] = None) -> None:
        # A borrowed pool (a session's) outlives the transport; without one
        # the transport owns a private pool and closes it with itself.
        self._owns_pool = pool is None
        self._pool = (pool if pool is not None
                      else ProcessPool(start_method=start_method))
        self._spool = tempfile.mkdtemp(prefix="scp-stages-", dir=spool_root())
        self._doorbell = _Doorbell(self._spool)
        #: Tasks each borrowed slot holds, running plus queued.  A slot is
        #: borrowed from the pool while it holds any, and its process
        #: sentinel joins the doorbell in wait(), so a death mid-task is an
        #: event, not a poll.  A dead process's sentinel stays readable for
        #: ever; it leaves through discard(), which the executor calls the
        #: moment it sees the death.
        self._load: Dict[Any, int] = {}
        #: Borrowed slots sent a kill: they get no further task.
        self._killed: Set[Any] = set()
        self._load_lock = threading.Lock()
        self._workers = 1
        self._closed = False

    def start(self, workers: int) -> None:
        self._workers = workers
        if not self._pool.closed:
            self._pool.ensure(workers)

    def acquire(self, *, spawn: bool = True):
        with self._load_lock:
            slot = self._pool.acquire(allow_spawn=False)  # an idle worker first
            if slot is None:
                live = [held for held in self._load if held not in self._killed
                        and held.process.exitcode is None]
                # A lost worker is replaced (when spawning is allowed) before
                # a survivor is handed a second task; none is ever added.
                if spawn and len(live) < self._workers:
                    slot = self._pool.acquire()
                else:
                    slot = next((held for held in live
                                 if self._load[held] < TASKS_PER_WORKER), None)
            if slot is not None:
                self._load[slot] = self._load.get(slot, 0) + 1
            return slot

    def send(self, ref, frame: TaskFrame) -> None:
        item = _Pickled((STAGE_ASSIGN, frame.task_id, frame.attempt, self._spool,
                         frame.fn, frame.args, frame.kwargs))
        try:
            ref.inbox.put(item)
        except QUEUE_BROKEN_ERRORS:
            # The slot was discarded between acquire and send (its worker
            # died holding an earlier task): the sweep sees the ref dead and
            # retries this task too.
            pass

    def probe(self, ref) -> bool:
        return ref.process.exitcode is None

    def reaped(self, ref) -> bool:
        return ref.process.exitcode is not None  # reading it is the reaping

    def kill(self, ref) -> None:
        with self._load_lock:
            self._killed.add(ref)
        ref.process.kill()

    def release(self, ref) -> None:
        with self._load_lock:
            held = self._load.pop(ref, 0) - 1
            if held > 0:
                self._load[ref] = held
            else:  # under the lock, or acquire() sees a lost worker and forks
                self._pool.release(ref)

    def discard(self, ref) -> None:
        with self._load_lock:
            self._load.pop(ref, None)
            self._killed.discard(ref)
        self._pool.discard(ref)

    def poll_committed(self) -> List[CommittedResult]:
        return collect_spool(self._spool)

    def discard_partial(self, task_id: int, attempt: int) -> None:
        discard_partials(self._spool, f"{task_id}-{attempt}.")

    def wait(self, timeout: float) -> bool:
        with self._load_lock:
            watched = {ref.process.sentinel: ref.process for ref in self._load}
        fired = self._doorbell.wait(timeout, watched)
        _join_fired(watched, fired)
        return bool(fired)

    def wake(self) -> None:
        self._doorbell.ring()

    def alive_workers(self) -> int:
        return self._pool.size

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._owns_pool:
            self._pool.close()
        self._doorbell.close()
        shutil.rmtree(self._spool, ignore_errors=True)


# ---------------------------------------------------------------------------
# Socket transport (localhost node agent over TCP)
# ---------------------------------------------------------------------------

def _send_frame(conn: socket_module.socket, obj: Any,
                lock: threading.Lock) -> None:
    """Pickle ``obj`` and write it length-prefixed (may raise OSError)."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    header = struct.pack(">I", len(payload))
    with lock:
        conn.sendall(header + payload)


def _recv_exact(conn: socket_module.socket, count: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        try:
            chunk = conn.recv(min(remaining, 65536))
        except OSError:
            return None
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(conn: socket_module.socket) -> Optional[Any]:
    """Read one length-prefixed frame; ``None`` on EOF or a torn stream."""
    header = _recv_exact(conn, 4)
    if header is None:
        return None
    (length,) = struct.unpack(">I", header)
    payload = _recv_exact(conn, length)
    if payload is None:
        return None
    try:
        return pickle.loads(payload)
    except Exception:  # peer died mid-send: treat like EOF
        return None


class _SocketWorkerRef:
    """Parent-side handle to one agent worker slot at one incarnation."""

    __slots__ = ("index", "incarnation")

    def __init__(self, index: int, incarnation: int) -> None:
        self.index = index
        self.incarnation = incarnation


class _SocketSlot:
    """Parent-side state of one agent worker slot."""

    __slots__ = ("index", "incarnation", "alive", "tasks", "killed")

    def __init__(self, index: int, incarnation: int) -> None:
        self.index = index
        self.incarnation = incarnation
        self.alive = True
        #: Tasks the worker holds, running plus queued.
        self.tasks = 0
        #: Sent a kill: the worker gets no further task.
        self.killed = False


class SocketTransport(WorkerTransport):
    """Stage tasks on a node agent reached over a TCP frame stream.

    The parent launches a fresh interpreter running :func:`_agent_cli`
    (``python -c``, see :meth:`_spawn_agent`) as the *node agent*, which
    connects back, spawns ``workers`` worker processes,
    and relays task frames to their private inboxes.  Results bypass
    the socket entirely: workers commit to the parent's tmpfs spool
    with the shared atomic rename, so a SIGKILL anywhere -- one worker
    or the whole agent -- can never tear the result path.  Nor does a
    commit need a frame on the stream: workers ring the spool's doorbell
    by path, exactly as forked workers do.  Worker deaths are reported
    back as ``worker-dead`` frames the moment the agent reaps the worker
    (the reader thread rings the doorbell, and the frame is the ref's
    death certificate, see :meth:`reaped`); a dead agent is detected by
    connection EOF (plus process polling) and restarted on the next
    ``acquire(spawn=True)``, which is exactly the executor's total-loss
    retry path -- taken only after the timed confirmation window, because
    nothing reaped the agent's orphaned workers.

    Slot *incarnations* make refs ABA-safe: every reset/restart bumps
    the slot's incarnation, so a stale ref from before a respawn can
    never probe alive or release someone else's worker.
    """

    kind = "socket"
    supports_kill = True

    def __init__(self, *, workers: int = 4,
                 start_method: Optional[str] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self._workers = workers
        self._start_method = start_method or default_start_method()
        self._spool = tempfile.mkdtemp(prefix="scp-stages-", dir=spool_root())
        self._doorbell = _Doorbell(self._spool)
        self._lock = threading.Lock()          # slot/agent state
        self._send_lock = threading.Lock()     # frame-stream serialisation
        self._respawn_lock = threading.Lock()  # one restart at a time
        self._incs = itertools.count()
        self._closed = False
        self._agent: Optional[subprocess.Popen] = None
        self._conn: Optional[socket_module.socket] = None
        self._reader: Optional[threading.Thread] = None
        self._slots: List[_SocketSlot] = []
        self._agent_alive = False
        #: Agent restarts after total loss (observable recovery metric).
        self.agent_restarts = 0

    # ----------------------------------------------------------- agent state
    def _agent_ok_locked(self) -> bool:
        return (self._agent_alive and self._agent is not None
                and self._agent.poll() is None)

    @property
    def agent_pid(self) -> Optional[int]:
        """PID of the live node agent (chaos tests SIGKILL it directly)."""
        with self._lock:
            return self._agent.pid if self._agent_ok_locked() else None

    def _spawn_agent(self) -> None:
        """Launch a node agent and install its connection (no locks held)."""
        listener = socket_module.socket(socket_module.AF_INET,
                                        socket_module.SOCK_STREAM)
        try:
            listener.bind(("127.0.0.1", 0))
            listener.listen(1)
            port = listener.getsockname()[1]
            inc_base = next(self._incs)
            for _ in range(self._workers - 1):
                next(self._incs)  # reserve one incarnation per initial slot
            # The agent is a *fresh* interpreter: it must be able to import
            # whatever modules the parent's task functions live in (test
            # modules, scripts on an augmented path), so the parent's
            # sys.path travels along.  ``-c`` rather than ``-m`` keeps
            # runpy from re-executing the already-imported module.
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
            agent = subprocess.Popen(
                [sys.executable, "-c",
                 "import sys; from repro.scp.transport import _agent_cli; "
                 "sys.exit(_agent_cli(sys.argv[1:]))", str(port),
                 str(self._workers), str(inc_base), self._start_method],
                close_fds=True, env=env)
            listener.settimeout(_AGENT_CONNECT_TIMEOUT)
            try:
                conn, _ = listener.accept()
            except OSError as err:
                agent.kill()
                raise RuntimeStateError(
                    "socket transport: node agent did not connect back "
                    f"within {_AGENT_CONNECT_TIMEOUT:.0f}s") from err
        finally:
            listener.close()
        conn.setsockopt(socket_module.IPPROTO_TCP,
                        socket_module.TCP_NODELAY, 1)
        slots = [_SocketSlot(index, inc_base + index)
                 for index in range(self._workers)]
        reader = threading.Thread(target=self._reader_main, args=(conn,),
                                  name="socket-transport-reader", daemon=True)
        with self._lock:
            self._conn = conn
            self._agent = agent
            self._slots = slots
            self._agent_alive = True
        self._reader = reader
        reader.start()

    def _teardown_agent(self) -> None:
        """Drop the current agent/connection (no slot lock held)."""
        with self._lock:
            conn, agent, reader = self._conn, self._agent, self._reader
            self._conn = None
            self._agent_alive = False
        if conn is not None:
            try:
                conn.close()
            except OSError:  # pragma: no cover - already torn down
                pass
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=1.0)
        if agent is not None:
            if agent.poll() is None:
                agent.kill()
            try:
                agent.wait(timeout=2.0)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass

    def _respawn(self) -> None:
        with self._respawn_lock:
            with self._lock:
                if self._closed or self._agent_ok_locked():
                    return
            _LOG.warning("socket transport: node agent lost; restarting")
            self._teardown_agent()
            self._spawn_agent()
            self.agent_restarts += 1

    def _reader_main(self, conn: socket_module.socket) -> None:
        """Drain agent->parent frames (worker deaths); EOF marks agent dead.
        Either is an event the router must see now: ring the doorbell."""
        while True:
            frame = _recv_frame(conn)
            if frame is None:
                break
            if isinstance(frame, tuple) and frame and frame[0] == "worker-dead":
                _, index, incarnation = frame
                with self._lock:
                    if (conn is self._conn and 0 <= index < len(self._slots)):
                        slot = self._slots[index]
                        if slot.incarnation == incarnation:
                            slot.alive = False
                self._doorbell.ring()
        with self._lock:
            if conn is self._conn:
                self._agent_alive = False
        self._doorbell.ring()

    def _send(self, obj: Any) -> bool:
        """Best-effort frame send; a broken stream marks the agent dead."""
        conn = self._conn
        if conn is None:
            return False
        # Pickling errors (an unpicklable stage fn) must surface to the
        # caller; only the socket write is allowed to fail quietly.
        payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
        header = struct.pack(">I", len(payload))
        try:
            with self._send_lock:
                conn.sendall(header + payload)
        except OSError:
            with self._lock:
                if conn is self._conn:
                    self._agent_alive = False
            return False
        return True

    def _take_locked(self, limit: int) -> Optional[_SocketWorkerRef]:
        """A place on a live worker holding fewer than ``limit`` tasks."""
        for slot in self._slots:
            if slot.alive and not slot.killed and slot.tasks < limit:
                slot.tasks += 1
                return _SocketWorkerRef(slot.index, slot.incarnation)
        return None

    # ------------------------------------------------------------- contract
    def start(self, workers: int) -> None:
        with self._lock:
            if self._closed:
                raise RuntimeStateError("socket transport is closed")
            self._workers = max(self._workers, workers)
            agent_up = self._agent_ok_locked()
            first_spawn = self._agent is None
        if not agent_up:
            if first_spawn:
                self._spawn_agent()
            else:
                self._respawn()

    def acquire(self, *, spawn: bool = True) -> Optional[_SocketWorkerRef]:
        with self._lock:
            if self._closed:
                raise RuntimeStateError("socket transport is closed")
            agent_up = self._agent_ok_locked()
            ref: Optional[_SocketWorkerRef] = None
            reset_frame: Optional[Tuple] = None
            if agent_up:
                ref = self._take_locked(1)
                if ref is None:
                    # No live idle worker: recycle a dead idle slot in place
                    # (the agent swaps in a fresh worker before any later
                    # task frame reaches it -- the stream is ordered).
                    for slot in self._slots:
                        if not slot.alive and slot.tasks == 0:
                            incarnation = next(self._incs)
                            slot.incarnation = incarnation
                            slot.alive = True
                            slot.killed = False
                            slot.tasks = 1
                            ref = _SocketWorkerRef(slot.index, incarnation)
                            reset_frame = ("reset", slot.index, incarnation)
                            break
                if ref is None:
                    ref = self._take_locked(TASKS_PER_WORKER)
        if agent_up:
            if reset_frame is not None and not self._send(reset_frame):
                self.release(ref)
                return None  # agent died under us; total-loss path handles it
            return ref
        if not spawn:
            return None
        self._respawn()
        with self._lock:
            return self._take_locked(1)

    def send(self, ref: _SocketWorkerRef, frame: TaskFrame) -> None:
        # A failed send is not an error: the sweep will see the ref probe
        # dead and re-dispatch through the total-loss path, which is the
        # whole-agent crash recovery story.
        self._send(("task", ref.index, ref.incarnation, frame.task_id,
                    frame.attempt, self._spool, frame.fn, frame.args,
                    frame.kwargs))

    def probe(self, ref: _SocketWorkerRef) -> bool:
        with self._lock:
            if not self._agent_ok_locked():
                return False
            if not 0 <= ref.index < len(self._slots):
                return False
            slot = self._slots[ref.index]
            return slot.incarnation == ref.incarnation and slot.alive

    def reaped(self, ref: _SocketWorkerRef) -> bool:
        # Only a ``worker-dead`` frame for the ref's own incarnation is a
        # death certificate (the agent sends it after reaping the worker).
        # A lost agent proves nothing about its workers, and a restarted
        # one has new incarnations.
        with self._lock:
            if not 0 <= ref.index < len(self._slots):
                return False
            slot = self._slots[ref.index]
            return slot.incarnation == ref.incarnation and not slot.alive

    def kill(self, ref: _SocketWorkerRef) -> None:
        with self._lock:
            if (0 <= ref.index < len(self._slots)
                    and self._slots[ref.index].incarnation == ref.incarnation):
                self._slots[ref.index].killed = True
        self._send(("kill", ref.index, ref.incarnation))

    def release(self, ref: Optional[_SocketWorkerRef]) -> None:
        if ref is None:
            return
        with self._lock:
            if 0 <= ref.index < len(self._slots):
                slot = self._slots[ref.index]
                if slot.incarnation == ref.incarnation and slot.tasks > 0:
                    slot.tasks -= 1

    def discard(self, ref: _SocketWorkerRef) -> None:
        with self._lock:
            if self._closed or not self._agent_ok_locked():
                return  # a dead agent took the worker with it
            if not 0 <= ref.index < len(self._slots):
                return
            slot = self._slots[ref.index]
            if slot.incarnation != ref.incarnation:
                return  # already recycled under a newer incarnation
            incarnation = next(self._incs)
            slot.incarnation = incarnation
            slot.alive = True
            slot.killed = False
            # The slot stays full until its reset frame is on the stream: a
            # driver thread that acquired it in between could get its task
            # frame out first, and the agent drops a task whose incarnation
            # it has not been told about yet -- a task nobody would retry.
            slot.tasks = TASKS_PER_WORKER
        self._send(("reset", ref.index, incarnation))
        with self._lock:
            if slot.incarnation == incarnation:
                slot.tasks = 0

    def poll_committed(self) -> List[CommittedResult]:
        return collect_spool(self._spool)

    def discard_partial(self, task_id: int, attempt: int) -> None:
        discard_partials(self._spool, f"{task_id}-{attempt}.")

    def wait(self, timeout: float) -> bool:
        return bool(self._doorbell.wait(timeout))

    def wake(self) -> None:
        self._doorbell.ring()

    def alive_workers(self) -> int:
        with self._lock:
            if not self._agent_ok_locked():
                return 0
            return sum(1 for slot in self._slots if slot.alive)

    def close(self) -> None:
        if self._closed:
            return
        self._send(("shutdown",))
        self._closed = True
        self._teardown_agent()
        self._doorbell.close()
        shutil.rmtree(self._spool, ignore_errors=True)


# ---------------------------------------------------------------------------
# Backend spec -> transport
# ---------------------------------------------------------------------------

def transport_for_spec(spec: BackendSpec, *, workers: int,
                       pool: Optional[ProcessPool] = None,
                       start_method: Optional[str] = None) -> WorkerTransport:
    """Build the worker transport a parsed backend spec names.

    The one place a spec becomes a transport: a session's stage executor
    comes through here, one-shot runs included.  ``process`` specs run on
    :class:`~repro.scp.pool.ProcessPool` slots -- the caller's ``pool`` when
    it has one (a session's persistent pool, which outlives the transport),
    else a private pool the transport owns; ``socket`` specs launch a node
    agent; ``local`` and ``sim`` run on host threads -- the simulated
    backend has no meaningful virtual clock for a streaming dataflow, so it
    degrades to measured wall clock on threads, with identical output.
    ``start_method`` overrides the spec's variant and the platform default.
    """
    if spec.name == "process":
        return ForkedProcessTransport(pool,
                                      start_method=start_method or spec.variant)
    if spec.name == "socket":
        return SocketTransport(workers=workers, start_method=start_method)
    if spec.name in ("local", "sim"):
        return InProcessTransport(workers=workers)
    raise ValueError(
        f"backend {spec.name!r} provides no stage-task workers; the "
        f"streaming pipeline runs on: process, socket, local, sim")


# ---------------------------------------------------------------------------
# Node-agent side (the ``python -c`` interpreter ``_spawn_agent`` launches)
# ---------------------------------------------------------------------------

def _agent_handle(pool: ProcessPool, slots: List[Any], incarnations: List[int],
                  frame: Tuple) -> None:
    kind = frame[0]
    if kind == "task":
        _, index, incarnation, task_id, attempt, spool_dir, fn, args, kwargs = frame
        if incarnations[index] != incarnation:
            return  # task aimed at an incarnation a reset already replaced
        slots[index].inbox.put((STAGE_ASSIGN, task_id, attempt, spool_dir,
                                fn, args, kwargs))
    elif kind == "kill":
        _, index, incarnation = frame
        slot = slots[index]
        if incarnations[index] == incarnation and slot.process.exitcode is None:
            slot.process.kill()
    elif kind == "reset":
        _, index, incarnation = frame
        pool.discard(slots[index])
        slots[index] = pool.acquire()
        incarnations[index] = incarnation


def _node_agent_main(port: int, workers: int, inc_base: int,
                     start_method: str) -> None:
    """Control loop of the node agent.

    Single-threaded: connect back to the parent, spawn the worker
    processes, then sleep in one ``select`` on the connection and the
    workers' process sentinels, so a frame is handled and a death is
    reported the moment it happens (the timeout is only a backstop).  The
    workers are ordinary
    :class:`~repro.scp.pool.ProcessPool` slots, each held (busy) under one
    index of the agent's index -> incarnation table for its whole life; a
    ``reset`` frame discards the slot and acquires a fresh one.  Worker
    deaths are reported as ``worker-dead`` frames; parent death (connection
    EOF) tears the whole agent down, workers included -- and should the
    agent itself be SIGKILLed, the slots' own orphan check ends them.
    Results go straight to the parent-owned spool directory named in each
    task frame -- never back through an inbox or the socket.
    """
    conn = socket_module.create_connection(("127.0.0.1", port))
    conn.setsockopt(socket_module.IPPROTO_TCP, socket_module.TCP_NODELAY, 1)
    send_lock = threading.Lock()
    pool = ProcessPool(start_method=start_method)
    slots = [pool.acquire() for _ in range(workers)]
    incarnations = [inc_base + index for index in range(workers)]
    reported: set = set()
    try:
        while True:
            # A reported death leaves the set: its sentinel stays readable.
            watched = {slot.process.sentinel: slot.process
                       for index, slot in enumerate(slots)
                       if (index, incarnations[index]) not in reported}
            readable, _, _ = select.select([conn, *watched], [], [], 1.0)
            _join_fired(watched, readable)  # so the sweep below reports them
            if conn in readable:
                frame = _recv_frame(conn)
                if frame is None or frame[0] == "shutdown":
                    return
                _agent_handle(pool, slots, incarnations, frame)
            for index, slot in enumerate(slots):
                if (slot.process.exitcode is not None
                        and (index, incarnations[index]) not in reported):
                    reported.add((index, incarnations[index]))
                    _send_frame(conn, ("worker-dead", index, incarnations[index]),
                                send_lock)
    except OSError:
        return  # parent gone mid-frame; cleanup below still runs
    finally:
        for slot in slots:
            pool.discard(slot)  # mid-task or idle: kill, never wait
        pool.close()
        try:
            conn.close()
        except OSError:  # pragma: no cover
            pass


def _agent_cli(argv: List[str]) -> int:
    if len(argv) != 4:
        print('usage: python -c "import sys; from repro.scp.transport '
              'import _agent_cli; sys.exit(_agent_cli(sys.argv[1:]))" '
              "<port> <workers> <inc_base> <start_method>", file=sys.stderr)
        return 2
    _node_agent_main(int(argv[0]), int(argv[1]), int(argv[2]), argv[3])
    return 0


__all__ = [
    "CommittedResult",
    "ForkedProcessTransport",
    "InProcessTransport",
    "STAGE_ASSIGN",
    "SocketTransport",
    "TaskFrame",
    "WorkerTransport",
    "collect_spool",
    "transport_for_spec",
]

