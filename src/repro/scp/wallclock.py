"""Parent-side core shared by the two wall-clock backends.

:class:`~repro.scp.local_backend.LocalBackend` (host threads) and
:class:`~repro.scp.process_backend.ProcessBackend` (pool-slot processes)
run the same thread programs against the same bookkeeping: a
logical-to-physical :class:`~repro.scp.group.Router`, dead letters parked
for replicas that do not exist yet, checkpoints, death notifications for
the resiliency layer, the ``spawn_thread`` / ``kill_thread`` control
interface and the packaging of a :class:`~repro.scp.runtime.RunResult`.
:class:`WallClockBackend` holds that state and logic once.

A concrete backend supplies only what genuinely differs between threads and
processes -- the *execution vehicle*:

* :meth:`_make_task` -- build the replica's record and attach its vehicle,
* :meth:`_launch` -- set the vehicle running,
* :meth:`_deliver` -- hand one routed envelope to a replica,
* :meth:`_wait` -- block until the run is over,
* :meth:`_terminate` -- stop a replica's vehicle (cooperatively or by signal),

plus the optional :meth:`_prepare_run` / :meth:`_cleanup` brackets.  The
effect interpreters are deliberately *not* shared: threads are stopped
cooperatively and processes by signal, so a merged interpreter would branch
on its caller at every step.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from ..cluster.metrics import MetricsCollector
from ..logging_utils import get_logger
from .errors import RuntimeStateError, ThreadCrashedError
from .group import Router
from .runtime import Application, Backend, RunResult, ThreadOutcome
from .serialization import Envelope
from .thread import ThreadSpec, physical_name

_LOG = get_logger("scp.wallclock")


class ReplicaTask:
    """Parent-side record of one physical replica.

    Status moves ``ready`` -> ``running`` -> one of ``finished`` /
    ``crashed`` / ``killed``; a replica killed while still ``ready`` goes
    straight to ``killed`` and is never started.
    """

    def __init__(self, spec: ThreadSpec, replica: int, physical_id: str,
                 incarnation: int) -> None:
        self.spec = spec
        self.logical = spec.name
        self.replica = replica
        self.physical_id = physical_id
        self.incarnation = incarnation
        self.daemon = spec.daemon
        self.status = "ready"
        self.result: Any = None
        self.error: Optional[str] = None

    @property
    def alive(self) -> bool:
        return self.status in ("ready", "running")


class WallClockBackend(Backend):
    """Routing, resiliency controls and result packaging on the wall clock."""

    def __init__(self, *, crash_policy: str, default_timeout: Optional[float]) -> None:
        if crash_policy not in ("raise", "record"):
            raise ValueError("crash_policy must be 'raise' or 'record'")
        self.crash_policy = crash_policy
        self.default_timeout = default_timeout
        self.router = Router()
        self.collector = MetricsCollector()
        self._tasks: Dict[str, ReplicaTask] = {}
        self._lock = threading.RLock()
        self._dead_letters: Dict[str, List[Envelope]] = {}
        self._death_callbacks: List[Callable[[str, str, str], None]] = []
        self._checkpoints: Dict[str, Any] = {}
        self._messages = 0
        self._bytes = 0
        self._start_time = 0.0
        self._app: Optional[Application] = None
        self._ran = False

    # ------------------------------------------------------- vehicle interface
    def _make_task(self, spec: ThreadSpec, replica: int, physical_id: str, *,
                   restored: Any, incarnation: int) -> ReplicaTask:
        """Build the replica's record and attach its execution vehicle
        (called with the backend lock held)."""
        raise NotImplementedError

    def _launch(self, task: ReplicaTask) -> None:
        """Set the task's vehicle running (called with the lock held)."""
        raise NotImplementedError

    def _deliver(self, task: ReplicaTask, envelope: Envelope) -> bool:
        """Hand ``envelope`` to the replica; False when it was suppressed."""
        raise NotImplementedError

    def _wait(self, until_thread: Optional[str], deadline: Optional[float]) -> None:
        """Block until the run is over, shutting down stragglers."""
        raise NotImplementedError

    def _terminate(self, task: ReplicaTask, reason: str) -> None:
        """Stop the vehicle of a task already marked ``killed``."""
        raise NotImplementedError

    def _prepare_run(self) -> None:
        """Acquire per-run resources before the first task is created."""

    def _cleanup(self) -> None:
        """Release per-run resources; runs whether or not the run raised."""

    # --------------------------------------------------------------- queries
    @property
    def now(self) -> float:
        """Seconds since the run started (wall clock)."""
        return time.perf_counter() - self._start_time if self._start_time else 0.0

    def live_replicas(self, logical: str) -> List[str]:
        with self._lock:
            return [task.physical_id for task in self._live_tasks(logical)]

    def checkpoint_of(self, logical: str) -> Any:
        with self._lock:
            return self._checkpoints.get(logical)

    def subscribe_thread_death(self, callback: Callable[[str, str, str], None]) -> None:
        self._death_callbacks.append(callback)

    def _live_tasks(self, logical: str) -> List[ReplicaTask]:
        """Live replicas of ``logical`` in routing order (lock held)."""
        return [self._tasks[pid] for pid in self.router.physical_targets(logical)
                if pid in self._tasks and self._tasks[pid].alive]

    # ------------------------------------------------------------------- run
    def run(self, app: Application, *, timeout: Optional[float] = None,
            until_thread: Optional[str] = None) -> RunResult:
        """Run ``app`` to completion on the wall clock.

        ``until_thread`` names a logical thread whose completion ends the
        run (the remaining replicas are shut down), which is how the fusion
        application terminates its workers deterministically even when a
        fault-injection campaign interfered with the stop messages.  Once it
        has finished, a replica crash along the way was *survived* -- the
        group carried on, or the resiliency layer regenerated the replica --
        and is recorded in the outcomes rather than raised, whatever the
        crash policy.
        """
        if self._ran:
            raise RuntimeStateError(
                f"{type(self).__name__} instances are single use; create a new one")
        self._ran = True
        app.validate()
        self._app = app
        timeout = timeout if timeout is not None else self.default_timeout
        try:
            self._prepare_run()
            self._start_time = time.perf_counter()
            with self._lock:
                tasks = [self._create_task(spec, replica, restored=None, incarnation=0)
                         for spec in app.specs
                         for replica in range(spec.replicas)]
            for task in tasks:
                self._start_task(task)
            deadline = (time.perf_counter() + timeout) if timeout is not None else None
            self._wait(until_thread, deadline)
            return self._build_result(time.perf_counter() - self._start_time,
                                      until_thread)
        finally:
            self._cleanup()

    # --------------------------------------------------------- task plumbing
    def _create_task(self, spec: ThreadSpec, replica: int, *, restored: Any,
                     incarnation: int) -> ReplicaTask:
        pid = physical_name(spec.name, replica)
        if pid in self._tasks and self._tasks[pid].alive:
            raise RuntimeStateError(f"physical thread {pid!r} already exists and is alive")
        task = self._make_task(spec, replica, pid, restored=restored,
                               incarnation=incarnation)
        self._tasks[pid] = task
        self.router.register(spec.name, pid)
        return task

    def _start_task(self, task: ReplicaTask) -> None:
        # Tasks are created under the lock and started outside it, so a
        # kill_thread (an attack or camouflage thread racing spawn_thread)
        # can land in between; starting the replica anyway would resurrect
        # it after its death was already announced.
        with self._lock:
            if task.status != "ready":
                return
            task.status = "running"
            self._launch(task)

    def _replay_dead_letters(self, task: ReplicaTask) -> None:
        """Deliver envelopes parked while ``task``'s logical thread had no
        live replica."""
        for envelope in self._dead_letters.pop(task.logical, []):
            self._deliver(task, envelope)

    def _route(self, envelope: Envelope) -> None:
        """Expand the logical destination to its live replicas, or park the
        envelope as a dead letter for a replica spawned later."""
        with self._lock:
            targets = self._live_tasks(envelope.dst)
            if not targets:
                self._dead_letters.setdefault(envelope.dst, []).append(envelope)
                self.collector.increment("dead_lettered")
                return
            self._messages += len(targets)
            self._bytes += envelope.nbytes * len(targets)
        for task in targets:
            if not self._deliver(task, envelope):
                with self._lock:
                    self.collector.increment("duplicates_suppressed")

    def _record_phase(self, phase: str, node: str, seconds: float) -> None:
        with self._lock:
            self.collector.add_phase(phase, seconds)
            self.collector.add_node_busy(node, seconds)

    def _record_checkpoint(self, logical: str, state: Any) -> None:
        with self._lock:
            self._checkpoints[logical] = state

    # ----------------------------------------------------------- termination
    def _finish(self, physical_id: str, result: Any) -> bool:
        """Record a program's return value; False when the replica was
        already declared dead (its late result must not count)."""
        with self._lock:
            task = self._tasks.get(physical_id)
            if task is None or not task.alive:
                return False
            task.status = "finished"
            task.result = result
            self.router.unregister(physical_id)
            return True

    def _crash(self, physical_id: str, message: str) -> None:
        with self._lock:
            task = self._tasks.get(physical_id)
            if task is None or not task.alive:
                return
            task.status = "crashed"
            task.error = message
            self.router.unregister(physical_id)
            self.collector.increment("crashes")
        _LOG.warning("%s replica %s crashed: %s", self.kind, physical_id, message)
        self._notify_death(physical_id, task.logical, "crashed")

    def _notify_death(self, physical_id: str, logical: str, reason: str) -> None:
        for callback in self._death_callbacks:
            callback(physical_id, logical, reason)

    # --------------------------------------------------- resiliency controls
    def kill_thread(self, physical_id: str, reason: str = "killed") -> bool:
        """Forcefully terminate a replica.

        ``reason="killed"`` is fault injection: it is counted, the vehicle
        is stopped the hard way and death subscribers are notified.  The
        backends' own ``"shutdown"`` / ``"timeout"`` kills are silent.
        """
        with self._lock:
            task = self._tasks.get(physical_id)
            if task is None or not task.alive:
                return False
            task.status = "killed"
            self.router.unregister(physical_id)
            if reason == "killed":
                self.collector.increment("failures_injected")
        self._terminate(task, reason)
        if reason == "killed":
            self._notify_death(physical_id, task.logical, reason)
        return True

    def spawn_thread(self, spec: ThreadSpec, *, replica: int, node: Optional[str] = None,
                     restored: Any = None, incarnation: int = 1) -> str:
        """Regenerate a replica on a fresh vehicle while the run goes on."""
        with self._lock:
            task = self._create_task(spec, replica, restored=restored,
                                     incarnation=incarnation)
            self.collector.increment("replicas_regenerated")
        self._start_task(task)
        return task.physical_id

    # ---------------------------------------------------------------- result
    def _build_result(self, elapsed: float,
                      until_thread: Optional[str]) -> RunResult:
        returns: Dict[str, Any] = {}
        outcomes: Dict[str, ThreadOutcome] = {}
        first_crash: Optional[tuple] = None
        specs = self._app.specs if self._app else []
        with self._lock:
            for pid, task in self._tasks.items():
                outcomes[pid] = ThreadOutcome(physical_id=pid, logical=task.logical,
                                              replica=task.replica, status=task.status,
                                              result=task.result, error=task.error)
                if task.status == "finished" and task.logical not in returns:
                    returns[task.logical] = task.result
                if task.status == "crashed" and first_crash is None:
                    first_crash = (pid, task.error)
            workers = sum(1 for s in specs if s.name.startswith("worker"))
            replication = max((s.replicas for s in specs), default=1)
            metrics = self.collector.finalise(
                elapsed_seconds=elapsed, backend=self.kind,
                workers=max(workers, 1), subcubes=0, replication_level=replication,
                messages=self._messages, bytes_sent=self._bytes)
        if (first_crash is not None and self.crash_policy == "raise"
                and until_thread not in returns):
            raise ThreadCrashedError(first_crash[0], f"{first_crash[0]}: {first_crash[1]}")
        return RunResult(returns=returns, outcomes=outcomes, metrics=metrics,
                         elapsed_seconds=elapsed)


__all__ = ["ReplicaTask", "WallClockBackend"]
