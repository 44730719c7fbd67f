"""Discrete-event (simulated) execution backend.

This backend interprets thread programs on a virtual cluster
(:class:`repro.cluster.Cluster`).  Computation is executed for real -- the
fused image produced in simulation is bit-identical to the sequential
reference -- but *time* is virtual: compute effects advance the clock by
``flops / node rate`` (with processor sharing between co-located replicas)
and messages advance it according to the interconnect model (latency,
bandwidth, shared-medium contention).  This is what allows a laptop to
regenerate the shape of the paper's 16-workstation measurements.

The backend also exposes the control surface used by the resiliency layer:
dynamic spawning of replicas, forced kills, node failures, heartbeat
generation, dead-letter retention and scheduling of arbitrary callbacks in
virtual time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..cluster.event import EventEngine
from ..cluster.machine import Cluster
from ..cluster.metrics import MetricsCollector
from ..logging_utils import get_logger
from .channel import Mailbox
from .effects import (Checkpoint, Compute, Effect, GetTime, Probe, Recv, Send,
                      Sleep)
from .errors import (DeadlockError, ReceiveTimeout, RuntimeStateError,
                     SCPError, ThreadCrashedError)
from .group import Router
from .runtime import (Application, Backend, Context, RunResult, ThreadOutcome,
                      plan_placement)
from .serialization import Envelope
from .thread import ThreadSpec, physical_name

_LOG = get_logger("scp.sim")

#: Wire size of a heartbeat or acknowledgement control message.
CONTROL_MESSAGE_BYTES = 64


@dataclass(frozen=True)
class ProtocolConfig:
    """Cost model of the resiliency communication protocols.

    The paper attributes roughly 10% of run time (beyond the cost of
    replication itself) to "the more complex communication protocols required
    to achieve redundancy".  These parameters model that overhead explicitly:

    * every application message costs additional CPU on the sender for
      sequence numbering / group bookkeeping (``per_message_cpu_s``),
    * every delivery triggers a small acknowledgement frame on the network
      (``ack_enabled``), and
    * heartbeat traffic is generated by :meth:`SimBackend.enable_heartbeats`.
    """

    per_message_cpu_s: float = 0.0
    ack_enabled: bool = False
    ack_nbytes: int = CONTROL_MESSAGE_BYTES


class TaskStatus(enum.Enum):
    READY = "ready"
    BLOCKED = "blocked"
    FINISHED = "finished"
    CRASHED = "crashed"
    KILLED = "killed"
    ABANDONED = "abandoned"


@dataclass
class _SimTask:
    spec: ThreadSpec
    logical: str
    replica: int
    physical_id: str
    node: str
    ctx: Context
    gen: Any = None
    mailbox: Mailbox = None  # type: ignore[assignment]
    status: TaskStatus = TaskStatus.READY
    blocked_port: Optional[str] = None
    timeout_event: Any = None
    pending_event: Any = None
    send_seq: int = 0
    compute_index: int = 0
    result: Any = None
    error: Optional[str] = None
    daemon: bool = False
    incarnation: int = 0

    @property
    def terminal(self) -> bool:
        return self.status in (TaskStatus.FINISHED, TaskStatus.CRASHED,
                               TaskStatus.KILLED, TaskStatus.ABANDONED)

    @property
    def alive(self) -> bool:
        return not self.terminal


class SimBackend(Backend):
    """Deterministic discrete-event backend on a simulated cluster."""

    kind = "sim"

    def __init__(self, cluster: Cluster, *,
                 worker_nodes: Optional[Sequence[str]] = None,
                 pinned: Optional[Dict[str, str]] = None,
                 protocol: Optional[ProtocolConfig] = None,
                 crash_policy: str = "raise",
                 share_replica_results: bool = True,
                 spawn_cost_s: float = 0.050) -> None:
        """Create a backend bound to ``cluster``.

        Parameters
        ----------
        cluster:
            Hardware model on which threads are placed and charged.
        worker_nodes:
            Nodes eligible for default round-robin placement.  Defaults to
            every node except one literally named ``"manager"``.
        pinned:
            Logical thread name -> node name explicit placements.
        protocol:
            Resiliency protocol cost model; default has zero extra cost.
        crash_policy:
            ``"raise"`` re-raises program exceptions at the end of the run
            (good for tests); ``"record"`` only records them in the outcomes.
        share_replica_results:
            When True, identical :class:`Compute` effects issued by replicas
            of the same logical thread reuse the first replica's result while
            still being charged full virtual time.  Purely an optimisation of
            host wall-clock time; virtual timing and outputs are unchanged.
        spawn_cost_s:
            Virtual seconds needed to create a thread dynamically (process
            startup on a 1999 workstation).
        """
        if crash_policy not in ("raise", "record"):
            raise ValueError("crash_policy must be 'raise' or 'record'")
        self.cluster = cluster
        self.engine = EventEngine()
        self.router = Router()
        self.collector = MetricsCollector()
        self.protocol = protocol or ProtocolConfig()
        self.crash_policy = crash_policy
        self.share_replica_results = share_replica_results
        self.spawn_cost_s = spawn_cost_s
        self._pinned = dict(pinned or {})
        if worker_nodes is None:
            worker_nodes = [n for n in cluster.node_names if n != "manager"]
            if not worker_nodes:
                worker_nodes = list(cluster.node_names)
        self._worker_nodes = list(worker_nodes)
        self._tasks: Dict[str, _SimTask] = {}
        self._app: Optional[Application] = None
        self._dead_letters: Dict[str, List[Envelope]] = {}
        self._death_callbacks: List[Callable[[str, str, str], None]] = []
        self._checkpoints: Dict[str, Any] = {}
        self._replica_result_cache: Dict[Tuple[str, int], Any] = {}
        self._heartbeat: Optional[Tuple[float, Any, str]] = None
        self._ran = False
        self._until_thread: Optional[str] = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self.engine.now

    def schedule(self, delay: float, callback: Callable[[], None], label: str = "") -> Any:
        """Schedule an arbitrary callback in virtual time (resilience hooks)."""
        return self.engine.schedule(delay, callback, label)

    # --------------------------------------------------------------- queries
    def live_replicas(self, logical: str) -> List[str]:
        return [pid for pid in self.router.physical_targets(logical)
                if pid in self._tasks and self._tasks[pid].alive]

    def checkpoint_of(self, logical: str) -> Any:
        """Most recent checkpointed state of a logical thread (or None)."""
        return self._checkpoints.get(logical)

    def subscribe_thread_death(self, callback: Callable[[str, str, str], None]) -> None:
        """Register ``callback(physical_id, logical, reason)`` on abnormal death."""
        self._death_callbacks.append(callback)

    # ------------------------------------------------------------------- run
    def run(self, app: Application, *, placement: Optional[Dict[str, str]] = None,
            until_thread: Optional[str] = None, max_events: Optional[int] = None,
            time_limit: Optional[float] = None) -> RunResult:
        """Execute ``app`` to completion in virtual time.

        Parameters
        ----------
        placement:
            Optional explicit ``physical_id -> node`` map; defaults to
            :func:`~repro.scp.runtime.plan_placement` over the worker nodes.
        until_thread:
            Logical thread whose completion ends the run (remaining threads
            are marked ``abandoned``).  Defaults to "all non-daemon threads".
        max_events:
            Safety valve against protocol livelocks.
        time_limit:
            Abort (with :class:`~repro.scp.errors.SCPError`) if virtual time
            exceeds this limit.
        """
        if self._ran:
            raise RuntimeStateError("SimBackend instances are single use; create a new one")
        self._ran = True
        app.validate()
        self._app = app
        self._until_thread = until_thread

        if placement is None:
            placement = plan_placement(app.specs, self._worker_nodes, pinned=self._pinned)

        for spec in app.specs:
            for replica in range(spec.replicas):
                pid = physical_name(spec.name, replica)
                node = placement.get(pid)
                if node is None:
                    raise RuntimeStateError(f"no placement for physical thread {pid!r}")
                self._create_task(spec, replica, node, restored=None, incarnation=0)

        for task in list(self._tasks.values()):
            self._schedule_start(task, delay=0.0)

        self._drive(max_events=max_events, time_limit=time_limit)
        return self._build_result()

    def _drive(self, *, max_events: Optional[int], time_limit: Optional[float]) -> None:
        processed = 0
        while not self._completed():
            advanced = self.engine.step()
            processed += 1
            if max_events is not None and processed > max_events:
                raise SCPError(f"exceeded event budget of {max_events}; possible livelock")
            if time_limit is not None and self.engine.now > time_limit:
                raise SCPError(f"virtual time limit of {time_limit}s exceeded "
                               f"(t={self.engine.now:.3f}s)")
            if not advanced:
                if self._completed():
                    break
                blocked = sorted(t.physical_id for t in self._tasks.values()
                                 if t.alive and t.status == TaskStatus.BLOCKED)
                raise DeadlockError(
                    f"no pending events but threads are still blocked: {blocked}")
        if self._until_thread is not None:
            for task in self._tasks.values():
                if task.alive:
                    task.status = TaskStatus.ABANDONED

    def _completed(self) -> bool:
        if self._until_thread is not None:
            return any(t.status == TaskStatus.FINISHED
                       for t in self._tasks.values() if t.logical == self._until_thread)
        return all(t.terminal for t in self._tasks.values() if not t.daemon)

    # --------------------------------------------------------- task plumbing
    def _create_task(self, spec: ThreadSpec, replica: int, node: str, *,
                     restored: Any, incarnation: int,
                     physical_id: Optional[str] = None) -> _SimTask:
        pid = physical_id or physical_name(spec.name, replica)
        if pid in self._tasks and self._tasks[pid].alive:
            raise RuntimeStateError(f"physical thread {pid!r} already exists and is alive")
        self.cluster.place(pid, node, spec.memory_bytes)
        ctx = Context(name=spec.name, replica=replica, physical_id=pid, node=node,
                      params=dict(spec.params), restored=restored, incarnation=incarnation)
        task = _SimTask(spec=spec, logical=spec.name, replica=replica, physical_id=pid,
                        node=node, ctx=ctx, daemon=spec.daemon, incarnation=incarnation)
        task.mailbox = Mailbox(pid, dedup=True, thread_safe=False)
        task.gen = spec.program(ctx, **spec.params)
        self._tasks[pid] = task
        self.router.register(spec.name, pid)
        if self._heartbeat is not None and not task.daemon:
            self._schedule_heartbeat(task)
        return task

    def _schedule_start(self, task: _SimTask, delay: float) -> None:
        task.pending_event = self.engine.schedule(
            delay, lambda t=task: self._resume(t, None), label=f"start:{task.physical_id}")

    # -------------------------------------------------------------- dispatch
    def _resume(self, task: _SimTask, value: Any = None,
                exc: Optional[BaseException] = None) -> None:
        if task.terminal:
            return
        task.pending_event = None
        task.status = TaskStatus.READY
        try:
            if exc is not None:
                effect = task.gen.throw(exc)
            else:
                effect = task.gen.send(value)
        except StopIteration as stop:
            self._finish(task, stop.value)
            return
        except ReceiveTimeout:
            # A timeout the program chose not to catch terminates the thread
            # abnormally; the resiliency layer treats it like a crash.
            self._crash(task, "uncaught ReceiveTimeout")
            return
        except Exception as err:  # noqa: BLE001 - program errors are reported
            self._crash(task, repr(err), err)
            return
        self._handle_effect(task, effect)

    def _handle_effect(self, task: _SimTask, effect: Effect) -> None:
        if isinstance(effect, Compute):
            self._handle_compute(task, effect)
        elif isinstance(effect, Send):
            self._handle_send(task, effect)
        elif isinstance(effect, Recv):
            self._handle_recv(task, effect)
        elif isinstance(effect, Probe):
            has = task.mailbox.has_matching(effect.port)
            self._schedule_resume(task, has, delay=0.0)
        elif isinstance(effect, Sleep):
            self._schedule_resume(task, None, delay=max(0.0, effect.seconds))
        elif isinstance(effect, Checkpoint):
            self._checkpoints[task.logical] = effect.state
            self._schedule_resume(task, None, delay=0.0)
        elif isinstance(effect, GetTime):
            self._schedule_resume(task, self.engine.now, delay=0.0)
        else:
            self._crash(task, f"program yielded a non-effect object: {effect!r}")

    def _schedule_resume(self, task: _SimTask, value: Any, delay: float) -> None:
        task.pending_event = self.engine.schedule(
            delay, lambda t=task, v=value: self._resume(t, v),
            label=f"resume:{task.physical_id}")

    # --------------------------------------------------------------- compute
    def _handle_compute(self, task: _SimTask, effect: Compute) -> None:
        # Replicas of the same incarnation execute identical compute sequences,
        # so their results can be shared; regenerated replicas (incarnation>0)
        # start a fresh sequence and always execute for real.
        cache_key = (task.logical, task.incarnation, task.compute_index)
        task.compute_index += 1
        if self.share_replica_results and cache_key in self._replica_result_cache:
            result = self._replica_result_cache[cache_key]
        else:
            result = effect.fn(*effect.args, **effect.kwargs)
            if self.share_replica_results:
                self._replica_result_cache[cache_key] = result
        # ``flops`` may be a callable taking the result, for computations whose
        # cost is only known after the fact (e.g. screening, whose cost depends
        # on the size of the unique set it discovers).
        flops = effect.flops(result) if callable(effect.flops) else effect.flops
        seconds = self.cluster.compute_seconds(task.physical_id, flops)
        self.collector.add_phase(effect.phase, seconds)
        self.collector.add_node_busy(task.node, seconds)
        self._schedule_resume(task, result, delay=seconds)

    # ------------------------------------------------------------------ send
    def _handle_send(self, task: _SimTask, effect: Send) -> None:
        task.send_seq += 1
        envelope = Envelope(src=task.logical, dst=effect.dst, port=effect.port,
                            payload=effect.payload, seq=task.send_seq, key=effect.key,
                            src_physical=task.physical_id, urgent=effect.urgent,
                            send_time=self.engine.now)
        targets = self.router.physical_targets(effect.dst)
        live_targets = [pid for pid in targets
                        if pid in self._tasks and self._tasks[pid].alive]
        if not live_targets:
            # Keep the message so a regenerated replica can still receive it.
            self._dead_letters.setdefault(effect.dst, []).append(envelope)
            self.collector.increment("dead_lettered")
        else:
            for pid in live_targets:
                self._route_to_physical(task, envelope, pid)
        # Sender-side protocol CPU cost (sequence numbering, group bookkeeping).
        overhead = self.protocol.per_message_cpu_s
        if overhead > 0:
            self.collector.add_phase("protocol", overhead)
            self.collector.add_node_busy(task.node, overhead)
        self._schedule_resume(task, None,
                              delay=self.cluster.interconnect.link.per_message_overhead_s
                              + overhead)

    def _route_to_physical(self, sender: Optional[_SimTask], envelope: Envelope,
                           dst_physical: str) -> None:
        dst_task = self._tasks.get(dst_physical)
        if dst_task is None or not dst_task.alive:
            self._dead_letters.setdefault(envelope.dst, []).append(envelope)
            self.collector.increment("dead_lettered")
            return
        if sender is not None:
            start, finish = self.cluster.transfer_window(
                sender.physical_id, dst_physical, envelope.nbytes, self.engine.now)
        else:
            # Control-plane injection (dead-letter replay, external messages).
            finish = self.engine.now + self.cluster.interconnect.local_delivery_time()
        delay = max(0.0, finish - self.engine.now)
        self.engine.schedule(delay,
                             lambda env=envelope, pid=dst_physical: self._deliver(pid, env),
                             label=f"deliver:{envelope.dst}:{envelope.port}")

    def _deliver(self, dst_physical: str, envelope: Envelope) -> None:
        dst_task = self._tasks.get(dst_physical)
        if dst_task is None or not dst_task.alive:
            # The target died while the message was in flight; retarget to a
            # live replica of the same logical thread, or park it.
            alternatives = self.live_replicas(envelope.dst)
            if alternatives:
                self._route_to_physical(None, envelope, alternatives[0])
            else:
                self._dead_letters.setdefault(envelope.dst, []).append(envelope)
                self.collector.increment("dead_lettered")
            return
        envelope.deliver_time = self.engine.now
        accepted = dst_task.mailbox.deposit(envelope)
        if not accepted:
            self.collector.increment("duplicates_suppressed")
            return
        if self.protocol.ack_enabled and not envelope.urgent and envelope.src_physical:
            src_node = self.cluster.location_of(envelope.src_physical)
            if src_node is not None:
                self.cluster.interconnect.transfer_window(
                    dst_task.node, src_node, self.protocol.ack_nbytes, self.engine.now)
        if dst_task.status == TaskStatus.BLOCKED and (
                dst_task.blocked_port is None or dst_task.blocked_port == envelope.port):
            consumed = dst_task.mailbox.try_consume(dst_task.blocked_port)
            if consumed is not None:
                if dst_task.timeout_event is not None:
                    dst_task.timeout_event.cancel()
                    dst_task.timeout_event = None
                dst_task.blocked_port = None
                # Mark the task runnable immediately: a second delivery at the
                # same virtual instant must not schedule a duplicate resume.
                dst_task.status = TaskStatus.READY
                self._schedule_resume(dst_task, consumed, delay=0.0)

    # ------------------------------------------------------------------ recv
    def _handle_recv(self, task: _SimTask, effect: Recv) -> None:
        envelope = task.mailbox.try_consume(effect.port)
        if envelope is not None:
            self._schedule_resume(task, envelope, delay=0.0)
            return
        task.status = TaskStatus.BLOCKED
        task.blocked_port = effect.port
        if effect.timeout is not None:
            task.timeout_event = self.engine.schedule(
                effect.timeout,
                lambda t=task, e=effect: self._timeout(t, e),
                label=f"timeout:{task.physical_id}")

    def _timeout(self, task: _SimTask, effect: Recv) -> None:
        if task.terminal or task.status != TaskStatus.BLOCKED:
            return
        task.timeout_event = None
        task.blocked_port = None
        self._resume(task, exc=ReceiveTimeout(task.physical_id, effect.port, effect.timeout or 0.0))

    # ----------------------------------------------------------- termination
    def _finish(self, task: _SimTask, result: Any) -> None:
        task.status = TaskStatus.FINISHED
        task.result = result
        self.router.unregister(task.physical_id)
        self.cluster.unplace(task.physical_id)

    def _crash(self, task: _SimTask, message: str, error: Optional[BaseException] = None) -> None:
        task.status = TaskStatus.CRASHED
        task.error = message
        task.mailbox.close()
        self.router.unregister(task.physical_id)
        self.cluster.unplace(task.physical_id)
        _LOG.warning("thread %s crashed: %s", task.physical_id, message)
        self.collector.increment("crashes")
        for callback in self._death_callbacks:
            callback(task.physical_id, task.logical, "crashed")
        if self.crash_policy == "raise":
            raise ThreadCrashedError(task.physical_id, message) from error

    # --------------------------------------------------- resiliency controls
    def kill_thread(self, physical_id: str) -> bool:
        """Forcefully terminate a replica (process-level fault injection)."""
        task = self._tasks.get(physical_id)
        if task is None or task.terminal:
            return False
        task.status = TaskStatus.KILLED
        if task.pending_event is not None:
            task.pending_event.cancel()
            task.pending_event = None
        if task.timeout_event is not None:
            task.timeout_event.cancel()
            task.timeout_event = None
        task.mailbox.close()
        self.router.unregister(physical_id)
        self.cluster.unplace(physical_id)
        self.collector.increment("failures_injected")
        for callback in self._death_callbacks:
            callback(physical_id, task.logical, "killed")
        return True

    def fail_node(self, node_name: str) -> List[str]:
        """Fail a whole node; every replica it hosted is killed."""
        victims = sorted(self.cluster.fail_node(node_name))
        killed: List[str] = []
        for pid in victims:
            task = self._tasks.get(pid)
            if task is None or task.terminal:
                continue
            task.status = TaskStatus.KILLED
            if task.pending_event is not None:
                task.pending_event.cancel()
            if task.timeout_event is not None:
                task.timeout_event.cancel()
            task.mailbox.close()
            self.router.unregister(pid)
            self.collector.increment("failures_injected")
            for callback in self._death_callbacks:
                callback(pid, task.logical, "node_failure")
            killed.append(pid)
        return killed

    def spawn_thread(self, spec: ThreadSpec, *, replica: int, node: Optional[str] = None,
                     restored: Any = None, incarnation: int = 1,
                     extra_delay: float = 0.0) -> str:
        """Dynamically create a new replica (regeneration / migration).

        The new replica starts after ``spawn_cost_s + extra_delay`` virtual
        seconds (``extra_delay`` models state transfer).  Any dead-lettered
        messages addressed to its logical thread are replayed to it so that no
        communication is lost across the failure, as the paper's protocols
        guarantee.
        """
        if node is None:
            candidates = self.cluster.least_loaded_nodes()
            if not candidates:
                raise RuntimeStateError("no live node available for regeneration")
            node = candidates[0]
        task = self._create_task(spec, replica, node, restored=restored,
                                 incarnation=incarnation)
        delay = self.spawn_cost_s + max(0.0, extra_delay)
        self._schedule_start(task, delay=delay)
        parked = self._dead_letters.pop(spec.name, [])
        for envelope in parked:
            self.engine.schedule(delay,
                                 lambda env=envelope, pid=task.physical_id:
                                 self._route_to_physical(None, env, pid),
                                 label=f"replay:{spec.name}")
        self.collector.increment("replicas_regenerated")
        return task.physical_id

    # -------------------------------------------------------------- heartbeat
    def enable_heartbeats(self, period: float, listener: Callable[[str, float], None],
                          monitor_node: Optional[str] = None) -> None:
        """Generate periodic heartbeats from every live replica.

        ``listener(physical_id, time)`` is invoked for each heartbeat; the
        heartbeat frame is charged to the interconnect so detection traffic
        contributes to the measured resiliency overhead.
        """
        if period <= 0:
            raise ValueError("heartbeat period must be positive")
        monitor = monitor_node or self.cluster.node_names[0]
        self._heartbeat = (period, listener, monitor)
        for task in self._tasks.values():
            if task.alive and not task.daemon:
                self._schedule_heartbeat(task)

    def _schedule_heartbeat(self, task: _SimTask) -> None:
        if self._heartbeat is None:
            return
        period, listener, monitor = self._heartbeat
        def beat(t=task):
            if t.terminal or self._heartbeat is None:
                return
            self.cluster.interconnect.transfer_window(
                t.node, monitor, CONTROL_MESSAGE_BYTES, self.engine.now)
            self.collector.increment("heartbeats")
            listener(t.physical_id, self.engine.now)
            self._schedule_heartbeat(t)
        self.engine.schedule(period, beat, label=f"heartbeat:{task.physical_id}")

    # ---------------------------------------------------------------- result
    def _build_result(self) -> RunResult:
        returns: Dict[str, Any] = {}
        outcomes: Dict[str, ThreadOutcome] = {}
        for pid, task in self._tasks.items():
            outcomes[pid] = ThreadOutcome(physical_id=pid, logical=task.logical,
                                          replica=task.replica, status=task.status.value,
                                          result=task.result, error=task.error)
            if task.status == TaskStatus.FINISHED and task.logical not in returns:
                returns[task.logical] = task.result
        workers = sum(1 for s in (self._app.specs if self._app else [])
                      if s.name.startswith("worker"))
        replication = max((s.replicas for s in (self._app.specs if self._app else [])),
                          default=1)
        metrics = self.collector.finalise(
            elapsed_seconds=self.engine.now,
            backend=self.kind,
            workers=max(workers, 1),
            subcubes=0,
            replication_level=replication,
            messages=self.cluster.interconnect.messages_sent,
            bytes_sent=self.cluster.interconnect.bytes_sent,
        )
        for node in self.cluster.nodes():
            metrics.node_busy_seconds.setdefault(node.name, node.busy_time)
        result = RunResult(returns=returns, outcomes=outcomes, metrics=metrics,
                           elapsed_seconds=self.engine.now)
        return result


__all__ = ["SimBackend", "ProtocolConfig", "TaskStatus", "CONTROL_MESSAGE_BYTES"]
