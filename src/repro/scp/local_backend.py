"""Local execution backend: real Python threads, wall-clock time.

The local backend runs the *same* thread programs as the simulated backend,
but on genuine :class:`threading.Thread` objects with blocking mailboxes.  It
serves two purposes:

* it demonstrates that the algorithm and resiliency code are truly
  backend-independent (the paper's claim about SCPlib applications), and
* it provides end-to-end concurrency tests in which real interleavings,
  real blocking receives and real fault injection (thread kills followed by
  regeneration) exercise the protocols.

Because CPython threads share one interpreter, the local backend is *not*
meant to demonstrate speed-up; wall-clock performance claims are made only by
the simulated backend.  Timing is still recorded so the pipeline phases can
be profiled.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Optional

from .channel import Mailbox
from .effects import (Checkpoint, Compute, GetTime, Probe, Recv, Send, Sleep)
from .errors import ReceiveTimeout, SCPError
from .runtime import Context
from .serialization import Envelope
from .thread import ThreadSpec
from .wallclock import ReplicaTask, WallClockBackend


class _KilledSignal(Exception):
    """Internal control-flow exception unwinding a killed thread program."""


class _LocalTask(ReplicaTask):
    def __init__(self, spec: ThreadSpec, replica: int, physical_id: str,
                 ctx: Context) -> None:
        super().__init__(spec, replica, physical_id, ctx.incarnation)
        self.ctx = ctx
        self.mailbox = Mailbox(physical_id, dedup=True, thread_safe=True)
        self.gen = None
        self.thread: Optional[threading.Thread] = None
        self.send_seq = 0
        self.killed = threading.Event()


class LocalBackend(WallClockBackend):
    """Shared-memory, real-thread execution backend."""

    kind = "local"

    def __init__(self, *, crash_policy: str = "raise",
                 default_timeout: Optional[float] = 120.0) -> None:
        """Create a local backend.

        Parameters
        ----------
        crash_policy:
            ``"raise"`` re-raises the first program exception after the run
            (unless the run's ``until_thread`` finished regardless);
            ``"record"`` only records it in the outcomes.
        default_timeout:
            Wall-clock safety limit (seconds) applied to :meth:`run` unless
            overridden; prevents wedged tests from hanging forever.
        """
        super().__init__(crash_policy=crash_policy, default_timeout=default_timeout)

    # ------------------------------------------------------------- wait loop
    def _wait(self, until_thread: Optional[str], deadline: Optional[float]) -> None:
        if until_thread is not None:
            self._wait_for_logical(until_thread, deadline)
            # Shut down everything else so joins below terminate quickly.
            with self._lock:
                leftovers = [t for t in self._tasks.values()
                             if t.alive and t.logical != until_thread]
            for task in leftovers:
                self.kill_thread(task.physical_id, reason="shutdown")
        while True:
            with self._lock:
                pending = [t for t in self._tasks.values()
                           if not t.daemon and t.thread is not None and t.thread.is_alive()]
            if not pending:
                break
            if deadline is not None and time.perf_counter() > deadline:
                names = [t.physical_id for t in pending]
                for task in pending:
                    self.kill_thread(task.physical_id, reason="timeout")
                raise SCPError(f"local run timed out; still alive: {names}")
            pending[0].thread.join(timeout=0.05)
        # Daemon threads are shut down unconditionally at the end of the run.
        with self._lock:
            daemons = [t for t in self._tasks.values() if t.daemon and t.alive]
        for task in daemons:
            self.kill_thread(task.physical_id, reason="shutdown")

    def _wait_for_logical(self, logical: str, deadline: Optional[float]) -> None:
        while True:
            with self._lock:
                done = any(t.status == "finished" for t in self._tasks.values()
                           if t.logical == logical)
                all_dead = all(not t.alive for t in self._tasks.values()
                               if t.logical == logical)
            if done:
                return
            if all_dead:
                return
            if deadline is not None and time.perf_counter() > deadline:
                return
            time.sleep(0.002)

    # --------------------------------------------------------------- vehicle
    def _make_task(self, spec: ThreadSpec, replica: int, physical_id: str, *,
                   restored: Any, incarnation: int) -> _LocalTask:
        ctx = Context(name=spec.name, replica=replica, physical_id=physical_id,
                      node="local", params=dict(spec.params), restored=restored,
                      incarnation=incarnation)
        task = _LocalTask(spec, replica, physical_id, ctx)
        task.gen = spec.program(ctx, **spec.params)
        # Parked envelopes go in before any newer send can reach the mailbox
        # (the task is not registered with the router yet).
        self._replay_dead_letters(task)
        return task

    def _launch(self, task: _LocalTask) -> None:
        task.thread = threading.Thread(target=self._interpret, args=(task,),
                                       name=task.physical_id, daemon=True)
        task.thread.start()

    def _deliver(self, task: _LocalTask, envelope: Envelope) -> bool:
        return task.mailbox.deposit(envelope)

    def _terminate(self, task: _LocalTask, reason: str) -> None:
        # Cooperative: the interpreter notices the flag between effects, and
        # closing the mailbox wakes a blocked receive.
        task.killed.set()
        task.mailbox.close()

    # ------------------------------------------------------------ interpreter
    def _interpret(self, task: _LocalTask) -> None:
        value: Any = None
        throw: Optional[BaseException] = None
        try:
            while True:
                if task.killed.is_set():
                    raise _KilledSignal()
                try:
                    if throw is not None:
                        exc, throw = throw, None
                        effect = task.gen.throw(exc)
                    else:
                        effect = task.gen.send(value)
                except StopIteration as stop:
                    self._finish(task.physical_id, stop.value)
                    return
                value, throw = self._execute_effect(task, effect)
        except _KilledSignal:
            pass  # kill_thread already recorded the death
        except ReceiveTimeout as err:
            self._crashed(task, f"uncaught ReceiveTimeout: {err}")
        except Exception as err:  # noqa: BLE001 - program errors are reported
            self._crashed(task, repr(err))

    def _crashed(self, task: _LocalTask, message: str) -> None:
        task.mailbox.close()
        self._crash(task.physical_id, message)

    def _execute_effect(self, task: _LocalTask, effect):
        if isinstance(effect, Compute):
            start = time.perf_counter()
            result = effect.fn(*effect.args, **effect.kwargs)
            self._record_phase(effect.phase, "local", time.perf_counter() - start)
            return result, None
        if isinstance(effect, Send):
            task.send_seq += 1
            self._route(Envelope(
                src=task.logical, dst=effect.dst, port=effect.port,
                payload=effect.payload, seq=task.send_seq, key=effect.key,
                src_physical=task.physical_id, urgent=effect.urgent,
                send_time=self.now))
            return None, None
        if isinstance(effect, Recv):
            envelope = task.mailbox.wait_matching(effect.port, effect.timeout)
            if envelope is None:
                if task.killed.is_set() or task.mailbox.closed:
                    raise _KilledSignal()
                return None, ReceiveTimeout(task.physical_id, effect.port,
                                            effect.timeout or 0.0)
            return envelope, None
        if isinstance(effect, Probe):
            return task.mailbox.has_matching(effect.port), None
        if isinstance(effect, Sleep):
            time.sleep(max(0.0, effect.seconds))
            return None, None
        if isinstance(effect, Checkpoint):
            self._record_checkpoint(task.logical, effect.state)
            return None, None
        if isinstance(effect, GetTime):
            return self.now, None
        raise SCPError(f"program yielded a non-effect object: {effect!r}")


__all__ = ["LocalBackend"]
