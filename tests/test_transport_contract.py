"""Transport-conformance contract suite (PR 9).

One parametrized battery run against every worker transport -- in-process
threads, forked pool slots, and the socket node agent -- asserting the
behaviours the unified stage executor (repro.scp.stages) promises
regardless of substrate: submit/result round trips, typed deterministic
errors, crash retry after a mid-task SIGKILL, typed close-drain, identical
kill-accounting semantics, and zero /dev/shm or spool residue.

Since the router became event-driven (v1.16) the battery also holds the
``wait``/``wake`` contract, the doorbell-is-a-hint rule (absent, unlinked
or full, nothing hangs and nothing is lost), death-by-reaping instead of a
timed confirmation, and "an idle or waiting router does not spin" -- judged
by ``late_commits`` and ``wait()`` counts rather than by a stopwatch
wherever a count can say it.

The task functions live at module level on purpose: the socket transport's
node agent is a fresh interpreter that unpickles them *by reference*, so
anything a stage runs must be importable -- which is also the executor's
documented determinism contract.
"""

from __future__ import annotations

import collections
import concurrent.futures
import os
import pickle
import signal
import statistics
import sys
import threading
import time

import numpy as np
import pytest

import repro
from _process_utils import shm_residue
from repro.scp.pool import ProcessPool
from repro.scp.registry import BackendSpec
from repro.scp.serialization import DOORBELL_NAME, ring_doorbell
from repro.scp.stages import (StageCrashError, StageError,
                              TransportStageExecutor, try_run_stage)
from repro.scp.transport import (STAGE_ASSIGN, TASKS_PER_WORKER,
                                 ForkedProcessTransport, TaskFrame,
                                 transport_for_spec)

TRANSPORTS = ("inprocess", "forked", "socket")
KILLABLE_TRANSPORTS = ("forked", "socket")

#: The backend spec a user writes to get each transport: the suite builds
#: its executors the way sessions and ``repro.fuse`` do.
SPECS = {"inprocess": "local", "forked": "process:2", "socket": "socket:2"}


def add(a, b):
    return a + b


def slow_add(a, b, seconds=0.4):
    time.sleep(seconds)
    return a + b


def boom():
    raise ValueError("kaboom")


def make_transport(kind, *, workers=2):
    transport = transport_for_spec(BackendSpec.parse(SPECS[kind]), workers=workers)
    assert transport.kind == {"forked": "forked-process"}.get(kind, kind)
    return transport


def make_executor(kind, *, workers=2, max_retries=2):
    return TransportStageExecutor(make_transport(kind, workers=workers),
                                  workers=workers, max_retries=max_retries)


class CountingTransport:
    """Delegates to a real transport and counts the router's ``wait()`` calls:
    a router spinning on a dead sentinel or a dead socket shows as a number."""

    def __init__(self, inner):
        self._inner = inner
        self.waits = 0

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def wait(self, timeout):
        self.waits += 1
        return self._inner.wait(timeout)


class SpyTransport(CountingTransport):
    """Also records every send in order -- ``(task_id, attempt, worker,
    places given back before it)`` -- and the most places one worker, and
    the most workers holding a place, the transport ever granted at once."""

    def __init__(self, inner):
        super().__init__(inner)
        self.sent = []
        self.given_back = 0
        self.most_places = 0
        self.most_workers = 0
        self._held = collections.Counter()
        self._lock = threading.Lock()

    @staticmethod
    def _worker(ref):
        # A socket ref names a slot at one incarnation; a forked one is the slot.
        return (ref.index, ref.incarnation) if hasattr(ref, "incarnation") else ref

    def acquire(self, *, spawn=True):
        ref = self._inner.acquire(spawn=spawn)
        if ref is not None:
            with self._lock:
                self._held[self._worker(ref)] += 1
                self.most_places = max(self.most_places, *self._held.values())
                self.most_workers = max(self.most_workers, sum(
                    1 for places in self._held.values() if places > 0))
        return ref

    def _give_back(self, ref):
        with self._lock:
            self._held[self._worker(ref)] -= 1
            self.given_back += 1

    def release(self, ref):
        self._give_back(ref)
        self._inner.release(ref)

    def discard(self, ref):
        self._give_back(ref)
        self._inner.discard(ref)

    def send(self, ref, frame):
        with self._lock:
            self.sent.append((frame.task_id, frame.attempt, self._worker(ref),
                              self.given_back))
        self._inner.send(ref, frame)


def wait_for(predicate, timeout=30.0):
    """Whether ``predicate()`` came true within ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


# ---------------------------------------------------------------------------
# Submit / result round trip
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", TRANSPORTS)
def test_submit_round_trip(kind):
    with make_executor(kind) as executor:
        futures = [executor.submit("screen", add, i, 100) for i in range(6)]
        assert [f.result(timeout=60) for f in futures] == [100 + i
                                                           for i in range(6)]
        assert executor.in_flight == 0


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_deterministic_error_is_typed_and_not_retried(kind):
    with make_executor(kind) as executor:
        future = executor.submit("screen", boom)
        with pytest.raises(StageError, match="screen") as excinfo:
            future.result(timeout=60)
        assert not isinstance(excinfo.value, StageCrashError)
        assert "kaboom" in str(excinfo.value)
        assert executor.retries == 0
        # The worker survives a failing task and stays reusable.
        assert executor.submit("screen", add, 40, 2).result(timeout=60) == 42


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_submit_after_close_raises_typed_error(kind):
    executor = make_executor(kind)
    executor.close()
    with pytest.raises(StageError, match="closed"):
        executor.submit("project", add, 1, 1)


# ---------------------------------------------------------------------------
# SIGKILL mid-task: crash retry stays bit-identical
# ---------------------------------------------------------------------------

@pytest.mark.flaky(reruns=2)
@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_sigkill_mid_task_retries_bit_identically(kind):
    with make_executor(kind) as executor:
        executor.inject_kill("screen")
        future = executor.submit("screen", slow_add, 20, 22)
        assert future.result(timeout=60) == slow_add(20, 22, seconds=0)
        assert executor.retries >= 1
        assert executor.kills_delivered == {"screen": 1}
        assert executor.pending_kills == {}


@pytest.mark.flaky(reruns=2)
@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_retry_budget_exhaustion_fails_typed(kind):
    with make_executor(kind, max_retries=0) as executor:
        executor.inject_kill("screen", kills=8)
        future = executor.submit("screen", slow_add, 1, 2)
        with pytest.raises(StageCrashError, match="screen"):
            future.result(timeout=60)
        executor.cancel_kills()
        # The substrate recovers for the next task.
        assert executor.submit("screen", add, 1, 2).result(timeout=60) == 3


@pytest.mark.flaky(reruns=2)
def test_socket_survives_whole_node_agent_kill():
    """A SIGKILL of the *agent* (every worker at once) is total substrate
    loss; the executor's retry path restarts the agent transparently."""
    with make_executor("socket") as executor:
        assert executor.submit("screen", add, 1, 1).result(timeout=60) == 2
        pid = executor.transport.agent_pid
        assert pid is not None
        future = executor.submit("screen", slow_add, 2, 3)
        os.kill(pid, signal.SIGKILL)
        assert future.result(timeout=60) == 5
        assert executor.transport.agent_restarts >= 1
        assert executor.retries >= 1


# ---------------------------------------------------------------------------
# Close-drain semantics
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_close_fails_in_flight_tasks_typed(kind):
    executor = make_executor(kind)
    futures = [executor.submit("project", slow_add, i, 1, 2.0)
               for i in range(2)]
    executor.close()
    for future in futures:
        with pytest.raises(StageError, match="closed with the task"):
            future.result(timeout=60)
    assert executor.in_flight == 0


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_close_of_idle_executor_is_prompt_and_leaks_no_router(kind):
    """An idle router sleeps until woken; close() must wake it rather than
    wait out its backstop (or the 2 s join timeout) and leave it running."""
    executor = make_executor(kind)
    assert executor.submit("screen", add, 1, 2).result(timeout=60) == 3
    time.sleep(0.1)  # the router is parked in its idle wait by now
    started = time.monotonic()
    executor.close()
    assert time.monotonic() - started < 0.5
    assert not executor._router.is_alive()


def test_inprocess_close_drains_running_tasks():
    """Host threads cannot be abandoned mid-task: close() waits for the
    running task and its result resolves normally (graceful drain)."""
    executor = make_executor("inprocess")
    future = executor.submit("screen", slow_add, 5, 6)
    executor.close()
    assert future.result(timeout=5) == 11


# ---------------------------------------------------------------------------
# Kill accounting: one mixin, identical semantics everywhere (satellite)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", TRANSPORTS)
def test_kill_count_validated_before_capability(kind):
    """kills < 1 is a ValueError on *every* executor -- validation runs
    before the capability check, so thread and process executors reject a
    bad count identically instead of diverging."""
    with make_executor(kind) as executor:
        with pytest.raises(ValueError, match=">= 1"):
            executor.inject_kill("screen", kills=0)


def test_thread_executor_rejects_kills_with_actionable_error():
    with make_executor("inprocess") as executor:
        with pytest.raises(NotImplementedError, match="socket"):
            executor.inject_kill("screen")


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_kill_accounting_semantics_are_identical(kind):
    with make_executor(kind) as executor:
        executor.inject_kill("screen", kills=2)
        executor.inject_kill("covariance")
        assert executor.pending_kills == {"screen": 2, "covariance": 1}
        assert executor.cancel_kills("screen") == {"screen": 2}
        assert executor.cancel_kills("screen") == {}
        assert executor.cancel_kills() == {"covariance": 1}
        assert executor.pending_kills == {}
        assert executor.kills_delivered == {}
        assert executor.retries == 0


def test_capability_flags_match_substrate():
    flags = {}
    for kind in TRANSPORTS:
        with make_executor(kind) as executor:
            flags[kind] = executor.supports_kill
    assert flags == {"inprocess": False, "forked": True, "socket": True}


# ---------------------------------------------------------------------------
# Residue: nothing survives close() in /dev/shm or the spool
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", TRANSPORTS)
def test_no_shm_or_spool_residue_after_close(kind):
    before = set(shm_residue())
    executor = make_executor(kind)
    futures = [executor.submit("screen", add, i, 1) for i in range(4)]
    if executor.supports_kill:
        executor.inject_kill("screen")
        futures.append(executor.submit("screen", slow_add, 1, 2))
    for future in futures:
        future.result(timeout=60)
    executor.close()
    leaked = set(shm_residue()) - before
    assert leaked == set(), f"residue leaked: {sorted(leaked)}"


# ---------------------------------------------------------------------------
# wait / wake, and the doorbell as a hint beside the authoritative scan
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", TRANSPORTS)
def test_wake_before_wait_is_not_lost(kind):
    """Level-triggered: a wake() that lands first ends the next wait() at
    once, and is consumed by it."""
    transport = make_transport(kind)
    try:
        transport.wake()
        started = time.monotonic()
        assert transport.wait(5.0) is True
        assert time.monotonic() - started < 1.0
        assert transport.wait(0.01) is False
    finally:
        transport.close()


@pytest.mark.parametrize("kind", TRANSPORTS)
def test_poll_committed_needs_no_wait(kind):
    """A bare transport driven without an executor and without wait() --
    the shape of the benchmark's round-trip probe -- still sees the commit:
    the scan is the source of truth, the doorbell only a hint."""
    transport = make_transport(kind)
    try:
        transport.start(2)
        for task_id in range(3):
            ref = transport.acquire()
            transport.send(ref, TaskFrame(task_id=task_id, attempt=1,
                                          stage="probe", fn=add,
                                          args=(task_id, 1), kwargs={}))
            deadline = time.monotonic() + 30.0
            committed = []
            while not committed and time.monotonic() < deadline:
                committed = transport.poll_committed()
                time.sleep(0.0005)
            transport.release(ref)
            assert [(c.task_id, c.value) for c in committed] == [(task_id,
                                                                  task_id + 1)]
    finally:
        transport.close()


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_dependent_hops_are_event_driven(kind):
    """20 dependent no-ops: every commit is announced (no commit waits for
    the safety net) and a hop costs the substrate, not a 50 ms quantum."""
    with make_executor(kind) as executor:
        total = executor.submit("probe", add, 0, 0).result(timeout=60)
        hops = []
        for _ in range(20):
            started = time.perf_counter()
            total = executor.submit("probe", add, total, 1).result(timeout=60)
            hops.append(time.perf_counter() - started)
        assert total == 20
        assert executor.late_commits == 0
        assert statistics.median(hops) < 0.025


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_no_doorbell_degrades_to_a_timed_scan(kind, monkeypatch):
    """A spool filesystem without FIFOs must not fail construction; commits
    are then found by the timed scan, every one of them counted late."""
    def no_fifos(path, *args, **kwargs):
        raise OSError(1, "Operation not permitted", path)

    monkeypatch.setattr(os, "mkfifo", no_fifos)
    executor = make_executor(kind)
    monkeypatch.undo()
    with executor:
        assert not os.path.exists(
            os.path.join(executor.transport._spool, DOORBELL_NAME))
        futures = [executor.submit("screen", add, i, 1) for i in range(6)]
        assert [f.result(timeout=60) for f in futures] == list(range(1, 7))
    assert executor.late_commits == 6  # read once close() joined the router


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_unlinked_doorbell_costs_only_the_safety_net(kind):
    with make_executor(kind) as executor:
        assert executor.submit("screen", add, 1, 1).result(timeout=60) == 2
        os.unlink(os.path.join(executor.transport._spool, DOORBELL_NAME))
        for i in range(3):
            started = time.monotonic()
            # Slow enough that submit's own wake-up is spent before the commit.
            assert executor.submit("screen", slow_add, i, 1,
                                   0.02).result(timeout=60) == i + 1
            assert time.monotonic() - started < 1.0
    assert executor.late_commits == 3  # read once close() joined the router


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_full_doorbell_pipe_blocks_nobody(kind):
    with make_executor(kind) as executor:
        spool = executor.transport._spool
        fd = os.open(os.path.join(spool, DOORBELL_NAME),
                     os.O_WRONLY | os.O_NONBLOCK)
        try:
            with pytest.raises(BlockingIOError):  # the router drains as we
                for _ in range(64):               # fill: out-write it
                    os.write(fd, b"\0" * 65536)
            ring_doorbell(spool)  # EAGAIN or not: swallowed, never blocks
        finally:
            os.close(fd)
        futures = [executor.submit("screen", add, i, 1) for i in range(4)]
        assert [f.result(timeout=60) for f in futures] == [1, 2, 3, 4]


def test_worker_survives_a_spool_removed_underneath_it():
    """close() removes the spool while an abandoned task may still run: the
    failed commit and the failed ring must both leave the worker alive."""
    gone = os.path.join(os.sep, "nonexistent", "scp-stages-gone")
    ring_doorbell(gone)
    assert try_run_stage((STAGE_ASSIGN, 1, 1, gone, add, (1, 2), {})) is True
    with ProcessPool(warm=1) as pool:
        transport = ForkedProcessTransport(pool)
        ref = transport.acquire()
        transport.send(ref, TaskFrame(task_id=0, attempt=1, stage="screen",
                                      fn=slow_add, args=(1, 2), kwargs={}))
        transport.close()  # the borrowed pool outlives it; the spool is gone
        transport.release(ref)
        time.sleep(0.6)    # the task finishes into the removed spool
        with TransportStageExecutor(ForkedProcessTransport(pool),
                                    workers=1) as executor:
            assert executor.submit("screen", add, 40, 2).result(timeout=60) == 42
        assert pool.spawned_processes == 1 and ref.process.is_alive()


# ---------------------------------------------------------------------------
# Death is an event: reaped => one more scan, lost agent => timed window
# ---------------------------------------------------------------------------

@pytest.mark.flaky(reruns=2)
@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_reaped_worker_is_retried_without_a_timed_confirmation(kind):
    """A SIGKILLed 50 ms task comes back in well under the 0.25 s window
    the timed confirmation alone used to cost."""
    with make_executor(kind) as executor:
        assert executor.submit("screen", add, 1, 1).result(timeout=60) == 2
        executor.inject_kill("screen")
        started = time.monotonic()
        assert executor.submit("screen", slow_add, 20, 22,
                               0.05).result(timeout=60) == 42
        assert time.monotonic() - started < 0.2
        assert executor.retries == 1
        assert executor.kills_delivered == {"screen": 1}


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_kill_after_commit_resolves_once_and_ignores_the_stale_attempt(kind):
    """A no-op commits before the SIGKILL lands (or is lost with its worker
    -- both orders occur): its result, and that of the dependent task that
    may be handed the dying worker, must each arrive exactly once."""
    with make_executor(kind) as executor:
        for round_ in range(6):
            executor.inject_kill("covariance")
            first = executor.submit("covariance", add, round_, 1)
            second = executor.submit("project", add, first.result(timeout=60), 1)
            assert second.result(timeout=60) == round_ + 2
        assert executor.in_flight == 0
        assert executor.kills_delivered == {"covariance": 6}
        assert executor.retries <= 12  # at most both tasks of a round
        assert executor._router.is_alive()  # no double resolution killed it
        # A kill mid-commit left a partial; the retry removed it first.
        assert os.listdir(executor.transport._spool) == [DOORBELL_NAME]


class _DieMidWrite:
    """A result file whose writer is SIGKILLed half-way through the write."""

    def __init__(self, path, mode):
        self._file = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._file.close()

    def write(self, data):
        self._file.write(data[:len(data) // 2])
        self._file.flush()
        os.kill(os.getpid(), signal.SIGKILL)


def payload_killed_mid_commit(marker, nbytes):
    """Return ``nbytes`` of payload.  The first attempt (the one that creates
    ``marker``) is SIGKILLed mid-commit, half its result file written -- as
    an OOM kill during the write would leave it."""
    try:
        os.close(os.open(marker, os.O_CREAT | os.O_EXCL))
    except FileExistsError:
        return bytes(nbytes)
    from repro.scp import serialization
    serialization.open = _DieMidWrite  # this worker's commits only
    return bytes(nbytes)


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_kill_mid_commit_leaves_nothing_in_a_live_spool(kind, tmp_path):
    """A worker killed while writing a multi-MiB result leaves its partial
    behind; the retry removes it, so a long-lived session's spool does not
    collect one per kill."""
    with repro.open_session(engine="pipeline", backend=SPECS[kind]) as session:
        executor = session.stage_executor()
        spool = executor.transport._spool
        for request in range(3):
            marker = str(tmp_path / f"killed-{request}")
            payload = executor.submit("screen", payload_killed_mid_commit,
                                      marker, 8 << 20)
            assert len(payload.result(timeout=60)) == 8 << 20
            assert os.listdir(spool) == [DOORBELL_NAME]
        assert executor.retries == 3


def test_socket_slot_is_not_handed_out_before_its_reset_frame_is_sent():
    """discard() recycles a slot under a new incarnation and tells the agent
    with a ``reset`` frame.  A driver thread acquiring the slot in between
    could get its task frame onto the stream first; the agent drops a task
    whose incarnation it has not heard of, and nobody would retry it (seen as
    a hung request once retries became immediate).  The sibling holds both
    of its places, so the doomed slot is the only one acquire could pick."""
    transport = make_transport("socket")
    try:
        transport.start(2)
        doomed = transport.acquire()
        assert [transport.acquire().index for _ in range(3)] == [1, 0, 1]
        resetting = threading.Event()
        real_send = transport._send

        def slow_reset(frame):
            if frame[0] == "reset":
                resetting.set()
                time.sleep(0.1)
            return real_send(frame)

        transport._send = slow_reset
        discarder = threading.Thread(target=transport.discard, args=(doomed,))
        discarder.start()
        assert resetting.wait(timeout=10)
        assert transport.acquire(spawn=False) is None  # not yet: reset unsent
        discarder.join(timeout=10)
        assert not discarder.is_alive()
        fresh = transport.acquire(spawn=False)
        assert (fresh.index, fresh.incarnation != doomed.incarnation) == (
            doomed.index, True)
        transport.send(fresh, TaskFrame(task_id=7, attempt=1, stage="probe",
                                        fn=add, args=(40, 2), kwargs={}))
        deadline = time.monotonic() + 30.0
        committed = []
        while not committed and time.monotonic() < deadline:
            transport.wait(0.05)
            committed = transport.poll_committed()
        assert [(c.task_id, c.value) for c in committed] == [(7, 42)]
    finally:
        transport.close()


# ---------------------------------------------------------------------------
# No spin: idle, waiting for a busy sibling, waiting out a lost agent
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("backend", ["process:2", "socket:2"])
def test_idle_pipeline_session_burns_no_cpu(tiny_cube, backend):
    with repro.open_session(engine="pipeline", backend=backend) as session:
        session.fuse(tiny_cube)
        time.sleep(0.1)
        before = time.process_time()
        time.sleep(1.0)
        assert time.process_time() - before < 0.05


@pytest.mark.flaky(reruns=2)
def test_router_does_not_spin_while_a_retry_waits_for_a_busy_sibling():
    """The killed worker's sentinel stays readable for ever; it must have
    left the wait set by the time its task waits for the surviving worker."""
    transport = CountingTransport(make_transport("forked"))
    with TransportStageExecutor(transport, workers=2) as executor:
        busy = executor.submit("screen", slow_add, 1, 1, 1.0)
        executor.inject_kill("project")
        waits = transport.waits
        killed = executor.submit("project", slow_add, 2, 2, 0.05)
        assert killed.result(timeout=60) == 4
        assert busy.result(timeout=60) == 2
        assert executor.retries == 1
        assert transport.waits - waits < 50


@pytest.mark.flaky(reruns=2)
def test_router_does_not_spin_through_a_lost_agents_confirmation_window():
    transport = CountingTransport(make_transport("socket"))
    with TransportStageExecutor(transport, workers=2) as executor:
        assert executor.submit("screen", add, 1, 1).result(timeout=60) == 2
        waits = transport.waits
        future = executor.submit("screen", slow_add, 2, 3)
        os.kill(transport.agent_pid, signal.SIGKILL)
        assert future.result(timeout=60) == 5
        assert transport.agent_restarts == 1 and executor.retries == 1
        assert transport.waits - waits < 50


def test_concurrent_submitters_keep_the_wait_set_consistent():
    """More driver threads than cores, each with two tasks out, so twice the
    window is submitted at once; a shortened switch interval: every result
    arrives, no worker is granted more than ``TASKS_PER_WORKER`` places and
    none is spawned past ``workers``, and no worker is left in the forked
    transport's sentinel wait set (a lost update there would spin or miss a
    death)."""
    results = {}

    def driver(base):
        for i in range(0, 24, 2):
            pair = [executor.submit("screen", add, base + j, 1) for j in (i, i + 1)]
            for j, future in zip((i, i + 1), pair):
                results[base + j] = future.result(timeout=60)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        transport = SpyTransport(make_transport("forked", workers=3))
        with TransportStageExecutor(transport, workers=3) as executor:
            threads = [threading.Thread(target=driver, args=(100 * n,))
                       for n in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert results == {100 * n + i: 100 * n + i + 1
                               for n in range(6) for i in range(24)}
            assert executor.in_flight == 0
            assert transport._load == {}
            assert transport._pool.spawned_processes == 3
        assert transport.most_places <= TASKS_PER_WORKER
        assert transport.most_workers <= 3
    finally:
        sys.setswitchinterval(interval)


# ---------------------------------------------------------------------------
# The dispatch window: each worker runs one task and holds the next
# ---------------------------------------------------------------------------

def noise(seed):
    return np.random.default_rng(seed).standard_normal(4096).cumsum()


def gated(gate, index, stamps=None):
    """Block until the test writes one byte into the FIFO ``gate``; then
    record ``pid start end`` under ``stamps`` (if given) and return
    ``noise(index)``."""
    started = time.monotonic_ns()
    fd = os.open(gate, os.O_RDONLY)
    try:
        os.read(fd, 1)
    finally:
        os.close(fd)
    if stamps is not None:
        with open(os.path.join(stamps, str(index)), "w") as fh:
            fh.write(f"{os.getpid()} {started} {time.monotonic_ns()}")
    return noise(index)


@pytest.fixture
def gate(tmp_path):
    """``(path, fd)`` of a FIFO the test holds open: each byte written to
    ``fd`` lets exactly one :func:`gated` task through."""
    path = str(tmp_path / "gate")
    os.mkfifo(path)
    fd = os.open(path, os.O_RDWR)  # a writer from the start: readers open at once
    yield path, fd
    os.close(fd)


def submit_in_thread(executor, *args):
    """``(box, returned)``: ``executor.submit(*args)`` on a thread of its own;
    ``returned`` is set once the call came back with ``box["future"]``."""
    box, returned = {}, threading.Event()

    def run():
        box["future"] = executor.submit(*args)
        returned.set()

    threading.Thread(target=run, daemon=True).start()
    return box, returned


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_each_worker_runs_one_task_and_holds_the_next(kind, gate, tmp_path):
    """Two workers take four gated tasks; a fifth ``submit`` returns at once,
    but its task is sent only after the first commit, to one of the two
    workers.  No third worker is spawned, no worker is granted more than
    ``TASKS_PER_WORKER`` places, and none runs two tasks at once -- judged
    by the stamps the tasks record, not a clock."""
    path, fd = gate
    stamps = tmp_path / "stamps"
    stamps.mkdir()
    transport = SpyTransport(make_transport(kind))
    with TransportStageExecutor(transport, workers=2) as executor:
        futures = [executor.submit("probe", gated, path, index, str(stamps))
                   for index in range(5)]
        assert executor.in_flight == 5
        assert [given_back for *_, given_back in transport.sent] == [0] * 4
        assert not wait_for(lambda: len(transport.sent) > 4, timeout=0.3)
        os.write(fd, b"\0")
        done, _ = concurrent.futures.wait(futures[:4], timeout=30,
                                          return_when="FIRST_COMPLETED")
        assert len(done) == 1
        assert wait_for(lambda: len(transport.sent) == 5)
        assert transport.sent[4][3] == 1  # sent once the first place came back
        os.write(fd, b"\0" * 4)
        for index, future in enumerate(futures):
            assert future.result(timeout=60).tobytes() == noise(index).tobytes()
        assert executor.in_flight == 0 and executor.retries == 0
        assert transport.alive_workers() == 2
    assert len({worker for _, _, worker, _ in transport.sent}) == 2
    assert transport.most_places == TASKS_PER_WORKER
    assert transport.most_workers == 2
    runs = {}
    for name in os.listdir(stamps):
        pid, started, ended = map(int, (stamps / name).read_text().split())
        runs.setdefault(pid, []).append((started, ended))
    assert len(runs) == 2 and sum(map(len, runs.values())) == 5
    for intervals in runs.values():
        intervals.sort()
        assert all(later[0] >= earlier[1]
                   for earlier, later in zip(intervals, intervals[1:]))


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_kill_of_a_worker_holding_a_queued_task_retries_both(kind, gate):
    """A SIGKILL lands on a worker that runs one task and holds the next: both
    are retried, each resolves once and bit-identically, and the live spool
    is left holding only its doorbell."""
    path, fd = gate
    with make_executor(kind) as executor:
        running = executor.submit("screen", gated, path, 1)
        sibling = executor.submit("screen", gated, path, 2)
        executor.inject_kill("project")
        queued = executor.submit("project", noise, 3)  # behind `running`
        deadline = time.monotonic() + 30
        while executor.retries < 2 and time.monotonic() < deadline:
            time.sleep(0.002)  # the kill lands before the gate opens
        assert executor.retries == 2
        os.write(fd, b"\0\0")  # the sibling, then the retried `running`
        futures = {1: running, 2: sibling, 3: queued}
        for seed, future in futures.items():
            assert future.result(timeout=60).tobytes() == noise(seed).tobytes()
        assert os.listdir(executor.transport._spool) == [DOORBELL_NAME]
        assert executor.retries == 2
        assert executor.kills_delivered == {"project": 1}
        assert executor.pending_kills == {}
        assert executor.in_flight == 0
        assert executor._router.is_alive()  # no double resolution killed it


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_a_crash_retry_is_sent_before_later_submits(kind, gate):
    """A SIGKILL lands while every place is held: the dead worker's two tasks
    are retried ahead of every task submitted after the death was seen,
    even when the first place to come back is taken by a submitter's
    thread -- judged by the order the transport was handed the frames."""
    path, fd = gate
    transport = SpyTransport(make_transport(kind))
    with TransportStageExecutor(transport, workers=2) as executor:
        held = [executor.submit("screen", gated, path, seed) for seed in (1, 2, 3)]
        executor.inject_kill("project")
        killed = executor.submit("project", noise, 4)  # the fourth place
        assert wait_for(lambda: executor.retries == 2)
        later = [submit_in_thread(executor, "screen", noise, seed)
                 for seed in (5, 6)]
        os.write(fd, b"\0" * 3)  # the two survivors and the retried one
        for box, returned in later:
            assert returned.wait(timeout=30)
        futures = dict(zip((1, 2, 3, 4), (*held, killed)))
        futures.update(zip((5, 6), (box["future"] for box, _ in later)))
        for seed, future in futures.items():
            assert future.result(timeout=60).tobytes() == noise(seed).tobytes()
        assert executor.retries == 2
    # Task ids count submits: 0-3 were in flight at the kill, 4-5 came later.
    retried = [at for at, (_, attempt, _, _) in enumerate(transport.sent)
               if attempt == 2]
    later_sent = [at for at, (task_id, *_) in enumerate(transport.sent)
                  if task_id >= 4]
    assert len(retried) == 2 and len(later_sent) == 2
    assert max(retried) < min(later_sent)
    assert transport.most_places <= TASKS_PER_WORKER
    assert transport.most_workers <= 2


# ---------------------------------------------------------------------------
# A dispatch that raises costs nothing: no worker, no place, no armed kill
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_unpicklable_task_fails_its_future_typed(kind):
    with make_executor(kind) as executor:
        future = executor.submit("probe", lambda: 1)
        with pytest.raises(StageCrashError, match="could not dispatch") as info:
            future.result(timeout=60)
        assert isinstance(info.value.__cause__,
                          (pickle.PicklingError, AttributeError))
        assert executor.in_flight == 0
        assert executor.submit("probe", add, 40, 2).result(timeout=60) == 42


@pytest.mark.parametrize("kind", KILLABLE_TRANSPORTS)
def test_failed_dispatches_leak_no_worker_and_no_armed_kill(kind):
    workers = 2
    with make_executor(kind, workers=workers) as executor:
        executor.inject_kill("probe")
        window = TASKS_PER_WORKER * workers
        failed = [executor.submit("probe", lambda: 1)
                  for _ in range(window + 1)]  # more than the window
        for future in failed:
            with pytest.raises(StageCrashError, match="could not dispatch"):
                future.result(timeout=60)
        assert executor.in_flight == 0
        assert executor.pending_kills == {"probe": 1}
        assert executor.transport.alive_workers() == workers  # none spawned
        futures = [executor.submit("probe", add, i, 1) for i in range(window)]
        assert [f.result(timeout=60) for f in futures] == list(range(1, window + 1))
        assert executor.kills_delivered == {"probe": 1}
        assert executor.pending_kills == {}


class _RetryCannotBeSent(CountingTransport):
    def send(self, ref, frame):
        if frame.attempt > 1:
            raise RuntimeError("no route to worker")
        return self._inner.send(ref, frame)


def test_a_retry_that_cannot_be_sent_fails_typed_and_spares_the_router():
    transport = _RetryCannotBeSent(make_transport("forked"))
    with TransportStageExecutor(transport, workers=2) as executor:
        executor.inject_kill("screen")
        lost = executor.submit("screen", slow_add, 1, 1, 0.05)
        with pytest.raises(StageCrashError, match="could not dispatch"):
            lost.result(timeout=60)
        assert executor._router.is_alive()
        assert executor.submit("screen", add, 40, 2).result(timeout=60) == 42
