"""Transport-conformance contract suite (PR 9).

One parametrized battery run against every worker transport -- in-process
threads, forked pool slots, and the socket node agent -- asserting the
behaviours the unified stage executor (repro.scp.stages) promises
regardless of substrate: submit/result round trips, typed deterministic
errors, crash retry after a mid-task SIGKILL, typed close-drain, identical
kill-accounting semantics, and zero /dev/shm or spool residue.

The task functions live at module level on purpose: the socket transport's
node agent is a fresh interpreter that unpickles them *by reference*, so
anything a stage runs must be importable -- which is also the executor's
documented determinism contract.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from _process_utils import shm_residue
from repro.scp.registry import BackendSpec
from repro.scp.stages import StageCrashError, StageError, TransportStageExecutor
from repro.scp.transport import transport_for_spec

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


def make_executor(kind, *, workers=2, max_retries=2):
    transport = transport_for_spec(BackendSpec.parse(SPECS[kind]), workers=workers)
    assert transport.kind == {"forked": "forked-process"}.get(kind, kind)
    return TransportStageExecutor(transport, workers=workers,
                                  max_retries=max_retries)


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
            flags[kind] = (executor.supports_kill, executor.uses_processes)
    assert flags == {"inprocess": (False, False), "forked": (True, True),
                     "socket": (True, True)}


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
