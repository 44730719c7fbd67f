"""ProcessBackend: generic runtime behaviour on real OS processes.

The thread programs used here live at module level so they stay picklable
under the ``spawn`` start method.  Most tests use ``fork`` where the platform
offers it -- an order of magnitude faster to start -- and one test explicitly
exercises the portable ``spawn`` path.
"""

import glob
import multiprocessing.connection
import os
import shutil
import signal
import tempfile
import threading
import time

import numpy as np
import pytest

from _process_utils import FAST_START, fast_backend, shm_residue
from repro.data.shared import SharedCube
from repro.scp.effects import Compute, Recv, Send, Sleep
from repro.scp.errors import (ReceiveTimeout, RuntimeStateError, SCPError,
                              ThreadCrashedError)
from repro.scp.pool import _ASSIGN, ProcessPool
from repro.scp.process_backend import ProcessBackend, _ProcessTask
from repro.scp.runtime import Application
from repro.scp.serialization import collect_spool, spool_root
from repro.scp.thread import ThreadSpec


# ---------------------------------------------------------------------------
# module-level thread programs (picklable under spawn)
# ---------------------------------------------------------------------------

def ping_program(ctx, *, peer, rounds):
    received = []
    for i in range(rounds):
        yield Send(dst=peer, port="ping", payload=i)
        envelope = yield Recv(port="pong")
        received.append(envelope.payload)
    return received


def pong_program(ctx, *, peer, rounds):
    for _ in range(rounds):
        envelope = yield Recv(port="ping")
        yield Send(dst=peer, port="pong", payload=envelope.payload * 10)
    return "pong-done"


def adder_program(ctx, *, values):
    total = yield Compute(fn=sum, args=(values,), phase="adding")
    return total


def crasher_program(ctx):
    yield Sleep(0.01)
    raise ValueError("boom")


def patient_program(ctx):
    try:
        yield Recv(port="never", timeout=0.05)
    except ReceiveTimeout:
        return "timed_out"
    return "received"


def receiver_program(ctx):
    envelope = yield Recv(port="data")
    return envelope.payload


def late_sender_program(ctx, *, target, delay, payload, linger=0.0):
    yield Sleep(delay)
    yield Send(dst=target, port="data", payload=payload)
    if linger:
        yield Sleep(linger)
    return "sent"


def idler_program(ctx):
    yield Recv(port="nothing-ever-comes")
    return "woke"


def cube_sum_program(ctx, *, cube):
    checksum = yield Compute(fn=lambda c: float(c.data.sum()), args=(cube,),
                             phase="checksum")
    return {"type": type(cube).__name__, "sum": checksum}


def big_sender_program(ctx, *, target, megabytes):
    yield Send(dst=target, port="data",
               payload=np.zeros(megabytes << 17, dtype=np.float64))
    yield Sleep(30.0)
    return "sent"


def lingering_program(ctx, *, seconds, value):
    yield Sleep(seconds)
    return value


def burst_sender_program(ctx, *, target, count):
    for i in range(count):
        yield Send(dst=target, port="data", payload=i)
    return "sent"


def burst_receiver_program(ctx, *, count):
    received = []
    for _ in range(count):
        envelope = yield Recv(port="data")
        received.append(envelope.payload)
    return received


def unpicklable_result_program(ctx):
    yield Sleep(0.0)
    return lambda: None


def unpicklable_payload_program(ctx, *, target):
    yield Send(dst=target, port="data", payload=lambda: None)
    return "sent"


def chatter_program(ctx):
    while True:
        yield Send(dst="nobody", port="noise", payload="stale")
        yield Sleep(0.001)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

def test_ping_pong_roundtrip():
    app = Application(name="pingpong")
    app.add_thread("ping", ping_program, params={"peer": "pong", "rounds": 3})
    app.add_thread("pong", pong_program, params={"peer": "ping", "rounds": 3})
    run = fast_backend().run(app)
    assert run.return_of("ping") == [0, 10, 20]
    assert run.return_of("pong") == "pong-done"
    assert run.metrics.backend == "process"
    assert run.metrics.messages >= 6
    assert run.metrics.bytes_sent > 0
    assert run.elapsed_seconds > 0


def test_compute_records_phase_metrics():
    app = Application(name="adder")
    app.add_thread("adder", adder_program, params={"values": [1, 2, 3, 4]})
    run = fast_backend().run(app)
    assert run.return_of("adder") == 10
    assert "adding" in run.metrics.phase_seconds
    assert run.metrics.phase_invocations["adding"] == 1


def test_program_crash_raises_thread_crashed_error():
    app = Application(name="crash")
    app.add_thread("crasher", crasher_program)
    with pytest.raises(ThreadCrashedError):
        fast_backend().run(app)


def test_program_crash_recorded_under_record_policy():
    app = Application(name="crash")
    app.add_thread("crasher", crasher_program)
    run = fast_backend(crash_policy="record").run(app)
    assert run.crashed_threads() == ["crasher#0"]
    assert "boom" in run.outcomes["crasher#0"].error


def test_receive_timeout_is_catchable_inside_programs():
    app = Application(name="patient")
    app.add_thread("patient", patient_program)
    run = fast_backend().run(app)
    assert run.return_of("patient") == "timed_out"


def test_until_thread_shuts_down_stragglers():
    app = Application(name="untilthread")
    app.add_thread("main", adder_program, params={"values": [1, 1]})
    app.add_thread("idler", idler_program)
    backend = fast_backend(shutdown_grace=0.2)
    run = backend.run(app, until_thread="main")
    assert run.return_of("main") == 2
    assert run.outcomes["idler#0"].status == "killed"


def test_backends_are_single_use():
    app = Application(name="once")
    app.add_thread("adder", adder_program, params={"values": [1]})
    backend = fast_backend()
    backend.run(app)
    with pytest.raises(RuntimeStateError):
        backend.run(app)


def test_cube_params_are_shared_not_pickled(tiny_cube):
    app = Application(name="cube")
    app.add_thread("summer", cube_sum_program, params={"cube": tiny_cube})
    run = fast_backend().run(app)
    result = run.return_of("summer")
    assert result["type"] == "SharedCube"
    assert result["sum"] == pytest.approx(float(tiny_cube.data.sum()))


def test_cube_param_uses_existing_segment_when_already_shared(tiny_cube):
    with SharedCube.from_cube(tiny_cube) as shared:
        app = Application(name="cube")
        app.add_thread("summer", cube_sum_program, params={"cube": shared})
        run = fast_backend().run(app)
        assert run.return_of("summer")["sum"] == pytest.approx(float(shared.data.sum()))
        assert not shared.closed  # the backend must not close foreign segments


def test_a_plain_cube_reaches_the_manager_as_a_shared_cube(small_cube, monkeypatch):
    # A standalone backend places a plain cube itself, so the manager's
    # sub-cube tasks name rows of a SharedCube; a plain cube there would make
    # every task pickle the whole cube.
    from repro import fuse
    from repro.config import FusionConfig, PartitionConfig
    from repro.core.distributed import MANAGER_NAME, build_application
    from repro.core.messages import TaskAssignment

    routed = []
    route = ProcessBackend._route

    def spy(self, envelope):
        task = envelope.payload
        if isinstance(task, TaskAssignment) and "cube" in task.data:
            routed.append(type(task.data["cube"]))
        route(self, envelope)

    monkeypatch.setattr(ProcessBackend, "_route", spy)
    config = FusionConfig(partition=PartitionConfig(workers=2, subcubes=4))
    assert not isinstance(small_cube, SharedCube)
    run = fast_backend().run(build_application(small_cube, config),
                             until_thread=MANAGER_NAME)
    sequential = fuse(small_cube, engine="sequential", config=config)
    np.testing.assert_array_equal(run.return_of(MANAGER_NAME).composite,
                                  sequential.composite)
    assert len(routed) >= 8  # 4 screen + 4 transform tasks
    assert set(routed) == {SharedCube}
    assert shm_residue() == []


def test_kill_and_regenerate_replica():
    app = Application(name="regen")
    app.add_thread("receiver", receiver_program)
    app.add_thread("sender", late_sender_program,
                   params={"target": "receiver", "delay": 1.0, "payload": 42})
    backend = fast_backend()

    regenerated = []

    def on_death(pid, logical, reason):
        if logical == "receiver" and not regenerated:
            new_pid = backend.spawn_thread(app.spec(logical), replica=1,
                                           restored=None, incarnation=1)
            regenerated.append(new_pid)

    backend.subscribe_thread_death(on_death)

    def killer():
        while not backend.live_replicas("receiver"):
            time.sleep(0.01)
        time.sleep(0.2)
        backend.kill_thread("receiver#0")

    threading.Thread(target=killer, daemon=True).start()
    run = backend.run(app)

    assert regenerated == ["receiver#1"]
    assert run.outcomes["receiver#0"].status == "killed"
    assert run.outcomes["receiver#1"].status == "finished"
    assert run.return_of("receiver") == 42
    assert run.metrics.failures_injected == 1
    assert run.metrics.replicas_regenerated == 1


def test_dead_letters_are_delivered_to_late_spawned_threads():
    # The sender addresses a logical name that has no live replica yet; the
    # parked message must reach the replica spawned afterwards.
    app = Application(name="deadletter")
    # The sender lingers so the run is still in progress when the late
    # replica is spawned and handed the parked message.
    app.add_thread("sender", late_sender_program,
                   params={"target": "ghost", "delay": 0.0, "payload": 7,
                           "linger": 1.5})
    backend = fast_backend()

    spawned = []

    def spawner():
        time.sleep(0.4)
        from repro.scp.thread import ThreadSpec
        spec = ThreadSpec(name="ghost", program=receiver_program)
        spawned.append(backend.spawn_thread(spec, replica=0, incarnation=0))

    threading.Thread(target=spawner, daemon=True).start()
    run = backend.run(app)
    assert spawned == ["ghost#0"]
    assert run.return_of("ghost") == 7


@pytest.mark.slow
def test_spawn_start_method_roundtrip():
    app = Application(name="spawned")
    app.add_thread("ping", ping_program, params={"peer": "pong", "rounds": 2})
    app.add_thread("pong", pong_program, params={"peer": "ping", "rounds": 2})
    run = ProcessBackend(start_method="spawn").run(app)
    assert run.return_of("ping") == [0, 10]


def test_run_timeout_kills_stuck_processes():
    app = Application(name="stuck")
    app.add_thread("idler", idler_program)
    backend = fast_backend()
    start = time.perf_counter()
    with pytest.raises(SCPError, match="timed out"):
        backend.run(app, timeout=1.0)
    assert time.perf_counter() - start < 20.0


def test_cube_sum_program_is_a_generator(tiny_cube):
    # Guard against accidentally turning a program into a plain function.
    gen = cube_sum_program(None, cube=tiny_cube)
    effect = next(gen)
    assert isinstance(effect, Compute)
    gen.close()


# ---------------------------------------------------------------------------
# the kill-safe result path: records travel through the run's spool
# ---------------------------------------------------------------------------

def _kill_once(backend, physical_id, trigger, killed):
    """SIGKILL ``physical_id``'s process the first time ``trigger(task)``
    holds; appends ``(pid, time.monotonic())`` to ``killed``."""
    def killer():
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            task = backend._tasks.get(physical_id)
            if task is not None and task.status == "running" and trigger(task):
                killed.append((task.slot.process.pid, time.monotonic()))
                os.kill(task.slot.process.pid, signal.SIGKILL)
                return
            time.sleep(0.001)
    threading.Thread(target=killer, daemon=True).start()


def _partial_commit_in(backend):
    return lambda task: bool(glob.glob(os.path.join(backend._spool, "*.tmp")))


@pytest.mark.flaky(reruns=2)
def test_a_kill_in_the_middle_of_a_report_wedges_nobody():
    """A replica SIGKILLed while it writes a 64 MiB ``Send`` costs the run
    that replica and nothing else.

    At the parent commit every record went through one queue written by all
    children, and the pipe-write variant of this kill hangs the run for ever
    -- no bystander result, no timeout error: ``ProcessBackend(start_method=
    "fork", crash_policy="record", default_timeout=12)``, a victim sending a
    256 MiB array and a bystander returning 7 after 1 s, ``run(app,
    until_thread="bystander")``, SIGKILL the victim 50 ms after one of its
    ``/proc/<pid>/task/*/wchan`` reads ``anon_pipe_write``.
    """
    before = set(shm_residue())
    app = Application(name="mid-report")
    app.add_thread("victim", big_sender_program,
                   params={"target": "bystander", "megabytes": 64})
    app.add_thread("bystander", lingering_program,
                   params={"seconds": 1.0, "value": 7})
    deaths, killed = [], []
    with ProcessPool() as pool:
        backend = ProcessBackend(pool, crash_policy="record", default_timeout=12.0)
        partials_at_death = []

        def on_death(*args):
            deaths.append(args)
            partials_at_death.append(_partial_commit_in(backend)(None))

        backend.subscribe_thread_death(on_death)
        _kill_once(backend, "victim#0", _partial_commit_in(backend), killed)
        started = time.monotonic()
        run = backend.run(app, until_thread="bystander")
        assert time.monotonic() - started < 10.0
        assert killed, "never saw a partial commit to kill into"
        assert run.return_of("bystander") == 7
        assert run.outcomes["victim#0"].status == "crashed"
        assert "died without reporting" in run.outcomes["victim#0"].error
        assert deaths == [("victim#0", "victim", "crashed")]
        # Reaping the victim removed its partial from the still-live spool.
        assert partials_at_death == [False]
        assert pool.size == pool.idle == 1  # the victim's slot is gone
    assert set(shm_residue()) - before == set()


def _stall_in_the_result_of(physical_id, monkeypatch):
    """Make ``physical_id`` stop half-way through writing its first result
    message (fork only: the children inherit the patched commit)."""
    import pickle

    from repro.core.messages import PORT_RESULT
    from repro.scp import process_backend

    commit = process_backend.commit_spool_file

    def stalling_commit(spool_dir, name, payload):
        record = pickle.loads(payload)
        if (record[0] == "send" and record[1].port == PORT_RESULT
                and record[1].src_physical == physical_id):
            with open(os.path.join(spool_dir, name + ".tmp"), "wb") as fh:
                fh.write(payload[:len(payload) // 2])
            time.sleep(30.0)  # SIGKILLed here
        commit(spool_dir, name, payload)

    monkeypatch.setattr(process_backend, "commit_spool_file", stalling_commit)


@pytest.mark.flaky(reruns=2)
def test_a_worker_replica_killed_mid_result_is_regenerated(small_cube, monkeypatch):
    """The same kill through ``repro.fuse``: ``resilient`` x ``process`` at
    replication 2, one worker replica SIGKILLed half-way through committing
    its first result -- the shadow's copy carries the request, the replica is
    regenerated once and the composite is the sequential one bit for bit."""
    from repro import fuse
    from repro.config import FusionConfig, PartitionConfig, ResilienceConfig

    if FAST_START != "fork":
        pytest.skip("fork start method unavailable")
    config = FusionConfig(partition=PartitionConfig(workers=2, subcubes=8)
                          ).with_resilience(ResilienceConfig(replication_level=2))
    sequential = fuse(small_cube, engine="sequential", config=config)
    _stall_in_the_result_of("worker.0#0", monkeypatch)
    backend = fast_backend(shutdown_grace=0.5)
    killed = []
    _kill_once(backend, "worker.0#0", _partial_commit_in(backend), killed)
    report = fuse(small_cube, engine="resilient", config=config, backend=backend)
    assert killed
    np.testing.assert_array_equal(report.composite, sequential.composite)
    assert report.run.outcomes["worker.0#0"].status == "crashed"
    assert report.replicas_regenerated == 1
    assert shm_residue() == []


@pytest.mark.parametrize("program,params", [
    (unpicklable_result_program, {}),
    (unpicklable_payload_program, {"target": "sink"}),
], ids=["result", "payload"])
def test_an_unpicklable_record_is_a_typed_crash_at_once(program, params):
    """What pickle refuses is reported as the replica's crash, at once -- not
    lost in a queue feeder thread while the run stalls to ``default_timeout``
    -- and the slot is back in its idle loop, reusable."""
    def app():
        application = Application(name="unpicklable")
        application.add_thread("culprit", program, params=params)
        return application

    with ProcessPool() as pool:
        started = time.monotonic()
        run = ProcessBackend(pool, crash_policy="record",
                             default_timeout=5.0).run(app())
        assert time.monotonic() - started < 1.0
        assert run.outcomes["culprit#0"].status == "crashed"
        assert "pickle" in run.outcomes["culprit#0"].error.lower()
        with pytest.raises(ThreadCrashedError, match="(?i)pickle"):
            ProcessBackend(pool, default_timeout=5.0).run(app())
        assert pool.idle == 1 and pool.spawned_processes == 1


@pytest.mark.flaky(reruns=2)
def test_a_reaped_replica_is_declared_crashed_without_a_timed_window():
    """The process sentinel ends the parent's wait and a reaped process can
    commit nothing more: one scan, then the death callback (the parent commit
    waited out 0.25 s plus a 20 ms tick)."""
    app = Application(name="reaped")
    app.add_thread("victim", idler_program)
    app.add_thread("bystander", lingering_program,
                   params={"seconds": 0.8, "value": 7})
    backend = fast_backend(crash_policy="record")
    announced, killed = [], []
    backend.subscribe_thread_death(lambda *args: announced.append(time.monotonic()))
    born = time.monotonic()
    _kill_once(backend, "victim#0", lambda task: time.monotonic() - born > 0.3, killed)
    run = backend.run(app, until_thread="bystander")
    assert run.outcomes["victim#0"].status == "crashed"
    assert len(announced) == 1
    assert announced[0] - killed[0][1] < 0.15


def test_records_are_handled_in_commit_order_whatever_the_scan_lists(monkeypatch):
    """A directory listing may show a replica's record n+1 and miss n, renamed
    a moment earlier: the parent must hold n+1 back (a manager's ``finished``
    overtaking its own ``StopWork`` sends would strand the workers)."""
    listdir = os.listdir
    missed = []

    def racing_listdir(path):
        if "scp-stages-" not in str(path):
            return listdir(path)
        time.sleep(0.01)  # let the burst pile up
        names = sorted(listdir(path), reverse=True)
        burst = sorted((name for name in names if name.startswith("0-")),
                       key=lambda name: int(name[2:].split(".")[0]))
        if len(burst) > 1 and burst[0] not in missed:
            missed.append(burst[0])  # listed by the next scan only
            names.remove(burst[0])
        return names

    monkeypatch.setattr(os, "listdir", racing_listdir)
    app = Application(name="ordered")
    app.add_thread("source", burst_sender_program,  # launched first: uid 0
                   params={"target": "sink", "count": 40})
    app.add_thread("sink", burst_receiver_program, params={"count": 40})
    run = fast_backend().run(app)
    assert missed, "the listing never raced a commit"
    assert run.return_of("sink") == list(range(40))


def test_a_straggler_survives_its_spool_being_removed():
    """A replica still reporting after its run's cleanup removed the spool
    falls back to the slot's idle loop -- no traceback, no dead slot."""
    gone = os.path.join(os.sep, "nonexistent", "scp-stages-gone")
    spool = tempfile.mkdtemp(prefix="scp-stages-", dir=spool_root())
    try:
        with ProcessPool(warm=1) as pool:
            slot = pool.acquire()
            for spool_dir in (gone, spool):
                slot.inbox.put((_ASSIGN, "adder", 0, "adder#0", "adder#0",
                                adder_program, {"values": [1, 2]}, None, 0,
                                time.monotonic(), spool_dir, 0))
            deadline = time.monotonic() + 10.0
            records = []
            while len(records) < 2 and time.monotonic() < deadline:
                records += collect_spool(spool)
                time.sleep(0.01)
            assert slot.alive
            assert sorted((r.attempt, r.value[0]) for r in records) == [
                (0, "phase"), (1, "finished")]
    finally:
        shutil.rmtree(spool, ignore_errors=True)


@pytest.mark.parametrize("doorbell", [True, False], ids=["fifo", "no-fifo"])
def test_liveness_comes_from_the_sentinels_alone(doorbell, monkeypatch):
    """A wake with no sentinel fired asks no process for its exit status (no
    ``waitpid``), and a death is seen, by the zero-timeout final pump too,
    with or without the commit doorbell."""
    def no_fifos(path, *args, **kwargs):
        raise OSError(1, "Operation not permitted", path)

    if not doorbell:
        monkeypatch.setattr(os, "mkfifo", no_fifos)
    with ProcessPool(start_method=FAST_START, warm=1) as pool:
        backend = ProcessBackend(pool, crash_policy="record")
        backend._prepare_run()
        slot = pool.acquire()
        task = _ProcessTask(ThreadSpec(name="idle", program=idler_program), 0,
                            "idle#0", 0, slot, None, 0)
        task.status = "running"
        backend._tasks[task.physical_id] = task
        backend._vehicles.append(task)
        try:
            waitpid, calls = os.waitpid, []
            monkeypatch.setattr(os, "waitpid",
                                lambda *args: calls.append(args) or waitpid(*args))
            assert backend._pump(0.05) == 0
            backend._pump(0.0)
            assert calls == [] and task.status == "running"
            monkeypatch.setattr(os, "waitpid", waitpid)
            os.kill(slot.process.pid, signal.SIGKILL)
            multiprocessing.connection.wait([slot.process.sentinel])
            backend._pump(0.0)
            assert task.status == "crashed"
            assert "exit code -9" in task.error
        finally:
            pool.discard(slot)
            backend._doorbell.close()
            shutil.rmtree(backend._spool, ignore_errors=True)


def test_no_doorbell_degrades_to_a_timed_scan(tiny_cube, monkeypatch):
    from repro import fuse
    from repro.config import FusionConfig, PartitionConfig

    def no_fifos(path, *args, **kwargs):
        raise OSError(1, "Operation not permitted", path)

    monkeypatch.setattr(os, "mkfifo", no_fifos)
    config = FusionConfig(partition=PartitionConfig(workers=2, subcubes=4))
    report = fuse(tiny_cube, engine="distributed", config=config,
                  backend=fast_backend())
    sequential = fuse(tiny_cube, engine="sequential", config=config)
    np.testing.assert_array_equal(report.composite, sequential.composite)


def test_back_to_back_runs_on_one_pool_see_none_of_each_others_records():
    first = Application(name="first")
    first.add_thread("main", lingering_program, params={"seconds": 0.2, "value": 1})
    first.add_thread("chatter", chatter_program)
    second = Application(name="second")
    second.add_thread("ping", ping_program, params={"peer": "pong", "rounds": 3})
    second.add_thread("pong", pong_program, params={"peer": "ping", "rounds": 3})
    with ProcessPool() as pool:
        backend = ProcessBackend(pool, shutdown_grace=0.1, default_timeout=60.0)
        assert backend.run(first, until_thread="main").return_of("main") == 1
        assert backend.collector.count("dead_lettered") > 0
        assert not os.path.exists(backend._spool)
        backend = ProcessBackend(pool, default_timeout=60.0)
        run = backend.run(second)
        assert run.return_of("ping") == [0, 10, 20]
        assert run.metrics.messages == 6
        assert backend.collector.count("dead_lettered") == 0


def test_the_pool_builds_one_queue_per_slot_and_nothing_else(monkeypatch):
    """The inbox -- parent-written, slot-read -- is the only queue there is:
    no ``outbox`` every child writes."""
    with ProcessPool() as pool:
        built = []
        queue = pool._ctx.Queue
        monkeypatch.setattr(pool._ctx, "Queue",
                            lambda *args, **kwargs: built.append(1) or queue(*args, **kwargs))
        pool.ensure(3)
        assert len(built) == 3
        assert not hasattr(pool, "outbox")
