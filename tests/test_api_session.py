"""Fusion sessions and the persistent worker pool underneath them."""

import contextlib
import os
import shutil
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from _process_utils import run_pipeline_copied, shm_residue
from repro import fuse, open_session
from repro.api.session import FusionSession
from repro.data.shared import SharedComposite, SharedCube, owned_segment_names
from repro.resilience.attack import AttackScenario
from repro.scp.errors import RuntimeStateError
from repro.scp.pool import ProcessPool, default_start_method
from repro.scp.process_backend import ProcessBackend
from repro.scp.runtime import Application
from repro.scp.serialization import Envelope
from repro.scp.thread import ThreadSpec


def _explode():
    raise RuntimeError("boom")


def _answer():
    return 42


def _receiver_program(ctx):
    from repro.scp.effects import Recv
    envelope = yield Recv(port="data")
    return envelope.payload


def _late_sender_program(ctx, *, target, payload, linger):
    from repro.scp.effects import Send, Sleep
    yield Send(dst=target, port="data", payload=payload)
    yield Sleep(linger)
    return "sent"


def _same_shape_cube(seed):
    """A 12x20x17 HYDICE cube; every seed gives the same byte size."""
    from repro.data.hydice import HydiceConfig, HydiceGenerator

    return HydiceGenerator(HydiceConfig(bands=12, rows=20, cols=17, seed=seed,
                                        vehicles=1, camouflaged_vehicles=0)).generate()


class TestProcessPool:
    def test_ensure_and_reuse(self):
        with ProcessPool() as pool:
            pool.ensure(2)
            assert pool.size == 2 and pool.idle == 2
            assert pool.spawned_processes == 2
            slot = pool.acquire()
            assert pool.idle == 1 and slot.busy
            pool.release(slot)
            assert pool.idle == 2
            # Re-acquiring after release must not spawn anything new.
            pool.acquire()
            assert pool.spawned_processes == 2

    def test_acquire_grows_on_demand(self):
        with ProcessPool() as pool:
            slots = [pool.acquire() for _ in range(3)]
            assert pool.spawned_processes == 3
            assert len({slot.name for slot in slots}) == 3

    def test_discarded_slot_is_not_reused(self):
        with ProcessPool() as pool:
            slot = pool.acquire()
            pool.discard(slot)
            replacement = pool.acquire()
            assert replacement is not slot
            assert pool.spawned_processes == 2

    def test_closed_pool_rejects_acquire(self):
        pool = ProcessPool()
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(RuntimeStateError):
            pool.acquire()


class TestPooledBackendReuse:
    def test_runs_reuse_processes_and_match_sequential(self, tiny_cube, fast_config):
        reference = fuse(tiny_cube, config=fast_config)
        with ProcessPool() as pool:
            for _ in range(3):
                report = fuse(tiny_cube, engine="distributed", config=fast_config,
                              backend=ProcessBackend(pool))
                np.testing.assert_array_equal(report.composite, reference.composite)
                assert report.backend == "process"
            # manager + 2 workers, spawned exactly once for all three runs.
            assert pool.spawned_processes == 3

    def test_backend_instance_is_single_use(self, tiny_cube, fast_config):
        with ProcessPool() as pool:
            backend = ProcessBackend(pool)
            fuse(tiny_cube, engine="distributed", config=fast_config, backend=backend)
            with pytest.raises(RuntimeStateError, match="single use"):
                fuse(tiny_cube, engine="distributed", config=fast_config,
                     backend=backend)

    def test_dead_letters_reach_late_spawned_pool_replicas(self):
        # Regression: envelopes parked for a not-yet-live logical thread are
        # replayed AFTER the pool assignment -- a slot's idle loop discards
        # anything that arrives before its program is attached.
        app = Application(name="pooled-deadletter")
        app.add_thread("sender", _late_sender_program,
                       params={"target": "ghost", "payload": 7, "linger": 1.5})
        with ProcessPool() as pool:
            backend = ProcessBackend(pool)

            spawned = []

            def spawner():
                time.sleep(0.4)
                spec = ThreadSpec(name="ghost", program=_receiver_program)
                spawned.append(backend.spawn_thread(spec, replica=0, incarnation=0))

            threading.Thread(target=spawner, daemon=True).start()
            run = backend.run(app)
            assert spawned == ["ghost#0"]
            assert run.return_of("ghost") == 7

    @pytest.mark.parametrize("pooled", [True, False], ids=["borrowed", "private"])
    def test_kill_between_create_and_start_stays_dead(self, pooled):
        # Regression: spawn_thread creates a replica under the lock and
        # starts it outside, so a kill_thread (attack, camouflage) can land
        # in between.  Starting the replica anyway used to resurrect it:
        # the assignment was put on the discarded slot's closed inbox
        # (ValueError on the spawning thread), the sweep then reported the
        # dead slot as crashed and subscribers saw two deaths.
        app = Application(name="create-kill-start")
        app.add_thread("sender", _late_sender_program,
                       params={"target": "ghost", "payload": 7, "linger": 1.0})
        with (ProcessPool() if pooled else contextlib.nullcontext()) as pool:
            backend = ProcessBackend(pool, start_method=default_start_method(),
                                     crash_policy="record")
            deaths, errors = [], []
            backend.subscribe_thread_death(
                lambda pid, logical, reason: deaths.append((pid, reason)))

            def racer():
                time.sleep(0.4)
                spec = ThreadSpec(name="ghost", program=_receiver_program)
                try:
                    with backend._lock:
                        task = backend._create_task(spec, 0, restored=None,
                                                    incarnation=0)
                    assert backend.kill_thread("ghost#0")
                    backend._start_task(task)
                    # An envelope routed just before the kill is dropped
                    # with the replica, not raised on the router's thread.
                    backend._deliver(task, Envelope(src="sender", dst="ghost",
                                                    port="data", payload=0))
                except Exception as err:  # noqa: BLE001 - reported below
                    errors.append(err)

            thread = threading.Thread(target=racer, daemon=True)
            thread.start()
            run = backend.run(app)
            thread.join(timeout=10)
            assert not thread.is_alive()
            assert errors == []
            assert deaths == [("ghost#0", "killed")]
            assert run.outcomes["ghost#0"].status == "killed"
            assert run.crashed_threads() == []


class TestFusionSession:
    def test_repeated_fusions_reuse_pool_and_placement(self, tiny_cube, fast_config):
        reference = fuse(tiny_cube, config=fast_config)
        with open_session(backend="process", config=fast_config) as session:
            first = session.fuse(tiny_cube)
            spawned_after_first = session.spawned_processes
            second = session.fuse(tiny_cube)
            np.testing.assert_array_equal(first.composite, reference.composite)
            np.testing.assert_array_equal(second.composite, reference.composite)
            # Warm pool: no further spawns, one shared-memory placement.
            assert session.spawned_processes == spawned_after_first
            assert session.cubes_placed == 1
            assert session.runs_completed == 2

    def test_placement_cache_is_bounded_lru(self, tiny_cube, small_cube, fast_config):
        with open_session(backend="process", config=fast_config,
                          max_placements=1) as session:
            session.fuse(tiny_cube)
            first = session._segments.place(tiny_cube)  # a cache hit
            session._segments.release(first)
            # Evicts (and closes) the first placement; a segment of another
            # byte size cannot be reissued, so it is unlinked.
            session.fuse(small_cube)
            assert session.cubes_placed == 1
            assert first.closed
            # The evicted cube simply gets re-placed on the next request.
            report = session.fuse(tiny_cube)
            assert report.composite.shape == (tiny_cube.rows, tiny_cube.cols, 3)

    def test_recycled_placements_serve_replicated_sub_cube_tasks(self, fast_config):
        # Sub-cube tasks name rows of the session's placement, so with one
        # placement every cube of the cycle is copied into the same segment
        # while both replicas of each worker read it; no composite may see
        # another cube's samples, and no segment appears after the first cycle.
        cubes = [_same_shape_cube(seed) for seed in range(3)]
        references = [fuse(cube, engine="sequential", config=fast_config).composite
                      for cube in cubes]
        with open_session(engine="resilient", backend="process:2",
                          config=fast_config, max_placements=1) as session:
            for cycle in range(4):
                for cube, reference in zip(cubes, references):
                    report = session.fuse(cube, replication=2)
                    np.testing.assert_array_equal(report.composite, reference)
                    assert report.metrics.replication_level == 2
                if cycle == 0:
                    segments, residue = set(owned_segment_names()), set(shm_residue())
                else:
                    assert set(owned_segment_names()) <= segments
                    assert set(shm_residue()) <= residue
            assert session.cubes_placed == 1
        assert owned_segment_names() == ()

    def test_max_placements_validated(self):
        with pytest.raises(ValueError, match="max_placements"):
            open_session(backend="process", max_placements=0)

    def test_fuse_many_and_distinct_cubes(self, tiny_cube, small_cube, fast_config):
        with open_session(backend="process", config=fast_config) as session:
            reports = session.fuse_many([tiny_cube, small_cube])
            assert len(reports) == 2
            assert session.cubes_placed == 2
            shapes = [report.composite.shape[:2] for report in reports]
            assert shapes == [(tiny_cube.rows, tiny_cube.cols),
                              (small_cube.rows, small_cube.cols)]

    def test_shared_cube_passthrough(self, tiny_cube, fast_config):
        shared = SharedCube.from_cube(tiny_cube)
        try:
            with open_session(backend="process", config=fast_config) as session:
                session.fuse(shared)
                # Caller-owned placements are used as-is, not cached/owned.
                assert session.cubes_placed == 0
            assert not shared.closed
        finally:
            shared.close()

    def test_per_call_overrides(self, tiny_cube):
        with open_session(backend="process", workers=2, subcubes=4) as session:
            report = session.fuse(tiny_cube, workers=1, subcubes=4)
            assert report.metrics.workers == 1

    def test_engine_and_backend_pinned(self, tiny_cube):
        with open_session(backend="process", workers=2) as session:
            with pytest.raises(ValueError, match="cannot override"):
                session.fuse(tiny_cube, engine="sequential")
            with pytest.raises(ValueError, match="cannot override"):
                session.fuse(tiny_cube, backend="sim")

    def test_unknown_session_option(self):
        with pytest.raises(ValueError, match="unknown session option"):
            open_session(backend="process", bogus=1)

    def test_unknown_engine_fails_fast(self):
        with pytest.raises(ValueError, match="registered engines"):
            open_session(engine="typo")

    def test_closed_session_rejects_fuse(self, tiny_cube):
        session = open_session(backend="process", workers=2, warm=False)
        session.close()
        session.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            session.fuse(tiny_cube)

    def test_sequential_session_runs_inline(self, tiny_cube, fast_config):
        reference = fuse(tiny_cube, config=fast_config)
        with open_session(engine="sequential", config=fast_config) as session:
            report = session.fuse(tiny_cube)
            np.testing.assert_array_equal(report.composite, reference.composite)
            assert session.backend == "inline"
            assert session.spawned_processes == 0

    def test_sim_session_builds_backend_per_run(self, tiny_cube, fast_config):
        with open_session(backend="sim", config=fast_config) as session:
            first = session.fuse(tiny_cube)
            second = session.fuse(tiny_cube)
            assert first.elapsed_seconds == pytest.approx(second.elapsed_seconds)
            assert session.spawned_processes == 0

    def test_resilient_session(self, tiny_cube, fast_config):
        reference = fuse(tiny_cube, config=fast_config)
        with open_session(engine="resilient", backend="process",
                          config=fast_config) as session:
            report = session.fuse(tiny_cube)
            np.testing.assert_array_equal(report.composite, reference.composite)
            assert report.resilience is not None


    @pytest.mark.parametrize("option, value", [
        ("attack", AttackScenario.single_worker_kill("worker.0", at=0.01)),
        ("camouflage_period", 0.2)])
    def test_scripted_faults_rejected_before_anything_is_spawned_or_placed(
            self, tiny_cube, fast_config, option, value):
        with open_session(engine="resilient", backend="process:2",
                          config=fast_config) as session:
            spawned, segments = session.spawned_processes, owned_segment_names()
            with pytest.raises(ValueError, match=rf"{option}=.*'process:2'"):
                session.fuse(tiny_cube, **{option: value})
            assert session.spawned_processes == spawned
            assert owned_segment_names() == segments
            assert session.cubes_placed == 0

    @pytest.mark.parametrize("engine", ["distributed", "resilient"])
    def test_batch_engine_on_socket_fails_at_open(self, engine):
        # Not at the first fuse(), after a cube was already copied into
        # /dev/shm: the socket backend has no SCP program runtime.
        with pytest.raises(ValueError, match="stage-task workers for the "
                                             "streaming pipeline engine only"):
            open_session(engine=engine, backend="socket:2")


_ORPHAN_SCRIPT = """
import multiprocessing, os, sys, time
import repro
from repro.data.hydice import HydiceConfig, HydiceGenerator

def descendants(pid):
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                continue
            if ppid == pid:
                found += [int(entry)] + descendants(int(entry))
    return found

def stuck(ctx):
    from repro.scp.effects import Recv
    yield Recv(port="never")

if __name__ == "__main__":
    if sys.argv[1] == "scp-program":
        # Two replicas blocked mid-program on a one-shot process backend.
        import threading
        from repro.scp.process_backend import ProcessBackend
        from repro.scp.runtime import Application
        app = Application()
        app.add_thread("a", stuck)
        app.add_thread("b", stuck)
        backend = ProcessBackend(start_method="fork")
        threading.Thread(target=backend.run, args=(app,), daemon=True).start()
        while sum(t.status == "running" for t in list(backend._tasks.values())) < 2:
            time.sleep(0.01)
        time.sleep(0.5)
    else:
        cube = HydiceGenerator(HydiceConfig(bands=16, rows=32, cols=32, seed=3)).generate()
        session = repro.open_session(engine="pipeline", backend=sys.argv[1])
        session.fuse(cube)
    tracker = getattr(multiprocessing.resource_tracker._resource_tracker, "_pid", None)
    print(" ".join(str(pid) for pid in descendants(os.getpid()) if pid != tracker),
          flush=True)
    time.sleep(120)
"""


def _alive(pid):
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs procfs")
@pytest.mark.parametrize("backend", ["process:2", "socket:2", "scp-program"])
def test_sigkilled_owner_leaves_no_orphan_workers(tmp_path, backend):
    # SIGKILL gives the owner no chance to close its session or backend; the
    # workers (idle pool slots, the node agent and its slots, replicas
    # blocked mid-program) must notice and exit on their own instead of
    # idling under pid 1 for ever.
    script = tmp_path / "orphan_owner.py"
    script.write_text(_ORPHAN_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in sys.path if p)
    residue_before = set(shm_residue())
    owner = subprocess.Popen([sys.executable, str(script), backend],
                             stdout=subprocess.PIPE, text=True, env=env)
    try:
        workers = [int(pid) for pid in owner.stdout.readline().split()]
        assert len(workers) >= 2
    finally:
        owner.kill()
        owner.wait()
        owner.stdout.close()
    deadline = time.monotonic() + 3.0
    while time.monotonic() < deadline and any(_alive(pid) for pid in workers):
        time.sleep(0.05)
    survivors = [pid for pid in workers if _alive(pid)]
    for pid in survivors:
        os.kill(pid, signal.SIGKILL)
    # The killed owner could not remove what it owned: its resource tracker
    # unlinks the segments once the last worker is gone, the spool directory
    # is swept here.
    while time.monotonic() < deadline + 2.0 and any(
            not name.startswith("scp-stages-")
            for name in set(shm_residue()) - residue_before):
        time.sleep(0.05)
    for name in set(shm_residue()) - residue_before:
        path = os.path.join("/dev/shm", name)
        with contextlib.suppress(FileNotFoundError):  # the tracker got there
            shutil.rmtree(path) if os.path.isdir(path) else os.unlink(path)
    assert survivors == []


class TestStreamingSession:
    """``submit``/``fuse_stream`` and the shared stage executor underneath."""

    def test_pipeline_stream_reuses_slots(self, tiny_cube, small_cube, fast_config):
        reference = [fuse(cube, config=fast_config)
                     for cube in (tiny_cube, small_cube)]
        with open_session(engine="pipeline", backend="process",
                          config=fast_config, max_inflight=2) as session:
            reports = list(session.fuse_stream([tiny_cube, small_cube]))
            spawned = session.spawned_processes
            reports += list(session.fuse_stream([tiny_cube, small_cube]))
            # Warm slots: the second stream spawns nothing new.
            assert session.spawned_processes == spawned
        for report, ref in zip(reports, reference * 2):
            np.testing.assert_array_equal(report.composite, ref.composite)

    def test_submit_returns_futures_in_any_order(self, tiny_cube, fast_config):
        reference = fuse(tiny_cube, config=fast_config)
        with open_session(engine="pipeline", backend="process",
                          config=fast_config, max_inflight=2) as session:
            futures = [session.submit(tiny_cube) for _ in range(3)]
            for future in reversed(futures):
                np.testing.assert_array_equal(future.result().composite,
                                              reference.composite)
            assert session.runs_completed == 3

    def test_non_pipeline_stream_drains_serially(self, tiny_cube, fast_config):
        reference = fuse(tiny_cube, config=fast_config)
        with open_session(engine="distributed", backend="process",
                          config=fast_config) as session:
            for report in session.fuse_stream([tiny_cube, tiny_cube]):
                np.testing.assert_array_equal(report.composite,
                                              reference.composite)

    def test_abandoned_stream_is_drained_on_exit(self, tiny_cube, fast_config):
        # Regression: abandoning a stream mid-flight used to leave pending
        # stage futures and slot inboxes behind, and their queue feeder
        # threads blocked interpreter shutdown; close() must drain them.
        session = open_session(engine="pipeline", backend="process",
                               config=fast_config, max_inflight=2)
        stream = session.fuse_stream([tiny_cube] * 6)
        next(stream)  # start the window, then walk away
        session.close()
        executor = session._stage_executor
        assert executor is not None and executor.closed
        assert executor.in_flight == 0
        assert session.cubes_placed == 0
        with pytest.raises(RuntimeError, match="closed"):
            session.fuse(tiny_cube)

    def test_max_inflight_validated(self, fast_config):
        # At open, before a worker or a segment exists.
        segments = owned_segment_names()
        with pytest.raises(ValueError, match="max_inflight"):
            open_session(engine="pipeline", backend="process", warm=False,
                         config=fast_config, max_inflight=0)
        assert owned_segment_names() == segments

    @pytest.mark.parametrize("engine,backend", [
        ("sequential", None), ("distributed", "sim"), ("pipeline", "local")])
    def test_empty_batches_are_consistent_across_engines(self, engine, backend):
        # fuse_many([]) and fuse_stream(iter([])) return empty results on
        # every engine, without spinning up any streaming machinery.
        with open_session(engine=engine, backend=backend, workers=2,
                          warm=False) as session:
            assert session.fuse_many([]) == []
            assert list(session.fuse_stream(iter([]))) == []
            assert session.runs_completed == 0
            assert session._drivers is None  # no driver threads were built

    def test_empty_batches_still_validate_eagerly(self, tiny_cube):
        session = open_session(engine="pipeline", backend="process", warm=False)
        with pytest.raises(ValueError, match="cannot override"):
            session.fuse_many([], engine="sequential")
        # fuse_stream validates at call time, not at the first next().
        with pytest.raises(ValueError, match="cannot override"):
            session.fuse_stream([tiny_cube], engine="sequential")
        session.close()
        with pytest.raises(RuntimeError, match="closed"):
            session.fuse_many([])
        with pytest.raises(RuntimeError, match="closed"):
            session.fuse_stream(iter([]))

    def test_stream_is_bit_identical_and_reuses_placements(
            self, tiny_cube, fast_config):
        reference = fuse(tiny_cube, config=fast_config)
        with open_session(engine="pipeline", backend="process",
                          config=fast_config, max_inflight=2) as session:
            reports = list(session.fuse_stream([tiny_cube] * 4))
            for report in reports:
                np.testing.assert_array_equal(report.composite,
                                              reference.composite)
            # The output placements were served by the bounded session pool
            # (streams of one shape never allocate per run)...
            assert 1 <= session._segments.held(SharedComposite) <= 2
            assert session.cubes_placed == 1
        # ... and the session close released every segment it owned.
        from repro.data.shared import owned_segment_names
        assert owned_segment_names() == ()

    def test_churned_cubes_reuse_segments_and_stay_bit_identical(
            self, fast_config):
        # Twelve distinct cubes of one shape cycled through the default
        # 8-entry placement cache: after the first cycle every request
        # misses, and each miss copies the cube into a recycled segment --
        # no new segment appears, where creating one per miss would add one
        # per request.
        cubes = [_same_shape_cube(seed) for seed in range(12)]
        references = [fuse(cube, engine="sequential", config=fast_config).composite
                      for cube in cubes]
        with open_session(engine="pipeline", backend="process:2",
                          config=fast_config, max_inflight=4) as session:
            # Fill the output window up front, so a stream that happens to
            # reach four in-flight runs late cannot look like churn.
            outputs = [session._segments.acquire(20, 17, 3) for _ in range(4)]
            for placement in outputs:
                session._segments.release(placement)
            for index, report in enumerate(session.fuse_stream(cubes * 10)):
                np.testing.assert_array_equal(report.composite,
                                              references[index % len(cubes)])
                if index == len(cubes) - 1:
                    segments = set(owned_segment_names())
                elif index >= len(cubes):
                    assert set(owned_segment_names()) <= segments
            assert session.cubes_placed == FusionSession.DEFAULT_MAX_PLACEMENTS
        assert owned_segment_names() == ()

    @pytest.mark.flaky(reruns=2)
    def test_a_failed_runs_cube_segment_is_reused_safely(self, fast_config):
        # The failed run releases its cube placement, so the next cube of
        # its size is copied into that segment; the run's output placement
        # is discarded, so nothing it wrote can reach the next composite.
        from repro.scp.stages import StageCrashError

        failed, following = _same_shape_cube(0), _same_shape_cube(1)
        reference = fuse(following, engine="sequential", config=fast_config)
        with open_session(engine="pipeline", backend="process:2",
                          config=fast_config, max_placements=1) as session:
            pool = session._segments
            session.fuse(failed)
            placement, output = pool.place(failed), pool.acquire(20, 17, 3)
            cube_segment, output_segment = placement.segment_name, output.segment_name
            pool.release(placement)
            pool.release(output)  # the failed run borrows this segment again
            session.stage_executor().inject_kill("covariance", kills=3)
            with pytest.raises(StageCrashError):
                session.fuse(failed)
            assert pool.held(SharedComposite) == 0
            assert output_segment not in owned_segment_names()
            report = session.fuse(following)
            placement = pool.place(following)
            assert placement.segment_name == cube_segment
            pool.release(placement)
            np.testing.assert_array_equal(report.composite, reference.composite)
        assert owned_segment_names() == ()

    def test_thread_session_leaves_no_placement_behind(self, fast_config):
        # Thread transports write through the same output placements as
        # process ones, so a local session owns segments -- bounded by its
        # stream window while open, none and no mapping of them after close.
        from repro.data.hydice import HydiceConfig, HydiceGenerator
        from repro.data.shared import release_attachments

        cubes = [HydiceGenerator(HydiceConfig(
            bands=12, rows=rows, cols=17, seed=rows, vehicles=1,
            camouflaged_vehicles=0)).generate() for rows in range(20, 25)]
        release_attachments()  # start from an empty attachment cache
        session = open_session(engine="pipeline", backend="local:2",
                               config=fast_config, max_inflight=2)
        try:
            for cube, report in zip(cubes, session.fuse_stream(cubes)):
                assert len(owned_segment_names()) <= 2
                reference = fuse(cube, config=fast_config)
                np.testing.assert_array_equal(report.composite,
                                              reference.composite)
            assert 1 <= len(owned_segment_names()) <= 2
        finally:
            session.close()
        assert owned_segment_names() == ()
        assert release_attachments() == 0

    def test_pipeline_session_rejects_resilience_options(self, tiny_cube,
                                                         fast_config):
        # Rejected before placement: a bad option costs no copy of the cube
        # into shared memory, on the pipeline engine as on the others.
        with open_session(engine="pipeline", backend="process:2",
                          config=fast_config, warm=False) as session:
            segments = owned_segment_names()
            with pytest.raises(ValueError, match="replication"):
                session.fuse(tiny_cube, replication=3)
            with pytest.raises(ValueError, match="camouflage"):
                session.fuse(tiny_cube, camouflage_period=1.0)
            assert session.cubes_placed == 0
            assert owned_segment_names() == segments

    def test_max_inflight_rejected_outside_pipeline_streams(self, tiny_cube):
        # Inert knobs fail loudly: a serial session cannot honour it, and a
        # one-shot run has no stream for it to schedule.
        with pytest.raises(ValueError, match="max_inflight"):
            open_session(engine="distributed", backend="process", warm=False,
                         max_inflight=2)
        with pytest.raises(ValueError, match="max_inflight"):
            fuse(tiny_cube, max_inflight=8)
        with pytest.raises(ValueError, match="max_inflight"):
            fuse(tiny_cube, engine="pipeline", backend="local", max_inflight=8)

    def test_max_inflight_is_fixed_at_open(self, tiny_cube, fast_config):
        # One value sizes the driver threads and the output pool, so no call
        # may ask for another: loud, not a silent cap.
        with open_session(engine="pipeline", backend="process",
                          config=fast_config, max_inflight=1) as session:
            for call in (session.fuse, session.submit, session.fuse_stream):
                with pytest.raises(ValueError, match="cannot override"):
                    call(tiny_cube, max_inflight=8)
            assert session._drivers is None  # rejected before any was built
            reference = fuse(tiny_cube, config=fast_config)
            (report,) = session.fuse_stream([tiny_cube])
            np.testing.assert_array_equal(report.composite, reference.composite)
            assert session._segments.held(SharedComposite) == 1

    def test_thread_executor_close_rejects_submits_with_typed_error(self):
        from repro.scp.stages import StageError, TransportStageExecutor
        from repro.scp.transport import InProcessTransport

        executor = TransportStageExecutor(InProcessTransport(workers=1), workers=1)
        blocker = executor.submit("screen", time.sleep, 0.5)
        closer = threading.Thread(target=executor.close)
        closer.start()  # blocks on the running task; the flag is set first
        time.sleep(0.05)
        with pytest.raises(StageError, match="project"):
            executor.submit("project", time.sleep, 0.0)
        closer.join()
        assert blocker.result(timeout=5) is None
        assert executor.closed


class TestPipelineCrashMatrix:
    """SIGKILL a pool slot mid-stage, for every pipeline stage.

    The stream must either complete with a bit-identical composite after
    the slot respawn (retry budget available) or raise a clean typed error
    (budget exhausted) -- never hang.  ``inject_kill`` delivers a real
    SIGKILL to the slot process right after the task assignment, the same
    observable failure as an OOM kill or node loss mid-computation.
    """

    STAGES = ["screen", "covariance", "project"]

    @pytest.mark.flaky(reruns=2)
    @pytest.mark.parametrize("stage", STAGES)
    def test_stream_survives_slot_kill_bit_identically(self, tiny_cube,
                                                       fast_config, stage):
        # Both result paths survive the kill: the project stage re-writes
        # its (disjoint, deterministic) rows into the output placement on
        # retry, the screen and covariance stages re-pickle their result
        # through the spool.
        reference = fuse(tiny_cube, config=fast_config)
        with open_session(engine="pipeline", backend="process",
                          config=fast_config) as session:
            executor = session._stage_runtime()
            executor.inject_kill(stage)
            report = session.fuse(tiny_cube)
            assert executor.retries >= 1
            np.testing.assert_array_equal(report.composite, reference.composite)

    @pytest.mark.flaky(reruns=2)
    @pytest.mark.parametrize("stage", STAGES)
    def test_exhausted_retry_budget_raises_typed_error(self, tiny_cube,
                                                       fast_config, stage):
        from repro.scp.stages import StageCrashError, TransportStageExecutor
        from repro.scp.transport import ForkedProcessTransport

        with ProcessPool() as pool:
            with TransportStageExecutor(ForkedProcessTransport(pool), workers=2,
                                        max_retries=0) as executor:
                executor.inject_kill(stage, kills=8)
                with pytest.raises(StageCrashError, match=stage):
                    run_pipeline_copied(tiny_cube, fast_config, executor)

    def test_deterministic_stage_errors_are_not_retried(self):
        from repro.scp.stages import StageError, TransportStageExecutor
        from repro.scp.transport import ForkedProcessTransport

        with ProcessPool() as pool:
            with TransportStageExecutor(ForkedProcessTransport(pool),
                                        workers=1) as executor:
                future = executor.submit("screen", _explode)
                with pytest.raises(StageError, match="screen"):
                    future.result(timeout=30)
                assert executor.retries == 0
                # The slot survived its task's exception and is reusable.
                assert executor.submit("screen", _answer).result(timeout=30) == 42
