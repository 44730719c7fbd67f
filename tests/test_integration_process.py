"""Integration: the process backend on the full fusion application.

The contract is the same as for the other backends -- the composite must be
*bit-identical* to the sequential reference -- plus the process-specific
guarantees: measured (not modelled) per-phase timings, crash detection of
real worker processes, and regeneration of killed workers as new processes.
"""

import threading
import time

import numpy as np
import pytest

from _process_utils import fast_backend, shm_residue
from repro import fuse
from repro.config import FusionConfig, PartitionConfig, ResilienceConfig
from repro.core.distributed import MANAGER_NAME, build_application
from repro.core.pipeline import SpectralScreeningPCT


def make_config(workers=2, subcubes=4):
    return FusionConfig(partition=PartitionConfig(workers=workers, subcubes=subcubes))


def test_matches_sequential_reference_exactly(tiny_cube):
    config = make_config(workers=2, subcubes=4)
    sequential = SpectralScreeningPCT(config).fuse(tiny_cube)
    outcome = fuse(tiny_cube, engine="distributed", config=config, backend=fast_backend())
    np.testing.assert_array_equal(outcome.result.composite, sequential.composite)
    np.testing.assert_array_equal(outcome.result.components, sequential.components)
    assert outcome.result.unique_set_size == sequential.unique_set_size


@pytest.mark.slow
def test_matches_every_other_backend(small_cube):
    config = make_config(workers=3, subcubes=6)
    sequential = SpectralScreeningPCT(config).fuse(small_cube)
    for backend in ("sim", "local", fast_backend()):
        outcome = fuse(small_cube, engine="distributed", config=config, backend=backend)
        np.testing.assert_array_equal(outcome.result.composite, sequential.composite)
        np.testing.assert_array_equal(outcome.result.components, sequential.components)


def test_measured_metrics_are_wall_clock(tiny_cube):
    config = make_config(workers=2, subcubes=4)
    outcome = fuse(tiny_cube, engine="distributed", config=config, backend=fast_backend())
    metrics = outcome.metrics
    assert metrics.backend == "process"
    assert metrics.workers == 2
    assert metrics.elapsed_seconds > 0
    # Measured compute phases of the distributed algorithm are all present.
    for phase in ("screening", "covariance", "eigendecomposition", "transform"):
        assert metrics.phase_seconds.get(phase, 0.0) > 0.0
    assert metrics.messages > 0
    assert metrics.bytes_sent > 0


@pytest.mark.slow
@pytest.mark.flaky(reruns=2)
def test_hard_process_death_is_detected_and_survivable(small_cube):
    # A worker SIGKILLed behind the backend's back (indistinguishable from a
    # segfault or an OOM kill) must be detected by the parent's liveness
    # sweep and recorded as crashed, while the manager's timeout-driven
    # reassignment lets the run complete with a bit-identical composite.
    import os
    import signal

    config = make_config(workers=2, subcubes=8)
    sequential = SpectralScreeningPCT(config).fuse(small_cube)
    backend = fast_backend(crash_policy="record", shutdown_grace=0.5)
    app = build_application(small_cube, config, reassign_timeout=1.0)

    def killer():
        # Kill as soon as the OS process exists: the replica is still
        # booting (imports, hello), far before it can drain all eight
        # screening tasks -- the incremental screening kernel finishes
        # phase 1 too quickly for a "sleep a while, then kill" window to be
        # reliable.
        deadline = time.time() + 30.0
        while time.time() < deadline:
            task = backend._tasks.get("worker.0#0")
            process = task.slot.process if task is not None else None
            if process is not None and process.pid is not None:
                try:
                    os.kill(process.pid, signal.SIGKILL)
                except ProcessLookupError:  # pragma: no cover - lost the race
                    pass
                return
            time.sleep(0.001)

    threading.Thread(target=killer, daemon=True).start()
    run = backend.run(app, until_thread=MANAGER_NAME)

    assert run.outcomes["worker.0#0"].status == "crashed"
    assert "died without reporting" in run.outcomes["worker.0#0"].error
    result = run.return_of(MANAGER_NAME)
    np.testing.assert_array_equal(result.composite, sequential.composite)


@pytest.mark.slow
@pytest.mark.flaky(reruns=2)
def test_killed_worker_is_regenerated_and_parity_holds(small_cube):
    config = make_config(workers=2, subcubes=8)
    sequential = SpectralScreeningPCT(config).fuse(small_cube)
    backend = fast_backend(crash_policy="record")
    app = build_application(small_cube, config)

    regenerated = []

    def on_death(pid, logical, reason):
        if logical.startswith("worker") and reason in ("killed", "crashed") \
                and len(regenerated) < 2:
            new_pid = backend.spawn_thread(
                app.spec(logical), replica=len(regenerated) + 1,
                restored=backend.checkpoint_of(logical),
                incarnation=len(regenerated) + 1)
            regenerated.append(new_pid)

    backend.subscribe_thread_death(on_death)

    def killer():
        # Kill as soon as the replica's process exists, so the kill always
        # precedes phase-1 completion (see the hard-death test above for
        # why waiting any longer is unreliable).
        deadline = time.time() + 30.0
        while time.time() < deadline:
            task = backend._tasks.get("worker.0#0")
            if task is not None and task.slot.process.pid is not None:
                backend.kill_thread("worker.0#0")
                return
            time.sleep(0.001)

    threading.Thread(target=killer, daemon=True).start()
    run = backend.run(app, until_thread=MANAGER_NAME)

    result = run.return_of(MANAGER_NAME)
    np.testing.assert_array_equal(result.composite, sequential.composite)
    assert run.metrics.failures_injected == 1
    assert run.metrics.replicas_regenerated == 1
    assert regenerated and regenerated[0].startswith("worker.0#")


@pytest.mark.flaky(reruns=2)
@pytest.mark.parametrize("crash_policy", ["raise", "record"])
def test_sigkilled_replica_is_regenerated_and_the_request_survives(small_cube,
                                                                   crash_policy):
    # The paper's claim on real hardware: a worker replica SIGKILLed behind
    # the backend's back is detected (death notification), regenerated by
    # the resiliency layer, and the request still returns the correct
    # composite -- under either crash policy, because the manager finished.
    import os
    import signal

    config = make_config(workers=2, subcubes=8).with_resilience(
        ResilienceConfig(replication_level=2))
    sequential = SpectralScreeningPCT(config).fuse(small_cube)
    backend = fast_backend(crash_policy=crash_policy, shutdown_grace=0.5)

    def killer():
        # Same deterministic trigger as the hard-death test above: kill as
        # soon as the replica's OS process exists.
        deadline = time.time() + 30.0
        while time.time() < deadline:
            task = backend._tasks.get("worker.1#0")
            process = task.slot.process if task is not None else None
            if process is not None and process.pid is not None:
                try:
                    os.kill(process.pid, signal.SIGKILL)
                except ProcessLookupError:  # pragma: no cover - lost the race
                    pass
                return
            time.sleep(0.001)

    threading.Thread(target=killer, daemon=True).start()
    report = fuse(small_cube, engine="resilient", config=config, backend=backend)

    np.testing.assert_array_equal(report.composite, sequential.composite)
    outcome = report.run.outcomes["worker.1#0"]
    assert outcome.status == "crashed"
    assert "died without reporting" in outcome.error
    assert report.resilience["recoveries"] >= 1
    assert report.replicas_regenerated >= 1
    assert report.backend == "process"


def _crashing_manager(ctx, **params):
    from repro.scp.effects import Sleep
    yield Sleep(0.05)
    raise ValueError("boom")


def _pool_residue():
    """Live child pids plus /dev/shm segments and spool directories."""
    import multiprocessing
    return ({child.pid for child in multiprocessing.active_children()},
            set(shm_residue()))


def _failing_copy_out(placement):
    raise RuntimeError("boom")


@pytest.mark.parametrize("engine, backend, crash", [
    ("distributed", "process:fork", False),
    ("distributed", "process:fork", True),
    ("pipeline", "process:fork", False),
    ("pipeline", "process:fork", True),
    ("pipeline", "socket:2", False),
    ("pipeline", "socket:2", True),
], ids=["completes", "raises", "pipeline-process-completes",
        "pipeline-process-raises", "pipeline-socket-completes",
        "pipeline-socket-raises"])
def test_one_shot_run_closes_its_private_pool(tiny_cube, monkeypatch, engine,
                                              backend, crash):
    # A one-shot process run owns a private session for its lifetime:
    # whether the run returns or raises, no worker process, shared-memory
    # segment or spool directory may outlive the call.
    import multiprocessing

    from repro.scp.errors import ThreadCrashedError

    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("fork start method unavailable")
    children_before, residue_before = _pool_residue()
    config = make_config(workers=2, subcubes=4)
    if crash:
        # Fail in the parent once the workers have run: the manager program
        # of a batch run, the output copy of a pipeline run.
        monkeypatch.setattr("repro.core.distributed.manager_program",
                            _crashing_manager)
        monkeypatch.setattr("repro.core.streaming._copy_out",
                            _failing_copy_out)
        expected = ThreadCrashedError if engine == "distributed" else RuntimeError
        with pytest.raises(expected, match="boom"):
            fuse(tiny_cube, engine=engine, config=config, backend=backend)
    else:
        report = fuse(tiny_cube, engine=engine, config=config, backend=backend)
        assert report.backend == backend
    children_after, residue_after = _pool_residue()
    assert children_after - children_before == set()
    assert residue_after - residue_before == set()


@pytest.mark.parametrize("backend, start_method", [
    ("process", None), ("process:spawn", "spawn")])
def test_one_shot_process_run_uses_the_session_start_method(
        tiny_cube, monkeypatch, backend, start_method):
    # One rule for every process run, one-shot or session: an explicit
    # start method, else the spec's variant, else the platform default.
    from repro.api import session as session_module
    from repro.scp.pool import ProcessPool, default_start_method

    pools = []

    class RecordingPool(ProcessPool):
        def __init__(self, **kwargs):
            super().__init__(**kwargs)
            pools.append(self)

    monkeypatch.setattr(session_module, "ProcessPool", RecordingPool)
    fuse(tiny_cube, engine="distributed", backend=backend,
         config=make_config(workers=2, subcubes=4))
    assert [pool.start_method for pool in pools] == [
        start_method or default_start_method()]


@pytest.mark.slow
def test_resilient_pct_on_process_backend(tiny_cube):
    config = make_config(workers=2, subcubes=4).with_resilience(
        ResilienceConfig(replication_level=2))
    sequential = SpectralScreeningPCT(config).fuse(tiny_cube)
    outcome = fuse(tiny_cube, engine="resilient", config=config, backend="process")
    np.testing.assert_array_equal(outcome.result.composite, sequential.composite)
    assert outcome.metrics.replication_level == 2
    assert outcome.result.metadata["mode"] == "resilient"


@pytest.mark.slow
def test_cli_fuse_and_sweep_with_process_backend(tmp_path, capsys):
    from repro.cli import main

    cube_path = tmp_path / "scene.npz"
    assert main(["generate", "--bands", "16", "--rows", "32", "--cols", "32",
                 "--seed", "3", "--out", str(cube_path)]) == 0
    assert main(["fuse", str(cube_path), "--engine", "distributed",
                 "--backend", "process", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "wall_seconds" in out
    assert main(["sweep", "--workers", "1", "2", "--backend", "process",
                 "--scale", "0.15", "--bands", "24"]) == 0
    out = capsys.readouterr().out
    assert "Measured wall-clock speed-up" in out
