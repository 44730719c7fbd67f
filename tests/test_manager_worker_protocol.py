"""Protocol-level unit tests of the manager and worker thread programs.

These tests drive the generator programs *directly* (no backend at all),
feeding them effects' results by hand.  They pin down the wire protocol --
which messages are sent, with which duplicate-suppression keys, in which
order -- independently of any scheduling, which is what makes the replication
and regeneration semantics of the runtime safe to reason about.
"""

import pickle

import numpy as np
import pytest

from repro.config import FusionConfig, PartitionConfig, ScreeningConfig
from repro.core.manager import manager_program
from repro.core.messages import (PHASE_COVARIANCE, PHASE_SCREEN,
                                 PHASE_TRANSFORM, PORT_HELLO,
                                 PORT_RESULT, PORT_TASK, StopWork,
                                 TaskAssignment, TaskResult, WorkerHello)
from repro.core.partition import SubcubeSpec, extract_subcube
from repro.core.pipeline import FusionResult, SpectralScreeningPCT
from repro.core.worker import worker_program
from repro.data.hydice import HydiceConfig, HydiceGenerator
from repro.data.shared import SharedCube
from repro.scp.effects import Checkpoint, Compute, Recv, Send
from repro.scp.runtime import Context
from repro.scp.serialization import Envelope


def make_context(name, replica=0, incarnation=0, restored=None):
    return Context(name=name, replica=replica, physical_id=f"{name}#{replica}",
                   node="test-node", restored=restored, incarnation=incarnation)


def envelope_for(payload, port, src="manager"):
    return Envelope(src=src, dst="ignored", port=port, payload=payload)


class ProgramDriver:
    """Minimal interpreter for a thread program: executes Compute effects for
    real, collects Send effects, and feeds queued envelopes to Recv effects."""

    def __init__(self, generator):
        self.generator = generator
        self.sent = []
        self.inbox = []
        self.finished = False
        self.result = None

    def deliver(self, payload, port, src="manager"):
        self.inbox.append(envelope_for(payload, port, src=src))

    def step_until_blocked(self):
        """Advance the program until it waits on an empty inbox or returns."""
        value = None
        while True:
            try:
                effect = self.generator.send(value)
            except StopIteration as stop:
                self.finished = True
                self.result = stop.value
                return
            value = self._handle(effect)
            if value is _BLOCKED:
                return

    def _handle(self, effect):
        if isinstance(effect, Compute):
            return effect.fn(*effect.args, **effect.kwargs)
        if isinstance(effect, Send):
            self.sent.append(effect)
            return None
        if isinstance(effect, Checkpoint):
            return None
        if isinstance(effect, Recv):
            for index, envelope in enumerate(self.inbox):
                if effect.port is None or envelope.port == effect.port:
                    return self.inbox.pop(index)
            # Nothing to consume: remember we are blocked on this Recv and
            # re-yield it on the next step.
            self._pending_recv = effect
            return _BLOCKED
        raise AssertionError(f"unexpected effect {effect!r}")

    def resume_with_inbox(self):
        """Resume a program blocked on Recv once the inbox has a matching message."""
        effect = self._pending_recv
        for index, envelope in enumerate(self.inbox):
            if effect.port is None or envelope.port == effect.port:
                value = self.inbox.pop(index)
                break
        else:
            raise AssertionError("no matching message to resume with")
        try:
            next_effect = self.generator.send(value)
        except StopIteration as stop:
            self.finished = True
            self.result = stop.value
            return
        value = self._handle(next_effect)
        while value is not _BLOCKED and not self.finished:
            try:
                next_effect = self.generator.send(value)
            except StopIteration as stop:
                self.finished = True
                self.result = stop.value
                return
            value = self._handle(next_effect)


_BLOCKED = object()


@pytest.fixture(scope="module")
def protocol_cube():
    return HydiceGenerator(HydiceConfig(bands=12, rows=24, cols=24, seed=5)).generate()


@pytest.fixture()
def fusion_config():
    return FusionConfig(screening=ScreeningConfig(angle_threshold=0.05, max_unique=256),
                        partition=PartitionConfig(workers=2, subcubes=2))


class TestWorkerProtocol:
    def make_driver(self, incarnation=0):
        ctx = make_context("worker.0", incarnation=incarnation)
        driver = ProgramDriver(worker_program(ctx, manager="manager",
                                              config=FusionConfig()))
        return driver

    def test_announces_itself_first(self):
        driver = self.make_driver()
        driver.step_until_blocked()
        assert len(driver.sent) == 1
        hello = driver.sent[0]
        assert hello.dst == "manager" and hello.port == PORT_HELLO
        assert isinstance(hello.payload, WorkerHello)
        assert hello.payload.incarnation == 0
        assert hello.key == hello.payload.dedup_key()

    def test_regenerated_replica_announces_new_incarnation(self):
        driver = self.make_driver(incarnation=2)
        driver.step_until_blocked()
        assert driver.sent[0].payload.incarnation == 2
        fresh = self.make_driver(incarnation=0)
        fresh.step_until_blocked()
        assert driver.sent[0].key != fresh.sent[0].key

    def test_screen_task_produces_unique_set_result(self, protocol_cube):
        driver = self.make_driver()
        driver.step_until_blocked()
        task = TaskAssignment(phase=PHASE_SCREEN, task_id=3,
                              data={"cube": protocol_cube},
                              spec=SubcubeSpec(task_id=3, row_start=0, row_stop=8))
        driver.deliver(task, PORT_TASK)
        driver.resume_with_inbox()
        result_send = driver.sent[-1]
        assert result_send.port == PORT_RESULT
        result = result_send.payload
        assert isinstance(result, TaskResult)
        assert result.phase == PHASE_SCREEN and result.task_id == 3
        assert result.worker == "worker.0"
        assert result.data["unique"].shape[1] == protocol_cube.bands
        # The dedup key does not depend on which replica/worker produced it.
        assert result_send.key == ("result", PHASE_SCREEN, 3)

    def test_covariance_task(self, protocol_cube):
        driver = self.make_driver()
        driver.step_until_blocked()
        pixels = protocol_cube.as_pixel_matrix()[:50]
        mean = pixels.mean(axis=0)
        task = TaskAssignment(phase=PHASE_COVARIANCE, task_id=1,
                              data={"pixels": pixels, "mean": mean})
        driver.deliver(task, PORT_TASK)
        driver.resume_with_inbox()
        result = driver.sent[-1].payload
        assert result.data["cov_sum"].shape == (protocol_cube.bands, protocol_cube.bands)
        assert result.data["count"] == 50

    def test_stop_terminates_with_task_count(self, protocol_cube):
        driver = self.make_driver()
        driver.step_until_blocked()
        driver.deliver(TaskAssignment(phase=PHASE_SCREEN, task_id=0,
                                      data={"cube": protocol_cube},
                                      spec=SubcubeSpec(task_id=0, row_start=0,
                                                       row_stop=4)), PORT_TASK)
        driver.resume_with_inbox()
        driver.deliver(StopWork(), PORT_TASK)
        driver.resume_with_inbox()
        assert driver.finished
        assert driver.result["tasks_completed"] == 1
        assert driver.result["worker"] == "worker.0"

    def test_unknown_payload_ignored(self):
        driver = self.make_driver()
        driver.step_until_blocked()
        driver.deliver({"not": "a task"}, PORT_TASK)
        driver.resume_with_inbox()
        # No result was produced and the worker is simply waiting again.
        assert all(send.port != PORT_RESULT for send in driver.sent)
        assert not driver.finished


class TestManagerProtocol:
    def run_manager(self, cube, config, worker_names=("worker.0", "worker.1")):
        ctx = make_context("manager")
        return ProgramDriver(manager_program(
            ctx, cube=cube, config=config, worker_names=list(worker_names),
            prefetch=2))

    def drain_tasks(self, driver):
        """Return the TaskAssignments sent since the last drain, keyed by worker."""
        tasks = [(send.dst, send.payload) for send in driver.sent
                 if send.port == PORT_TASK and isinstance(send.payload, TaskAssignment)]
        driver.sent = [s for s in driver.sent
                       if not (s.port == PORT_TASK and isinstance(s.payload, TaskAssignment))]
        return tasks

    def answer(self, driver, worker, task):
        """Compute a worker's answer for ``task`` honestly and deliver it."""
        ctx = make_context(worker)
        worker_driver = ProgramDriver(worker_program(ctx, manager="manager",
                                                     config=FusionConfig()))
        worker_driver.step_until_blocked()
        worker_driver.deliver(task, PORT_TASK)
        worker_driver.resume_with_inbox()
        result = worker_driver.sent[-1].payload
        driver.deliver(result, PORT_RESULT, src=worker)

    def test_full_protocol_round_trip(self, protocol_cube, fusion_config):
        driver = self.run_manager(protocol_cube, fusion_config)
        driver.step_until_blocked()

        # Phase 1: screening tasks pushed round-robin to both workers.
        tasks = self.drain_tasks(driver)
        assert {dst for dst, _ in tasks} == {"worker.0", "worker.1"}
        assert all(task.phase == PHASE_SCREEN for _, task in tasks)

        while not driver.finished:
            if not tasks:
                raise AssertionError("manager is waiting but no tasks are outstanding")
            for dst, task in tasks:
                if isinstance(task, StopWork):
                    continue
                self.answer(driver, dst, task)
                driver.resume_with_inbox()
            tasks = self.drain_tasks(driver)

        result = driver.result
        assert isinstance(result, FusionResult)
        assert result.composite.shape == (protocol_cube.rows, protocol_cube.cols, 3)
        assert result.metadata["mode"] == "distributed"

    def test_sub_cube_tasks_over_a_shared_cube_pickle_as_handles(self):
        # Screen and transform tasks name rows of the manager's cube; over a
        # SharedCube each pickles as the segment handle plus the small
        # per-phase arrays, where a copy of the block would be 1 MiB.  The
        # simulated LAN still charges the block's bytes.
        cube = HydiceGenerator(HydiceConfig(bands=16, rows=256, cols=128,
                                            seed=5)).generate()
        config = FusionConfig(screening=ScreeningConfig(angle_threshold=0.05,
                                                        max_unique=256),
                              partition=PartitionConfig(workers=2, subcubes=2))
        sub_cube_tasks = []
        with SharedCube.from_cube(cube) as shared:
            driver = self.run_manager(shared, config)
            driver.step_until_blocked()
            tasks = self.drain_tasks(driver)
            while not driver.finished:
                for dst, task in tasks:
                    if task.spec is not None:
                        sub_cube_tasks.append(task)
                        assert len(pickle.dumps(task)) < 4096
                    self.answer(driver, dst, task)
                    driver.resume_with_inbox()
                tasks = self.drain_tasks(driver)
            np.testing.assert_array_equal(
                driver.result.composite,
                SpectralScreeningPCT(config).fuse(cube).composite)
            assert sorted(task.phase for task in sub_cube_tasks) == [
                PHASE_SCREEN, PHASE_SCREEN, PHASE_TRANSFORM, PHASE_TRANSFORM]
            for task in sub_cube_tasks:
                data = dict(task.data)
                block = extract_subcube(data.pop("cube"), task.spec)
                assert block.nbytes == 1 << 20
                copied = TaskAssignment(phase=task.phase, task_id=task.task_id,
                                        data={"block": block, **data},
                                        spec=task.spec)
                assert task.nbytes_estimate() == copied.nbytes_estimate()

    def test_rejoining_worker_gets_outstanding_tasks_resent(self, protocol_cube,
                                                            fusion_config):
        driver = self.run_manager(protocol_cube, fusion_config)
        driver.step_until_blocked()
        initial = self.drain_tasks(driver)
        outstanding_for_w1 = [task for dst, task in initial if dst == "worker.1"]
        assert outstanding_for_w1

        # worker.1's replicas all died; a regenerated replica announces itself
        # with a new incarnation number.
        driver.deliver(WorkerHello(worker="worker.1", incarnation=1), PORT_HELLO,
                       src="worker.1")
        driver.resume_with_inbox()
        resent = self.drain_tasks(driver)
        resent_ids = {task.task_id for dst, task in resent if dst == "worker.1"}
        assert {t.task_id for t in outstanding_for_w1} <= resent_ids

    def test_initial_hello_does_not_cause_resend(self, protocol_cube, fusion_config):
        driver = self.run_manager(protocol_cube, fusion_config)
        driver.step_until_blocked()
        before = len(self.drain_tasks(driver))
        driver.deliver(WorkerHello(worker="worker.0", incarnation=0), PORT_HELLO,
                       src="worker.0")
        driver.resume_with_inbox()
        after = self.drain_tasks(driver)
        # Nothing new is pending (all tasks already assigned), and incarnation 0
        # does not trigger a redundant re-send of outstanding work.
        assert len(after) == 0 or len(after) < before

    def test_duplicate_results_are_harmless(self, protocol_cube, fusion_config):
        driver = self.run_manager(protocol_cube, fusion_config)
        driver.step_until_blocked()
        tasks = self.drain_tasks(driver)
        # Answer the first screening task twice (as if two replicas and a
        # reassignment all reported it); the manager must make progress and
        # never double-count.
        dst, task = tasks[0]
        self.answer(driver, dst, task)
        self.answer(driver, dst, task)
        driver.resume_with_inbox()
        # It has not finished the phase with only one distinct result.
        assert not driver.finished

    def test_requires_workers_and_components(self, protocol_cube, fusion_config):
        ctx = make_context("manager")
        with pytest.raises(ValueError):
            list(manager_program(ctx, cube=protocol_cube, config=fusion_config,
                                 worker_names=[]))
        with pytest.raises(ValueError):
            list(manager_program(ctx, cube=protocol_cube, config=fusion_config,
                                 worker_names=["worker.0"], n_components=2))
