"""Integration tests: resilient fusion under replication, attacks and recovery.

These are the end-to-end checks of the paper's central claim: with
computational resiliency the application keeps producing the *correct* fused
image through attacks and failures, paying for it with replication plus a
modest protocol overhead.
"""

import numpy as np
import pytest

from repro import fuse
from repro.baselines.static_replication import fuse_static_replication
from repro.config import FusionConfig, PartitionConfig, ResilienceConfig
from repro.core.pipeline import SpectralScreeningPCT
from repro.resilience.attack import AttackScenario
from repro.scp.errors import DeadlockError, SCPError


def make_config(workers=2, subcubes=4, **resilience_kwargs):
    resilience = ResilienceConfig(replication_level=2, heartbeat_period=0.05,
                                  heartbeat_misses=2, **resilience_kwargs)
    return FusionConfig(partition=PartitionConfig(workers=workers, subcubes=subcubes),
                        resilience=resilience)


@pytest.fixture(scope="module")
def reference_result(small_cube):
    config = FusionConfig(partition=PartitionConfig(workers=2, subcubes=4))
    return SpectralScreeningPCT(config).fuse(small_cube)


class TestResilientWithoutAttack:
    def test_output_matches_reference(self, small_cube, reference_result):
        outcome = fuse(small_cube, engine="resilient", config=make_config())
        np.testing.assert_array_equal(outcome.result.composite,
                                      reference_result.composite)

    def test_replication_costs_roughly_double(self, small_cube):
        plain_config = FusionConfig(partition=PartitionConfig(workers=2, subcubes=4))
        plain = fuse(small_cube, engine="distributed", config=plain_config)
        resilient = fuse(small_cube, engine="resilient", config=make_config())
        slowdown = resilient.elapsed_seconds / plain.elapsed_seconds
        assert 1.3 < slowdown < 2.6

    def test_replication_level_one_behaves_like_plain(self, small_cube):
        config = FusionConfig(
            partition=PartitionConfig(workers=2, subcubes=4),
            resilience=ResilienceConfig(replication_level=1))
        plain = fuse(small_cube, engine="distributed", config=FusionConfig(
            partition=PartitionConfig(workers=2, subcubes=4)))
        level1 = fuse(small_cube, engine="resilient", config=config)
        np.testing.assert_array_equal(level1.result.composite, plain.result.composite)
        # Without shadows the slowdown is only the protocol overhead.
        assert level1.elapsed_seconds < plain.elapsed_seconds * 1.5

    def test_no_failures_no_regenerations(self, small_cube):
        outcome = fuse(small_cube, engine="resilient", config=make_config())
        assert outcome.failures_injected == 0
        assert outcome.replicas_regenerated == 0
        assert outcome.metrics.replication_level == 2

    def test_resilience_report_attached(self, small_cube):
        outcome = fuse(small_cube, engine="resilient", config=make_config())
        report = outcome.resilience
        assert set(report["replication"].keys()) >= {"worker.0", "worker.1"}
        assert report["recoveries"] == 0
        assert outcome.result.metadata["mode"] == "resilient"


class TestResilientUnderAttack:
    def test_single_replica_kill_output_unchanged(self, small_cube, reference_result):
        attack = AttackScenario.single_worker_kill("worker.0", at=0.01)
        outcome = fuse(small_cube, engine="resilient", config=make_config(), attack=attack)
        assert outcome.failures_injected == 1
        np.testing.assert_array_equal(outcome.result.composite,
                                      reference_result.composite)

    def test_group_wipeout_recovered_by_regeneration(self, small_cube, reference_result):
        """Both replicas of a worker are destroyed; regeneration restores the
        group and the run still completes with the correct output."""
        attack = AttackScenario.group_wipeout("worker.1", at=0.01, replicas=2)
        outcome = fuse(small_cube, engine="resilient", config=make_config(), attack=attack)
        assert outcome.failures_injected == 2
        assert outcome.replicas_regenerated >= 1
        np.testing.assert_array_equal(outcome.result.composite,
                                      reference_result.composite)
        group = outcome.resilience["replication"]["worker.1"]
        assert group["regenerated"] >= 1

    def test_node_outage_recovered(self, small_cube, reference_result):
        attack = AttackScenario.node_outage("sun01", at=0.01)
        outcome = fuse(small_cube, engine="resilient", config=make_config(), attack=attack)
        assert outcome.failures_injected >= 1
        np.testing.assert_array_equal(outcome.result.composite,
                                      reference_result.composite)

    def test_sustained_assault_survived(self, small_cube, reference_result):
        attack = AttackScenario.sustained_assault(
            ["worker.0", "worker.1"], start=0.01, interval=0.3, rounds=4, seed=2)
        outcome = fuse(small_cube, engine="resilient", config=make_config(), attack=attack)
        assert outcome.failures_injected >= 2
        np.testing.assert_array_equal(outcome.result.composite,
                                      reference_result.composite)

    def test_attack_slows_the_run_down(self, small_cube):
        quiet = fuse(small_cube, engine="resilient", config=make_config())
        attack = AttackScenario.group_wipeout("worker.0", at=0.01, replicas=2)
        attacked = fuse(small_cube, engine="resilient", config=make_config(), attack=attack)
        assert attacked.elapsed_seconds >= quiet.elapsed_seconds

    def test_recovery_events_in_report(self, small_cube):
        attack = AttackScenario.group_wipeout("worker.0", at=0.01, replicas=2)
        outcome = fuse(small_cube, engine="resilient", config=make_config(), attack=attack)
        assert outcome.resilience["recoveries"] >= 1
        assert outcome.resilience["attacks_executed"] >= 1
        assert outcome.resilience["reconfigurations"]["completed"] >= 1


class TestStaticReplicationBaseline:
    def test_single_kill_survived_by_surviving_shadow(self, small_cube, reference_result):
        """Static replication degrades gracefully: one replica lost, the other
        carries the work -- but nothing is regenerated."""
        attack = AttackScenario.single_worker_kill("worker.0", at=0.01)
        outcome = fuse_static_replication(small_cube, make_config(), attack=attack)
        assert outcome.failures_injected == 1
        assert outcome.replicas_regenerated == 0
        np.testing.assert_array_equal(outcome.result.composite,
                                      reference_result.composite)
        assert outcome.result.metadata["mode"] == "static-replication"

    def test_group_wipeout_stalls_without_regeneration(self, small_cube):
        """Losing every replica of a worker exceeds what static replication can
        tolerate: the run cannot finish (it deadlocks or exceeds its budget)."""
        attack = AttackScenario.group_wipeout("worker.0", at=0.01, replicas=2)
        from repro.core.distributed import MANAGER_NAME, build_application
        from repro.resilience.coordinator import (ResilienceCoordinator,
                                                  protocol_config_for)
        from repro.scp.registry import BackendContext, create_backend
        config = make_config(regenerate=False)
        resilience = config.resilience
        context = BackendContext(
            workers=config.partition.workers, manager=MANAGER_NAME,
            protocol=protocol_config_for(resilience),
            share_replica_results=not resilience.execute_replicas)
        backend = create_backend("sim", context)
        app = build_application(small_cube, config,
                                worker_replicas=resilience.replication_level)
        coordinator = ResilienceCoordinator(backend, context.cluster, resilience)
        coordinator.attach(app)
        coordinator.arm_attack(attack)
        with pytest.raises((DeadlockError, SCPError)):
            backend.run(app, until_thread="manager", time_limit=200.0)

    def test_group_wipeout_rescued_by_manager_reassignment(self, small_cube,
                                                           reference_result):
        """With an application-level reassignment timeout the static
        configuration completes despite the wipe-out (the application, not the
        library, provides the fault tolerance)."""
        attack = AttackScenario.group_wipeout("worker.0", at=0.01, replicas=2)
        outcome = fuse_static_replication(small_cube, make_config(), attack=attack,
                                          reassign_timeout=1.0)
        assert outcome.replicas_regenerated == 0
        np.testing.assert_array_equal(outcome.result.composite,
                                      reference_result.composite)


class TestCamouflage:
    def test_migrations_preserve_output(self, small_cube, reference_result):
        outcome = fuse(small_cube, engine="resilient", config=make_config(), camouflage_period=0.2)
        np.testing.assert_array_equal(outcome.result.composite,
                                      reference_result.composite)
        assert outcome.resilience["migrations"] >= 0

    def test_migrations_happen_on_long_runs(self, small_cube):
        config = make_config(workers=2, subcubes=4)
        outcome = fuse(small_cube, engine="resilient", config=config, camouflage_period=0.05)
        # The run lasts several multiples of the camouflage period, so at
        # least one migration should have been attempted.
        assert outcome.resilience["migrations"] >= 1


class TestLocalResilient:
    def test_local_backend_with_replication(self, small_cube, reference_result):
        config = make_config(workers=2, subcubes=4)
        outcome = fuse(small_cube, engine="resilient", config=config, backend="local")
        np.testing.assert_array_equal(outcome.result.composite,
                                      reference_result.composite)
