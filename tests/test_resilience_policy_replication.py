"""Unit tests for replication policies and replica-group bookkeeping."""

import pytest

from repro.config import ResilienceConfig
from repro.resilience.policy import ReplicationPolicy
from repro.resilience.replication import ReplicaGroup, ReplicationManager
from repro.scp.thread import ThreadSpec


def dummy_program(ctx):
    yield  # pragma: no cover


def worker_spec(name="worker.0", critical=True, replicas=1):
    return ThreadSpec(name=name, program=dummy_program, critical=critical,
                      replicas=replicas)


class TestReplicationPolicy:
    def test_paper_defaults(self):
        policy = ReplicationPolicy.from_config(ResilienceConfig())
        assert policy.level == 2

    def test_level_validation(self):
        with pytest.raises(ValueError):
            ReplicationPolicy(level=0)

    def test_critical_flag_respected(self):
        policy = ReplicationPolicy(level=3)
        assert policy.replicas_for(worker_spec(critical=True)) == 3
        assert policy.replicas_for(worker_spec("manager", critical=False)) == 1

    def test_custom_criticality_predicate(self):
        policy = ReplicationPolicy(level=2,
                                   is_critical=lambda spec: spec.name.startswith("worker"))
        assert policy.replicas_for(worker_spec("worker.4", critical=False)) == 2
        assert policy.replicas_for(worker_spec("manager", critical=True)) == 1

    def test_placement_spreads_replicas(self):
        policy = ReplicationPolicy(level=2)
        specs = [worker_spec(f"worker.{i}") for i in range(3)]
        placement = policy.plan_placement(specs, ["n0", "n1", "n2"])
        for spec in specs:
            primary = placement[f"{spec.name}#0"]
            shadow = placement[f"{spec.name}#1"]
            assert primary != shadow

    def test_paper_configuration_two_replicas_per_node(self):
        policy = ReplicationPolicy(level=2)
        specs = [worker_spec(f"worker.{i}") for i in range(4)]
        placement = policy.plan_placement(specs, [f"n{i}" for i in range(4)])
        load = {}
        for node in placement.values():
            load[node] = load.get(node, 0) + 1
        assert all(count == 2 for count in load.values())

    def test_pinned_thread_placement(self):
        policy = ReplicationPolicy(level=2)
        specs = [worker_spec("manager", critical=False), worker_spec("worker.0")]
        placement = policy.plan_placement(specs, ["n0", "n1"], pinned={"manager": "boss"})
        assert placement["manager#0"] == "boss"

    def test_empty_node_list_rejected(self):
        with pytest.raises(ValueError):
            ReplicationPolicy().plan_placement([worker_spec()], [])


class TestReplicaGroup:
    def test_initial_members_from_spec(self):
        manager = ReplicationManager()
        group = manager.register_group(worker_spec(replicas=2), target_level=2)
        assert group.live_count == 2
        assert group.deficit == 0
        assert group.members == {"worker.0#0", "worker.0#1"}

    def test_register_is_idempotent(self):
        manager = ReplicationManager()
        first = manager.register_group(worker_spec(replicas=2), 2)
        second = manager.register_group(worker_spec(replicas=2), 2)
        assert first is second

    def test_death_creates_deficit(self):
        manager = ReplicationManager()
        manager.register_group(worker_spec(replicas=2), 2)
        group = manager.record_death("worker.0#1")
        assert group is not None
        assert group.deficit == 1
        assert group.lost == 1

    def test_stale_death_ignored(self):
        manager = ReplicationManager()
        manager.register_group(worker_spec(replicas=2), 2)
        assert manager.record_death("worker.0#1") is not None
        # The same replica reported again (e.g. a late suspicion) is ignored.
        assert manager.record_death("worker.0#1") is None

    def test_death_of_untracked_thread_ignored(self):
        manager = ReplicationManager()
        assert manager.record_death("ghost#0") is None

    def test_regeneration_restores_level_and_bumps_incarnation(self):
        manager = ReplicationManager()
        group = manager.register_group(worker_spec(replicas=2), 2)
        manager.record_death("worker.0#0")
        new_index = group.allocate_replica_index()
        assert new_index == 2
        manager.record_regeneration("worker.0", f"worker.0#{new_index}")
        assert group.deficit == 0
        assert group.incarnation == 1
        assert group.regenerated == 1

    def test_replica_indices_never_reused(self):
        group = ReplicaGroup(spec=worker_spec(replicas=2), target_level=2)
        indices = [group.allocate_replica_index() for _ in range(5)]
        assert indices == [0, 1, 2, 3, 4]

    def test_summary_and_totals(self):
        manager = ReplicationManager()
        manager.register_group(worker_spec(replicas=2), 2)
        manager.record_death("worker.0#0")
        manager.record_regeneration("worker.0", "worker.0#2")
        summary = manager.summary()
        assert summary["worker.0"]["lost"] == 1
        assert summary["worker.0"]["regenerated"] == 1

    def test_unknown_group_lookup_raises(self):
        with pytest.raises(KeyError):
            ReplicationManager().group("nope")
