"""Unit tests for the replication policy and the coordinator's replica groups.

The policy is data: ``ResilienceConfig.replication_level``, the critical
flag and replica count that :func:`~repro.core.distributed.build_application`
gives each thread, and the shifted round-robin of
:func:`~repro.scp.runtime.plan_placement`.  The replica groups are the
coordinator's bookkeeping of live members and counters.
"""

import pytest

from repro.config import FusionConfig, PartitionConfig, ResilienceConfig
from repro.core.distributed import build_application
from repro.data.hydice import HydiceConfig, HydiceGenerator
from repro.resilience.coordinator import ResilienceCoordinator
from repro.scp.errors import PlacementError
from repro.scp.runtime import Application, plan_placement
from repro.scp.thread import ThreadSpec


def dummy_program(ctx):
    yield  # pragma: no cover


def worker_spec(name="worker.0", critical=True, replicas=1):
    return ThreadSpec(name=name, program=dummy_program, critical=critical,
                      replicas=replicas)


def paper_specs(workers, level):
    """The specs the resilient engine runs: ``workers`` replicated workers
    and the unreplicated manager."""
    cube = HydiceGenerator(HydiceConfig(bands=8, rows=32, cols=32, seed=0)).generate()
    config = FusionConfig(partition=PartitionConfig(workers=workers),
                          resilience=ResilienceConfig(replication_level=level))
    return build_application(cube, config, worker_replicas=level).specs


class TestReplicationPolicy:
    """The policy as the specs and placement the resilient engine runs."""

    def test_paper_defaults(self):
        level = ResilienceConfig().replication_level
        assert level == 2
        replicas = {spec.name: spec.replicas for spec in paper_specs(2, level)}
        assert replicas == {"manager": 1, "worker.0": 2, "worker.1": 2}

    def test_level_validation(self):
        with pytest.raises(ValueError):
            ResilienceConfig(replication_level=0)

    def test_critical_flag_respected(self):
        for spec in paper_specs(2, 3):
            assert spec.replicas == (3 if spec.critical else 1)
            assert spec.critical == spec.name.startswith("worker")

    def test_placement_spreads_replicas(self):
        specs = paper_specs(3, 2)
        placement = plan_placement(specs, ["n0", "n1", "n2"], pinned={"manager": "m"})
        for spec in specs:
            if spec.critical:
                assert placement[f"{spec.name}#0"] != placement[f"{spec.name}#1"]

    def test_paper_configuration_two_replicas_per_node(self):
        nodes = [f"n{i}" for i in range(4)]
        placement = plan_placement(paper_specs(4, 2), nodes, pinned={"manager": "m"})
        load = {}
        for node in placement.values():
            load[node] = load.get(node, 0) + 1
        assert load == {"m": 1, **{node: 2 for node in nodes}}

    def test_pinned_thread_placement(self):
        placement = plan_placement(paper_specs(2, 2), ["n0", "n1"],
                                   pinned={"manager": "boss"})
        assert placement["manager#0"] == "boss"

    def test_empty_node_list_rejected(self):
        with pytest.raises(PlacementError):
            plan_placement(paper_specs(1, 2), [])


class FakeBackend:
    """Wall-clock stand-in: no cluster, deaths only by notification."""

    now = 0.0

    def __init__(self):
        self.spawned = []

    def subscribe_thread_death(self, callback):
        pass

    def checkpoint_of(self, logical):
        return None

    def spawn_thread(self, spec, *, replica, node=None, restored=None, incarnation=1):
        self.spawned.append((replica, incarnation))
        return f"{spec.name}#{replica}"


def attached(*specs):
    app = Application()
    for spec in specs:
        app.add(spec)
    backend = FakeBackend()
    coordinator = ResilienceCoordinator(backend, None, ResilienceConfig())
    coordinator.attach(app)
    return coordinator, backend


class TestReplicaGroup:
    def test_initial_members_from_spec(self):
        coordinator, _ = attached(worker_spec(replicas=2))
        group = coordinator.groups["worker.0"]
        assert group.members == {"worker.0#0", "worker.0#1"}
        assert group.next_index == 2

    def test_death_creates_deficit(self):
        coordinator, _ = attached(worker_spec(replicas=2))
        group = coordinator.record_loss("worker.0#1")
        assert group is not None
        assert len(group.members) == group.spec.replicas - 1
        assert group.lost == 1

    def test_stale_death_ignored(self):
        coordinator, _ = attached(worker_spec(replicas=2))
        assert coordinator.record_loss("worker.0#1") is not None
        # The same replica reported again (e.g. a late suspicion) is ignored.
        assert coordinator.record_loss("worker.0#1") is None

    def test_death_of_untracked_thread_ignored(self):
        coordinator, _ = attached(worker_spec(replicas=2))
        assert coordinator.record_loss("ghost#0") is None

    def test_regeneration_restores_level_and_bumps_incarnation(self):
        coordinator, backend = attached(worker_spec(replicas=2))
        event = coordinator.on_replica_lost("worker.0#0")
        assert event.replacement_physical == "worker.0#2"
        assert backend.spawned == [(2, 1)]
        group = coordinator.groups["worker.0"]
        assert group.members == {"worker.0#1", "worker.0#2"}
        assert group.incarnation == 1
        assert group.regenerated == 1

    def test_replica_indices_never_reused(self):
        coordinator, backend = attached(worker_spec(replicas=2))
        for victim in ("worker.0#0", "worker.0#2", "worker.0#3", "worker.0#1"):
            assert coordinator.on_replica_lost(victim).succeeded
        assert backend.spawned == [(2, 1), (3, 2), (4, 3), (5, 4)]
        assert coordinator.groups["worker.0"].members == {"worker.0#4", "worker.0#5"}

    def test_summary_and_totals(self):
        coordinator, _ = attached(worker_spec(replicas=2),
                                  worker_spec("manager", critical=False))
        coordinator.on_replica_lost("worker.0#0")
        assert coordinator.report()["replication"] == {
            "worker.0": {"live": 2, "target": 2, "lost": 1, "regenerated": 1,
                         "incarnation": 1},
            "manager": {"live": 1, "target": 1, "lost": 0, "regenerated": 0,
                        "incarnation": 0},
        }
