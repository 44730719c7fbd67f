"""Unit tests for the recovery service, attack campaigns and camouflage.

These tests drive the recovery machinery against a *fake* backend so the
decision logic (placement, incarnation numbering, budget limits, dead-letter
interaction) can be asserted without a full simulation; the end-to-end
behaviour on the real backends is covered by the integration tests.
"""

from typing import Any, Dict, List

import pytest

from repro.cluster.presets import sun_ultra_lan
from repro.resilience.attack import (FAIL_NODE, KILL_REPLICA, KILL_THREAD,
                                     AttackEvent, AttackScenario,
                                     ScriptedAdversary)
from repro.resilience.camouflage import CamouflagePolicy
from repro.resilience.recovery import RecoveryService
from repro.resilience.replication import ReplicationManager
from repro.resilience.resource import ResourceManager
from repro.scp.thread import ThreadSpec, physical_name


def dummy_program(ctx):
    yield  # pragma: no cover


class FakeBackend:
    """Minimal stand-in implementing the control surface recovery relies on."""

    def __init__(self, cluster=None):
        self.cluster = cluster
        self.now = 0.0
        self.spawned: List[Dict[str, Any]] = []
        self.killed: List[str] = []
        self._checkpoints: Dict[str, Any] = {}
        self._live: Dict[str, List[str]] = {}
        self.scheduled = []
        self.spawn_cost_s = 0.05

    def spawn_thread(self, spec, *, replica, node=None, restored=None,
                     incarnation=1, extra_delay=0.0):
        pid = physical_name(spec.name, replica)
        self.spawned.append({"pid": pid, "node": node, "restored": restored,
                             "incarnation": incarnation, "extra_delay": extra_delay})
        self._live.setdefault(spec.name, []).append(pid)
        if self.cluster is not None and node is not None:
            self.cluster.place(pid, node, spec.memory_bytes)
        return pid

    def kill_thread(self, pid):
        self.killed.append(pid)
        for members in self._live.values():
            if pid in members:
                members.remove(pid)
                return True
        return False

    def fail_node(self, node):
        return []

    def live_replicas(self, logical):
        return list(self._live.get(logical, []))

    def checkpoint_of(self, logical):
        return self._checkpoints.get(logical)

    def schedule(self, delay, callback, label=""):
        self.scheduled.append((delay, callback, label))


def make_recovery(regenerate=True, cluster=None, backend=None):
    cluster = cluster or sun_ultra_lan(4, manager_node=False)
    backend = backend or FakeBackend(cluster)
    replication = ReplicationManager()
    spec = ThreadSpec(name="worker.0", program=dummy_program, replicas=2, critical=True)
    replication.add_group(spec, 2)
    for replica in range(2):
        cluster.place(physical_name("worker.0", replica), f"sun{replica:02d}")
        backend._live.setdefault("worker.0", []).append(physical_name("worker.0", replica))
    recovery = RecoveryService(backend=backend, replication=replication,
                               resources=ResourceManager(cluster), regenerate=regenerate)
    return recovery, backend, replication, cluster


class TestRecoveryService:
    def test_regenerates_on_loss(self):
        recovery, backend, replication, cluster = make_recovery()
        event = recovery.on_replica_lost("worker.0#1", reason="attack")
        assert event.succeeded
        assert backend.spawned[0]["pid"] == "worker.0#2"
        assert backend.spawned[0]["incarnation"] == 1
        # Placed away from the surviving replica's node.
        assert backend.spawned[0]["node"] != "sun00"
        assert replication.group("worker.0").deficit == 0

    def test_static_replication_records_but_does_not_regenerate(self):
        recovery, backend, replication, _ = make_recovery(regenerate=False)
        event = recovery.on_replica_lost("worker.0#1")
        assert not event.succeeded
        assert backend.spawned == []
        assert replication.group("worker.0").deficit == 1

    def test_stale_loss_ignored(self):
        recovery, backend, _, _ = make_recovery()
        recovery.on_replica_lost("worker.0#1")
        again = recovery.on_replica_lost("worker.0#1")
        assert again is None
        assert len(backend.spawned) == 1

    def test_unknown_thread_ignored(self):
        recovery, backend, _, _ = make_recovery()
        assert recovery.on_replica_lost("stranger#0") is None

    def test_restored_state_passed_to_new_replica(self):
        recovery, backend, _, _ = make_recovery()
        backend._checkpoints["worker.0"] = {"progress": 5}
        recovery.on_replica_lost("worker.0#0")
        assert backend.spawned[0]["restored"] == {"progress": 5}
        # State transfer charged as extra start-up delay.
        assert backend.spawned[0]["extra_delay"] > 0

    def test_regeneration_budget(self):
        recovery, backend, replication, cluster = make_recovery()
        recovery.max_regenerations_per_group = 1
        recovery.on_replica_lost("worker.0#0")
        event = recovery.on_replica_lost("worker.0#1")
        assert not event.succeeded
        assert "budget" in event.reason

    def test_no_placement_available_aborts(self):
        cluster = sun_ultra_lan(2, manager_node=False)
        recovery, backend, replication, _ = make_recovery(cluster=cluster)
        cluster.fail_node("sun00")
        cluster.fail_node("sun01")
        event = recovery.on_replica_lost("worker.0#0")
        assert not event.succeeded
        assert recovery.failed_recoveries()
        assert recovery.reconfiguration.aborted()

    def test_event_log(self):
        recovery, *_ = make_recovery()
        recovery.on_replica_lost("worker.0#0")
        assert len(recovery.successful_recoveries()) == 1
        assert len(recovery.events) == 1


class TestAttackScenarios:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            AttackEvent(time=-1.0, kind=KILL_REPLICA, target="w")
        with pytest.raises(ValueError):
            AttackEvent(time=0.0, kind="nuke", target="w")
        with pytest.raises(ValueError):
            AttackEvent(time=0.0, kind=KILL_REPLICA, target="")

    def test_factories(self):
        single = AttackScenario.single_worker_kill("worker.1", at=2.0)
        assert len(single) == 1 and single.events[0].kind == KILL_REPLICA
        outage = AttackScenario.node_outage("sun03", at=1.0)
        assert outage.events[0].kind == FAIL_NODE
        wipeout = AttackScenario.group_wipeout("worker.2", at=1.0, replicas=3)
        assert len(wipeout) == 3
        assert all(e.target == "worker.2" for e in wipeout.events)

    def test_sustained_assault_deterministic(self):
        a = AttackScenario.sustained_assault(["w0", "w1"], start=1.0, interval=0.5,
                                             rounds=5, seed=3)
        b = AttackScenario.sustained_assault(["w0", "w1"], start=1.0, interval=0.5,
                                             rounds=5, seed=3)
        assert [e.target for e in a.events] == [e.target for e in b.events]
        assert [e.time for e in a.events] == [1.0, 1.5, 2.0, 2.5, 3.0]

    def test_sorted_events(self):
        scenario = AttackScenario("x")
        scenario.add(3.0, KILL_REPLICA, "a").add(1.0, KILL_REPLICA, "b")
        assert [e.time for e in scenario.sorted_events()] == [1.0, 3.0]

    def test_adversary_kill_replica_hits_first_live(self):
        backend = FakeBackend()
        backend._live["worker.0"] = ["worker.0#0", "worker.0#1"]
        adversary = ScriptedAdversary(backend, AttackScenario("t"))
        hit = adversary.execute_now(AttackEvent(0.0, KILL_REPLICA, "worker.0"))
        assert hit
        assert backend.killed == ["worker.0#0"]

    def test_adversary_kill_specific_physical(self):
        backend = FakeBackend()
        backend._live["worker.0"] = ["worker.0#0", "worker.0#1"]
        adversary = ScriptedAdversary(backend, AttackScenario("t"))
        adversary.execute_now(AttackEvent(0.0, KILL_REPLICA, "worker.0#1"))
        assert backend.killed == ["worker.0#1"]

    def test_adversary_kill_thread_hits_all_replicas(self):
        backend = FakeBackend()
        backend._live["worker.0"] = ["worker.0#0", "worker.0#1"]
        adversary = ScriptedAdversary(backend, AttackScenario("t"))
        adversary.execute_now(AttackEvent(0.0, KILL_THREAD, "worker.0"))
        assert set(backend.killed) == {"worker.0#0", "worker.0#1"}

    def test_adversary_records_misses(self):
        backend = FakeBackend()
        adversary = ScriptedAdversary(backend, AttackScenario("t"))
        hit = adversary.execute_now(AttackEvent(0.0, KILL_REPLICA, "nobody"))
        assert not hit
        assert adversary.skipped and not adversary.executed

    def test_arm_schedules_all_events(self):
        backend = FakeBackend()
        scenario = AttackScenario.sustained_assault(["w"], start=0.5, interval=0.5, rounds=4)
        ScriptedAdversary(backend, scenario).arm()
        assert len(backend.scheduled) == 4


class TestCamouflage:
    def test_migration_moves_replica(self):
        recovery, backend, replication, cluster = make_recovery()
        policy = CamouflagePolicy(backend=backend, replication=replication,
                                  recovery=recovery, period=1.0,
                                  logical_threads=["worker.0"], seed=0)
        record = policy.migrate_one("worker.0")
        assert record.succeeded
        assert backend.killed  # the old replica was retired
        assert backend.spawned  # a replacement was created first
        assert policy.successful_migrations() == 1

    def test_migration_of_dead_group_fails_gracefully(self):
        recovery, backend, replication, _ = make_recovery()
        backend._live["worker.0"] = []
        policy = CamouflagePolicy(backend=backend, replication=replication,
                                  recovery=recovery, period=1.0,
                                  logical_threads=["worker.0"], seed=0)
        record = policy.migrate_one("worker.0")
        assert not record.succeeded

    def test_invalid_period(self):
        recovery, backend, replication, _ = make_recovery()
        with pytest.raises(ValueError):
            CamouflagePolicy(backend=backend, replication=replication,
                             recovery=recovery, period=0.0,
                             logical_threads=["worker.0"])

    def test_arm_schedules_tick(self):
        recovery, backend, replication, _ = make_recovery()
        policy = CamouflagePolicy(backend=backend, replication=replication,
                                  recovery=recovery, period=2.0,
                                  logical_threads=["worker.0"])
        policy.arm()
        policy.arm()  # idempotent
        assert len(backend.scheduled) == 1
