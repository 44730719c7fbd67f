"""Unit tests for the failure detector, resource manager and reconfiguration log."""

import pytest

from repro.cluster.presets import sun_ultra_lan
from repro.config import ResilienceConfig
from repro.resilience.coordinator import ResilienceCoordinator
from repro.resilience.detector import HeartbeatFailureDetector
from repro.resilience.resource import ResourceManager
from repro.scp.errors import PlacementError
from repro.scp.runtime import Application
from repro.scp.thread import ThreadSpec


class FakeClock:
    def __init__(self):
        self.value = 0.0

    def __call__(self):
        return self.value

    def advance(self, dt):
        self.value += dt


class TestHeartbeatDetector:
    def make(self, period=1.0, misses=3):
        clock = FakeClock()
        suspected = []
        detector = HeartbeatFailureDetector(
            period=period, misses=misses, clock=clock,
            on_suspect=lambda pid, record: suspected.append(pid))
        return detector, clock, suspected

    def test_validation(self):
        clock = FakeClock()
        with pytest.raises(ValueError):
            HeartbeatFailureDetector(period=0, misses=3, clock=clock, on_suspect=print)
        with pytest.raises(ValueError):
            HeartbeatFailureDetector(period=1, misses=0, clock=clock, on_suspect=print)

    def test_healthy_replica_never_suspected(self):
        detector, clock, suspected = self.make()
        detector.watch("w#0")
        for _ in range(10):
            clock.advance(1.0)
            detector.on_heartbeat("w#0")
            detector.sweep()
        assert suspected == []

    def test_silent_replica_suspected_after_misses(self):
        detector, clock, suspected = self.make(period=1.0, misses=3)
        detector.watch("w#0")
        clock.advance(2.9)
        detector.sweep()
        assert suspected == []
        clock.advance(0.2)  # beyond 3 missed heartbeats
        records = detector.sweep()
        assert suspected == ["w#0"]
        assert records[0].silence > 3.0

    def test_suspicion_reported_only_once(self):
        detector, clock, suspected = self.make(period=1.0, misses=2)
        detector.watch("w#0")
        clock.advance(5.0)
        detector.sweep()
        detector.sweep()
        assert suspected == ["w#0"]

    def test_heartbeat_clears_suspicion_path(self):
        detector, clock, suspected = self.make(period=1.0, misses=2)
        detector.watch("w#0")
        clock.advance(1.5)
        detector.on_heartbeat("w#0")
        clock.advance(1.5)
        detector.sweep()
        assert suspected == []

    def test_unknown_sender_auto_watched(self):
        detector, clock, suspected = self.make()
        detector.on_heartbeat("new#0")
        assert "new#0" in detector.watched()

    def test_forgotten_replica_not_suspected(self):
        detector, clock, suspected = self.make(period=1.0, misses=1)
        detector.watch("w#0")
        detector.forget("w#0")
        clock.advance(10.0)
        detector.sweep()
        assert suspected == []

    def test_forgotten_replica_heartbeats_ignored(self):
        detector, clock, _ = self.make()
        detector.watch("w#0")
        detector.forget("w#0")
        detector.on_heartbeat("w#0")
        assert "w#0" not in detector.watched()

    def test_from_config(self):
        clock = FakeClock()
        detector = HeartbeatFailureDetector.from_config(
            ResilienceConfig(heartbeat_period=0.25, heartbeat_misses=4),
            clock=clock, on_suspect=lambda *_: None)
        assert detector.timeout == pytest.approx(1.0)


class TestResourceManager:
    def test_prefers_least_loaded_alive_node(self):
        cluster = sun_ultra_lan(3, manager_node=False)
        cluster.place("a#0", "sun00")
        cluster.place("b#0", "sun01")
        cluster.place("c#0", "sun01")
        manager = ResourceManager(cluster)
        assert manager.select_node() == "sun02"

    def test_avoids_nodes_hosting_the_same_group(self):
        cluster = sun_ultra_lan(2, manager_node=False)
        cluster.place("w#0", "sun00")
        manager = ResourceManager(cluster)
        chosen = manager.select_node(group_members=["w#0"])
        assert chosen == "sun01"

    def test_relaxes_colocation_when_no_alternative(self):
        cluster = sun_ultra_lan(2, manager_node=False)
        cluster.place("w#0", "sun00")
        cluster.fail_node("sun01")
        manager = ResourceManager(cluster)
        # Only sun00 is alive; co-location is allowed as a last resort.
        assert manager.select_node(group_members=["w#0"]) == "sun00"

    def test_respects_memory_constraint(self):
        cluster = sun_ultra_lan(2, manager_node=False)
        manager = ResourceManager(cluster)
        huge = cluster.node("sun00").spec.memory_bytes * 2
        with pytest.raises(PlacementError):
            manager.select_node(memory_bytes=huge)

    def test_all_nodes_dead_raises(self):
        cluster = sun_ultra_lan(2, manager_node=False)
        cluster.fail_node("sun00")
        cluster.fail_node("sun01")
        with pytest.raises(PlacementError):
            ResourceManager(cluster).select_node()

    def test_granularity_advice(self):
        assert ResourceManager.suggest_subcubes(8, multiplier=2) == 16
        assert ResourceManager.suggest_subcubes(16, multiplier=3, cap=32) == 32
        with pytest.raises(ValueError):
            ResourceManager.suggest_subcubes(0)


class SpawningBackend:
    """Just enough backend for the coordinator to regenerate replicas."""

    now = 0.0

    def subscribe_thread_death(self, callback):
        pass

    def checkpoint_of(self, logical):
        return None

    def spawn_thread(self, spec, *, replica, node=None, restored=None, incarnation=1):
        return f"{spec.name}#{replica}"


def dummy_program(ctx):
    yield  # pragma: no cover


class TestReconfigurationProtocol:
    """Reconfigurations, as the report derives them from the coordinator's
    recovery events: every loss that reached regeneration."""

    def test_summary(self):
        cluster = sun_ultra_lan(2, manager_node=False)
        app = Application()
        for name in ("worker.0", "worker.1"):
            app.add(ThreadSpec(name=name, program=dummy_program, replicas=2))
        coordinator = ResilienceCoordinator(SpawningBackend(), cluster, ResilienceConfig())
        coordinator.attach(app)
        assert coordinator.on_replica_lost("worker.0#0").succeeded
        cluster.fail_node("sun00")
        cluster.fail_node("sun01")
        assert not coordinator.on_replica_lost("worker.0#1").succeeded
        assert coordinator.on_replica_lost("worker.0#1") is None  # stale
        assert coordinator.report()["reconfigurations"] == {
            "total": 2, "completed": 1, "aborted": 1, "by_logical": {"worker.0": 2}}
