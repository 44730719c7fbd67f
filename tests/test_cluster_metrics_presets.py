"""Unit tests for run metrics and the cluster presets."""

import pytest

from repro.cluster.metrics import MetricsCollector, RunMetrics
from repro.cluster.network import (SharedEthernet, SharedMemoryInterconnect,
                                    SwitchedNetwork)
from repro.cluster.presets import (SUN_ULTRA_FLOPS, shared_memory_smp,
                                    sun_ultra_lan, switched_lan)


class TestRunMetrics:
    def test_phase_fraction(self):
        metrics = RunMetrics(phase_seconds={"a": 3.0, "b": 1.0})
        assert metrics.phase_fraction("a") == pytest.approx(0.75)
        assert metrics.phase_fraction("missing") == 0.0

    def test_utilisation(self):
        metrics = RunMetrics(elapsed_seconds=10.0,
                             node_busy_seconds={"n0": 5.0, "n1": 10.0})
        util = metrics.utilisation()
        assert util["n0"] == pytest.approx(0.5)
        assert util["n1"] == pytest.approx(1.0)
        assert metrics.mean_utilisation() == pytest.approx(0.75)

    def test_utilisation_zero_elapsed(self):
        metrics = RunMetrics(elapsed_seconds=0.0, node_busy_seconds={"n0": 5.0})
        assert metrics.utilisation()["n0"] == 0.0


class TestMetricsCollector:
    def test_finalise_builds_run_metrics(self):
        collector = MetricsCollector()
        collector.add_phase("screening", 2.0)
        collector.add_node_busy("n0", 2.0)
        collector.increment("failures_injected", 3)
        collector.increment("replicas_regenerated")
        metrics = collector.finalise(elapsed_seconds=5.0, backend="sim", workers=4,
                                     subcubes=8, replication_level=2,
                                     messages=10, bytes_sent=1000)
        assert metrics.elapsed_seconds == 5.0
        assert metrics.failures_injected == 3
        assert metrics.replicas_regenerated == 1
        assert metrics.phase_seconds["screening"] == pytest.approx(2.0)
        assert metrics.node_busy_seconds["n0"] == pytest.approx(2.0)
        assert metrics.messages == 10

    def test_count_unknown_counter_is_zero(self):
        assert MetricsCollector().count("anything") == 0


class TestPresets:
    def test_sun_ultra_lan_has_manager_node(self):
        cluster = sun_ultra_lan(4)
        assert cluster.size == 5
        assert "manager" in cluster.node_names
        assert isinstance(cluster.interconnect, SharedEthernet)

    def test_sun_ultra_lan_without_manager(self):
        cluster = sun_ultra_lan(4, manager_node=False)
        assert cluster.size == 4
        assert "manager" not in cluster.node_names

    def test_sun_ultra_flop_rate_applied(self):
        cluster = sun_ultra_lan(2)
        assert cluster.node("sun00").spec.flops == pytest.approx(SUN_ULTRA_FLOPS)

    def test_switched_lan_uses_switch(self):
        assert isinstance(switched_lan(2).interconnect, SwitchedNetwork)

    def test_shared_memory_smp(self):
        cluster = shared_memory_smp(4)
        assert isinstance(cluster.interconnect, SharedMemoryInterconnect)
        assert cluster.size == 5  # manager cpu + 4 worker cpus

    def test_worker_count_validation(self):
        with pytest.raises(ValueError):
            sun_ultra_lan(0)
