"""Unit tests for the cluster container (nodes + interconnect + placement)."""

import pytest

from repro.cluster.machine import Cluster, ClusterError
from repro.cluster.network import SharedEthernet
from repro.cluster.node import NodeSpec


def make_cluster(n=3, flops=1e7):
    specs = [NodeSpec(name=f"n{i}", flops=flops, memory_bytes=10_000) for i in range(n)]
    return Cluster(specs, interconnect=SharedEthernet())


class TestConstruction:
    def test_requires_at_least_one_node(self):
        with pytest.raises(ClusterError):
            Cluster([])

    def test_duplicate_names_rejected(self):
        specs = [NodeSpec(name="x"), NodeSpec(name="x")]
        with pytest.raises(ClusterError):
            Cluster(specs)

    def test_node_lookup(self):
        cluster = make_cluster(2)
        assert cluster.node("n1").name == "n1"
        with pytest.raises(ClusterError):
            cluster.node("missing")

    def test_size_and_names(self):
        cluster = make_cluster(4)
        assert cluster.size == 4
        assert cluster.node_names == ["n0", "n1", "n2", "n3"]


class TestPlacement:
    def test_place_and_locate(self):
        cluster = make_cluster()
        cluster.place("t1", "n0", memory_bytes=100)
        assert cluster.location_of("t1") == "n0"
        assert cluster.node("n0").hosts("t1")

    def test_double_placement_rejected(self):
        cluster = make_cluster()
        cluster.place("t1", "n0")
        with pytest.raises(ClusterError):
            cluster.place("t1", "n1")

    def test_unplace(self):
        cluster = make_cluster()
        cluster.place("t1", "n0")
        cluster.unplace("t1")
        assert cluster.location_of("t1") is None
        assert cluster.node("n0").load == 0

    def test_least_loaded_nodes_ordering(self):
        cluster = make_cluster(3)
        cluster.place("a", "n1")
        cluster.place("b", "n1")
        cluster.place("c", "n2")
        assert cluster.least_loaded_nodes() == ["n0", "n2", "n1"]

    def test_least_loaded_excludes(self):
        cluster = make_cluster(3)
        assert cluster.least_loaded_nodes(exclude=["n0"]) == ["n1", "n2"]


class TestComputeAndComms:
    def test_compute_seconds_uses_processor_sharing(self):
        cluster = make_cluster(flops=1e7)
        cluster.place("a", "n0")
        cluster.place("b", "n0")
        assert cluster.compute_seconds("a", 1e7) == pytest.approx(2.0)

    def test_compute_for_unplaced_thread_rejected(self):
        cluster = make_cluster()
        with pytest.raises(ClusterError):
            cluster.compute_seconds("ghost", 1.0)

    def test_compute_charges_node_busy_time(self):
        cluster = make_cluster(flops=1e7)
        cluster.place("a", "n0")
        cluster.compute_seconds("a", 2e7)
        assert cluster.node("n0").busy_time == pytest.approx(2.0)

    def test_transfer_window_routes_between_nodes(self):
        cluster = make_cluster()
        cluster.place("a", "n0")
        cluster.place("b", "n1")
        start, finish = cluster.transfer_window("a", "b", 11_000, earliest=0.0)
        assert finish > start >= 0.0

    def test_transfer_with_unplaced_endpoint_rejected(self):
        cluster = make_cluster()
        cluster.place("a", "n0")
        with pytest.raises(ClusterError):
            cluster.transfer_window("a", "ghost", 100, earliest=0.0)


class TestFailures:
    def test_fail_node_returns_victims(self):
        cluster = make_cluster()
        cluster.place("a", "n0")
        cluster.place("b", "n0")
        cluster.place("c", "n1")
        victims = cluster.fail_node("n0")
        assert victims == {"a", "b"}
        assert cluster.location_of("a") is None
        assert cluster.location_of("c") == "n1"
        assert not cluster.node("n0").alive

    def test_alive_nodes_excludes_failed(self):
        cluster = make_cluster(3)
        cluster.fail_node("n1")
        assert [n.name for n in cluster.alive_nodes()] == ["n0", "n2"]

    def test_placement_on_failed_node_rejected(self):
        cluster = make_cluster()
        cluster.fail_node("n0")
        with pytest.raises(Exception):
            cluster.place("a", "n0")
