"""Unit tests for the workstation (node) model."""

import pytest

from repro.cluster.node import Node, NodeError, NodeSpec


def make_node(flops=1e7, memory=1000, cores=1):
    return Node(NodeSpec(name="n0", flops=flops, memory_bytes=memory, cores=cores))


class TestNodeSpec:
    def test_rejects_nonpositive_flops(self):
        with pytest.raises(ValueError):
            NodeSpec(name="n", flops=0)

    def test_rejects_nonpositive_memory(self):
        with pytest.raises(ValueError):
            NodeSpec(name="n", memory_bytes=0)

    def test_rejects_zero_cores(self):
        with pytest.raises(ValueError):
            NodeSpec(name="n", cores=0)


class TestHosting:
    def test_host_and_evict(self):
        node = make_node()
        node.host("t1", memory_bytes=100)
        assert node.hosts("t1")
        assert node.load == 1
        assert node.memory_used == 100
        node.evict("t1")
        assert not node.hosts("t1")
        assert node.load == 0

    def test_double_host_rejected(self):
        node = make_node()
        node.host("t1")
        with pytest.raises(NodeError):
            node.host("t1")

    def test_memory_limit_enforced(self):
        node = make_node(memory=100)
        node.host("t1", memory_bytes=80)
        with pytest.raises(NodeError):
            node.host("t2", memory_bytes=50)

    def test_memory_free_accounting(self):
        node = make_node(memory=1000)
        node.host("t1", memory_bytes=300)
        assert node.memory_free == 700

    def test_host_on_failed_node_rejected(self):
        node = make_node()
        node.fail()
        with pytest.raises(NodeError):
            node.host("t1")

    def test_evict_unknown_thread_is_noop(self):
        node = make_node()
        node.evict("ghost")
        assert node.load == 0


class TestCompute:
    def test_compute_seconds_single_thread(self):
        node = make_node(flops=1e7)
        node.host("t1")
        assert node.compute_seconds(1e7) == pytest.approx(1.0)

    def test_processor_sharing_doubles_time(self):
        node = make_node(flops=1e7)
        node.host("t1")
        node.host("t2")
        assert node.compute_seconds(1e7) == pytest.approx(2.0)

    def test_multicore_restores_full_speed(self):
        node = make_node(flops=1e7, cores=2)
        node.host("t1")
        node.host("t2")
        assert node.compute_seconds(1e7) == pytest.approx(1.0)

    def test_thread_never_gets_more_than_one_core(self):
        node = make_node(flops=1e7, cores=4)
        node.host("t1")
        assert node.compute_seconds(1e7) == pytest.approx(1.0)

    def test_explicit_concurrency_override(self):
        node = make_node(flops=1e7)
        node.host("t1")
        assert node.compute_seconds(1e7, concurrent_threads=4) == pytest.approx(4.0)

    def test_negative_flops_rejected(self):
        node = make_node()
        with pytest.raises(ValueError):
            node.compute_seconds(-1.0)

    def test_charge_compute_accumulates(self):
        node = make_node()
        node.charge_compute(2.0)
        node.charge_compute(1.0)
        assert node.busy_time == pytest.approx(3.0)

    def test_zero_flops_costs_zero_time(self):
        node = make_node()
        node.host("t1")
        assert node.compute_seconds(0.0) == 0.0


class TestFailure:
    def test_fail_returns_victims_and_clears(self):
        node = make_node()
        node.host("a")
        node.host("b")
        victims = node.fail()
        assert victims == {"a", "b"}
        assert not node.alive
        assert node.load == 0

    def test_recover_brings_node_back_empty(self):
        node = make_node()
        node.host("a")
        node.fail()
        node.recover()
        assert node.alive
        assert node.load == 0
        node.host("c")
        assert node.hosts("c")
