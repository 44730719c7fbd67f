"""Unit tests for thread specifications, physical naming and the router."""

import pytest

from repro.scp.group import Router
from repro.scp.thread import ThreadSpec, parse_physical, physical_name


def dummy_program(ctx):
    yield  # pragma: no cover - never executed


class TestPhysicalNaming:
    def test_round_trip(self):
        pid = physical_name("worker.3", 1)
        assert pid == "worker.3#1"
        assert parse_physical(pid) == ("worker.3", 1)

    def test_unreplicated_id_parses(self):
        assert parse_physical("manager") == ("manager", 0)

    def test_logical_name_may_not_contain_separator(self):
        with pytest.raises(ValueError):
            physical_name("worker#1", 0)

    def test_negative_replica_rejected(self):
        with pytest.raises(ValueError):
            physical_name("worker", -1)

    def test_malformed_replica_index_rejected(self):
        with pytest.raises(ValueError):
            parse_physical("worker#one")


class TestThreadSpec:
    def test_physical_ids(self):
        spec = ThreadSpec(name="worker.0", program=dummy_program, replicas=3)
        assert spec.physical_ids() == ("worker.0#0", "worker.0#1", "worker.0#2")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            ThreadSpec(name="", program=dummy_program)

    def test_separator_in_name_rejected(self):
        with pytest.raises(ValueError):
            ThreadSpec(name="bad#name", program=dummy_program)

    def test_zero_replicas_rejected(self):
        with pytest.raises(ValueError):
            ThreadSpec(name="w", program=dummy_program, replicas=0)

    def test_placement_shorter_than_replicas_rejected(self):
        with pytest.raises(ValueError):
            ThreadSpec(name="w", program=dummy_program, replicas=3, placement=["n0"])


class TestRouter:
    def test_register_and_targets(self):
        router = Router()
        router.register("worker.0", "worker.0#0")
        router.register("worker.0", "worker.0#1")
        assert router.physical_targets("worker.0") == ["worker.0#0", "worker.0#1"]

    def test_duplicate_physical_registration_rejected(self):
        router = Router()
        router.register("w", "w#0")
        with pytest.raises(ValueError):
            router.register("w", "w#0")

    def test_unregister(self):
        router = Router()
        router.register("w", "w#0")
        assert router.unregister("w#0") == "w"
        assert router.physical_targets("w") == []
        assert router.unregister("w#0") is None

    def test_unknown_logical_targets_empty(self):
        assert Router().physical_targets("ghost") == []
