"""Unit tests for the backend-independent runtime objects."""

import pytest

from repro.scp.errors import PlacementError, RuntimeStateError
from repro.scp.runtime import Application, RunResult, ThreadOutcome, plan_placement
from repro.scp.thread import ThreadSpec


def dummy_program(ctx):
    yield  # pragma: no cover


class TestApplication:
    def test_add_thread_registers_spec(self):
        app = Application()
        spec = app.add_thread("manager", dummy_program)
        assert app.specs == [spec]

    def test_duplicate_thread_rejected(self):
        app = Application()
        app.add_thread("a", dummy_program)
        with pytest.raises(RuntimeStateError):
            app.add_thread("a", dummy_program)

    def test_spec_lookup(self):
        app = Application()
        spec = app.add_thread("a", dummy_program, params={"x": 1})
        assert app.spec("a") is spec
        with pytest.raises(RuntimeStateError):
            app.spec("missing")

    def test_validate_requires_threads(self):
        with pytest.raises(RuntimeStateError):
            Application().validate()


class TestPlanPlacement:
    def specs(self, workers=3, replicas=1):
        return [ThreadSpec(name=f"worker.{i}", program=dummy_program, replicas=replicas)
                for i in range(workers)]

    def test_round_robin_single_replica(self):
        placement = plan_placement(self.specs(3), ["n0", "n1", "n2"])
        assert placement == {"worker.0#0": "n0", "worker.1#0": "n1", "worker.2#0": "n2"}

    def test_replicas_shifted_to_distinct_nodes(self):
        placement = plan_placement(self.specs(2, replicas=2), ["n0", "n1"])
        assert placement["worker.0#0"] == "n0"
        assert placement["worker.0#1"] == "n1"
        assert placement["worker.1#0"] == "n1"
        assert placement["worker.1#1"] == "n0"

    def test_level2_on_matching_node_count_doubles_load_per_node(self):
        nodes = ["n0", "n1", "n2", "n3"]
        placement = plan_placement(self.specs(4, replicas=2), nodes)
        per_node = {n: 0 for n in nodes}
        for node in placement.values():
            per_node[node] += 1
        assert all(count == 2 for count in per_node.values())

    def test_pinned_thread(self):
        specs = [ThreadSpec(name="manager", program=dummy_program)] + self.specs(2)
        placement = plan_placement(specs, ["n0", "n1"], pinned={"manager": "boss"})
        assert placement["manager#0"] == "boss"
        assert placement["worker.0#0"] == "n0"

    def test_explicit_placement_respected(self):
        spec = ThreadSpec(name="w", program=dummy_program, replicas=2,
                          placement=["nX", "nY"])
        placement = plan_placement([spec], ["n0"])
        assert placement == {"w#0": "nX", "w#1": "nY"}

    def test_empty_node_list_rejected(self):
        with pytest.raises(PlacementError):
            plan_placement(self.specs(1), [])

    def test_more_workers_than_nodes_wraps_around(self):
        placement = plan_placement(self.specs(4), ["n0", "n1"])
        assert placement["worker.2#0"] == "n0"
        assert placement["worker.3#0"] == "n1"


class TestRunResult:
    def test_return_of(self):
        result = RunResult(returns={"manager": 42})
        assert result.return_of("manager") == 42
        with pytest.raises(KeyError):
            result.return_of("ghost")

    def test_crashed_and_killed_listings(self):
        outcomes = {
            "a#0": ThreadOutcome("a#0", "a", 0, "finished"),
            "b#0": ThreadOutcome("b#0", "b", 0, "crashed", error="boom"),
            "c#0": ThreadOutcome("c#0", "c", 0, "killed"),
        }
        result = RunResult(outcomes=outcomes)
        assert result.crashed_threads() == ["b#0"]
        assert result.killed_threads() == ["c#0"]
