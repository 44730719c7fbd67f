"""Tests for the scenario library and the traffic/chaos simulator.

Covers the registry contract (actionable unknown-name errors), the seeded
trace recorder/replayer, end-to-end quick simulations and their
schema-versioned JSON report, and -- on the process backend -- each
chaos profile: completion, bit-identical composites against the
sequential reference, and populated recovery metrics.
"""

from __future__ import annotations

import json
import math
import random

import numpy as np
import pytest

from repro.cli import main
from repro.scenarios import (SIMULATE_SCHEMA, TRACE_SCHEMA, BurstyArrivals,
                             HeavyTailArrivals, KillStorm, Scenario, SceneSpec,
                             SteadyArrivals, Trace, describe_scenarios,
                             get_scenario, record_trace, register_scenario,
                             run_simulation, scenario_names)
from repro.scenarios.scenes import SceneSpec as _SceneSpec


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

class TestScenarioRegistry:
    def test_library_registers_the_documented_scenarios(self):
        names = scenario_names()
        assert len(names) >= 12
        for expected in ("thumbnail", "deep-bands", "low-contrast",
                         "high-noise", "camouflage", "threshold-sweep",
                         "steady", "bursty", "heavy-tail", "kill-storm",
                         "straggler", "memory-pressure"):
            assert expected in names
        assert all(describe_scenarios()[name] for name in names)

    def test_unknown_scenario_error_lists_the_registry(self):
        with pytest.raises(ValueError) as excinfo:
            get_scenario("does-not-exist")
        message = str(excinfo.value)
        assert "unknown scenario 'does-not-exist'" in message
        assert "steady" in message and "kill-storm" in message

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(get_scenario("steady"))

    def test_scenario_validation(self):
        scene = SceneSpec()
        with pytest.raises(ValueError, match="non-empty"):
            Scenario(name="", description="x", scene=scene,
                     arrivals=SteadyArrivals())
        with pytest.raises(ValueError, match="requests"):
            Scenario(name="x", description="x", scene=scene,
                     arrivals=SteadyArrivals(), requests=0)
        with pytest.raises(ValueError, match="thresholds"):
            Scenario(name="x", description="x", scene=scene,
                     arrivals=SteadyArrivals(), thresholds=(-0.1,))

    def test_scene_spec_enforces_placement_capacity(self):
        with pytest.raises(ValueError, match="capacity|host"):
            _SceneSpec(rows=16, cols=16, vehicles=9, camouflaged=0)

    def test_quick_shrinks_scene_within_capacity(self):
        spec = SceneSpec(bands=512, rows=64, cols=64, vehicles=3,
                         camouflaged=2, distinct=2)
        quick = spec.quick()
        assert quick.bands <= 64 and quick.rows <= 32 and quick.cols <= 32
        quick.build_cubes(0, 1)  # placeable at the shrunken size


# ---------------------------------------------------------------------------
# arrivals and traces
# ---------------------------------------------------------------------------

class TestTraces:
    def test_recorded_trace_is_deterministic_per_seed(self):
        process = HeavyTailArrivals(scale=0.01, alpha=1.2, cap=0.5)
        a = record_trace(process, "heavy-tail", seed=7, requests=16)
        b = record_trace(process, "heavy-tail", seed=7, requests=16)
        c = record_trace(process, "heavy-tail", seed=8, requests=16)
        assert a == b
        assert a != c

    def test_arrival_shapes(self):
        rng = random.Random(0)
        steady = SteadyArrivals(interval=0.05).offsets(rng, 4)
        assert steady == pytest.approx([0.0, 0.05, 0.10, 0.15])
        bursty = BurstyArrivals(burst=2, gap=0.5, within=0.01).offsets(rng, 4)
        assert bursty == pytest.approx([0.0, 0.01, 0.5, 0.51])
        heavy = HeavyTailArrivals(cap=0.2).offsets(rng, 32)
        assert heavy == sorted(heavy)
        gaps = [b - a for a, b in zip(heavy, heavy[1:])]
        assert max(gaps) <= 0.2 + 1e-12

    def test_trace_round_trips_through_json(self, tmp_path):
        trace = record_trace(BurstyArrivals(), "bursty", seed=3, requests=6)
        path = trace.save(tmp_path / "trace.json")
        assert Trace.load(path) == trace
        assert json.loads(path.read_text())["schema"] == TRACE_SCHEMA

    def test_foreign_trace_schema_is_rejected(self):
        data = record_trace(SteadyArrivals(), "steady", seed=0,
                            requests=2).to_dict()
        data["schema"] = "repro-fusion/sim-trace/v0"
        with pytest.raises(ValueError, match="unsupported trace schema"):
            Trace.from_dict(data)

    def test_trace_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            Trace(scenario="x", seed=0, offsets=())
        with pytest.raises(ValueError, match="monotone"):
            Trace(scenario="x", seed=0, offsets=(0.2, 0.1))
        with pytest.raises(ValueError, match=">= 0"):
            Trace(scenario="x", seed=0, offsets=(-0.1, 0.2))


# ---------------------------------------------------------------------------
# end-to-end simulations (thread-backed: cheap enough for every run)
# ---------------------------------------------------------------------------

class TestSimulateQuick:
    @pytest.mark.parametrize("name", ["thumbnail", "steady", "bursty",
                                      "heavy-tail", "threshold-sweep",
                                      "low-contrast"])
    def test_quick_simulation_runs_and_ledger_accepts_record(self, name):
        # (The id is kept stable for CI history; "record" is the simulate
        # report itself.)
        result = run_simulation(name, engine="pipeline", backend="local",
                                quick=True, requests=3)
        assert result.parity["ok"] and result.parity["verified"] >= 1
        assert len(result.reports) == result.requests
        assert result.throughput_rps > 0
        record = json.loads(json.dumps(result.record()))
        assert record["schema"] == SIMULATE_SCHEMA
        assert record["scenario"] == name and record["quick"] is True
        for metric in ("throughput_rps", "latency_p50_ms", "latency_p95_ms"):
            assert math.isfinite(record[metric]) and record[metric] > 0

    def test_replayed_trace_overrides_requests(self):
        trace = record_trace(SteadyArrivals(interval=0.0), "steady",
                             seed=1, requests=2)
        result = run_simulation("steady", engine="pipeline", backend="local",
                                quick=True, trace=trace, requests=9)
        assert result.requests == 2
        assert result.trace == trace

    def test_chaos_scenario_rejects_non_pipeline_engine(self):
        with pytest.raises(ValueError, match="pipeline"):
            run_simulation("kill-storm", engine="distributed")

    def test_kill_storm_rejects_thread_executor(self):
        with pytest.raises(ValueError, match="process backend"):
            run_simulation("kill-storm", backend="local", quick=True)


# ---------------------------------------------------------------------------
# chaos profiles on the process backend
# ---------------------------------------------------------------------------

class TestChaosProfiles:
    """Each profile must complete, stay bit-identical to the sequential
    reference, and populate its recovery metrics."""

    @pytest.mark.flaky(reruns=2)
    def test_kill_storm_recovers_bit_identically(self):
        result = run_simulation("kill-storm", quick=True)
        assert result.backend == "process:2"
        assert len(result.reports) == result.requests
        assert result.parity["ok"] and result.parity["verified"] >= 1
        assert result.recovery["profile"] == "kill-storm"
        assert result.recovery["kills_delivered"] >= 1
        assert result.recovery["retries"] >= 1
        # Satellite regression: no kill request may outlive the replay.
        assert result.recovery["kills_delivered"] + \
            result.recovery["kills_cancelled"] >= result.recovery["kills_delivered"]

    @pytest.mark.flaky(reruns=2)
    def test_straggler_completes_bit_identically(self):
        result = run_simulation("straggler", backend="process:2", quick=True)
        assert len(result.reports) == result.requests
        assert result.parity["ok"] and result.parity["verified"] >= 1
        assert result.recovery["profile"] == "straggler"
        assert result.recovery["chaos_tasks"] >= 1

    @pytest.mark.flaky(reruns=2)
    def test_memory_pressure_completes_bit_identically(self):
        result = run_simulation("memory-pressure", backend="process:2",
                                quick=True)
        assert len(result.reports) == result.requests
        assert result.parity["ok"] and result.parity["verified"] >= 1
        assert result.recovery["profile"] == "memory-pressure"
        assert result.recovery["chaos_tasks"] >= 1


# ---------------------------------------------------------------------------
# kill accounting on reused executors (the satellite bugfix)
# ---------------------------------------------------------------------------

class TestKillAccounting:
    def test_pending_kills_and_cancel(self):
        from repro import open_session

        with open_session(engine="pipeline", backend="process",
                          workers=2, warm=False) as session:
            executor = session.stage_executor()
            executor.inject_kill("screen", kills=2)
            executor.inject_kill("covariance")
            assert executor.pending_kills == {"screen": 2, "covariance": 1}
            assert executor.cancel_kills("screen") == {"screen": 2}
            assert executor.pending_kills == {"covariance": 1}
            assert executor.cancel_kills() == {"covariance": 1}
            assert executor.pending_kills == {}
            # A cancelled kill must not fire on the next fusion.
            report = session.fuse(SceneSpec(bands=8, rows=16, cols=16,
                                            vehicles=0, camouflaged=1,
                                            distinct=1).build_cubes(0, 1)[0])
            assert report.composite.shape == (16, 16, 3)
            assert executor.retries == 0
            assert executor.kills_delivered == {}

    def test_inject_kill_validates_count(self):
        from repro import open_session

        with open_session(engine="pipeline", backend="process",
                          workers=2, warm=False) as session:
            executor = session.stage_executor()
            with pytest.raises(ValueError, match=">= 1"):
                executor.inject_kill("screen", kills=0)
            assert executor.pending_kills == {}

    def test_non_pipeline_session_has_no_stage_executor(self):
        from repro import open_session

        with open_session(engine="distributed", backend="sim") as session:
            with pytest.raises(ValueError, match="pipeline"):
                session.stage_executor()


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

class TestSimulateCLI:
    def test_list_prints_registry(self, capsys):
        assert main(["simulate", "--list"]) == 0
        out = capsys.readouterr().out
        assert "kill-storm" in out and "steady" in out

    def test_unknown_scenario_exits_actionably(self, capsys):
        assert main(["simulate", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario 'nope'" in err
        assert "registered scenarios" in err
        assert "Traceback" not in err

    def test_simulate_writes_record_and_trace(self, tmp_path, capsys):
        record_path = tmp_path / "sim.json"
        trace_path = tmp_path / "trace.json"
        assert main(["simulate", "steady", "--quick", "--backend", "local",
                     "--requests", "2", "--json", str(record_path),
                     "--record-trace", str(trace_path)]) == 0
        record = json.loads(record_path.read_text())
        assert record["schema"] == SIMULATE_SCHEMA
        assert record["scenario"] == "steady"
        assert Trace.load(trace_path).requests == 2

    @pytest.mark.parametrize("flag", ["--json", "--record-trace"])
    def test_unwritable_output_fails_before_the_replay(self, flag, tmp_path,
                                                       monkeypatch, capsys):
        def _must_not_run(*args, **kwargs):
            raise AssertionError("the replay ran before the output path "
                                 "was checked")

        monkeypatch.setattr("repro.scenarios.run_simulation", _must_not_run)
        assert main(["simulate", "steady", "--quick", "--backend", "local",
                     flag, str(tmp_path / "missing-dir" / "out.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_missing_replay_trace_exits_actionably(self, tmp_path, capsys):
        assert main(["simulate", "steady",
                     "--replay-trace", str(tmp_path / "missing.json")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err

    def test_bad_knobs_exit_without_traceback(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "steady", "--requests", "0"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["fuse", "x.npz", "--tile-rows", "0"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit) as excinfo:
            main(["fuse", "x.npz", "--angle-threshold", "-0.1"])
        assert excinfo.value.code == 2

    def test_unknown_backend_exits_actionably(self, capsys, tmp_path):
        assert main(["simulate", "steady", "--quick",
                     "--backend", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "Traceback" not in err
