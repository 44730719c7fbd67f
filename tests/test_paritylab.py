"""Tests of the differential-parity fuzzing harness (repro.paritylab).

The planted-violation tests patch the streaming projection kernel in
process, so their combos stay on in-process backends (sim/local) where the
patch is visible to the executing code.
"""

from __future__ import annotations

import functools
import random
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro import cli
from repro.core import streaming
from repro.paritylab import harness
from repro.data.scene import target_capacity
from repro.paritylab.harness import (CASE_SCHEMA, ComboSpec, ParityCase,
                                     fuzz, load_repro, replay_corpus,
                                     run_case, sample_case, save_repro,
                                     shrink_case)

#: A fast, known-green differential case: every engine on an in-process
#: backend, small scene, float64 (the bit-exact tier).
GREEN_CASE = ParityCase(
    bands=12, rows=32, cols=32, scene_seed=9, vehicles=1, camouflaged=1,
    workers=2, subcubes=4,
    combos=(ComboSpec(engine="distributed", backend="sim"),
            ComboSpec(engine="resilient", backend="local", replication=2),
            ComboSpec(engine="pipeline", backend="local", tile_rows=5)))

#: The planted-bug target: a single pipeline/local combo, so the patched
#: projection kernel is the only divergence source.
PIPELINE_CASE = ParityCase(
    bands=16, rows=48, cols=48, scene_seed=21, vehicles=2, camouflaged=1,
    workers=2, subcubes=4,
    combos=(ComboSpec(engine="pipeline", backend="local"),))


@pytest.fixture()
def broken_projection(monkeypatch):
    """Perturb the streaming projection kernel by +1e-4 (clipped).

    The kernel writes each tile into the output placement; the wrapper
    shifts the written composite rows in place.  The perturbation stays
    finite and inside [0, 1], so the metadata invariants keep passing and
    only the bit-parity diff can catch it -- exactly the class of bug the
    differential harness exists for.
    """
    real = streaming.kernel_project_and_map

    def crooked(*pargs, composite_out, **kwargs):
        result = real(*pargs, composite_out=composite_out, **kwargs)
        np.clip(composite_out + 1e-4, 0.0, 1.0, out=composite_out)
        return result

    monkeypatch.setattr(streaming, "kernel_project_and_map", crooked)


# ---------------------------------------------------------------------------
# sampling + serialisation
# ---------------------------------------------------------------------------

def test_sampler_is_deterministic_per_seed():
    draw_a = [sample_case(random.Random(5)) for _ in range(4)]
    draw_b = [sample_case(random.Random(5)) for _ in range(4)]
    assert draw_a == draw_b
    assert draw_a != [sample_case(random.Random(6)) for _ in range(4)]


def test_sampled_cases_cover_all_engines_and_stay_placeable():
    rng = random.Random(0)
    for _ in range(50):
        case = sample_case(rng)
        assert tuple(c.engine for c in case.combos) == harness.FUZZ_ENGINES
        # Every sampled target count must respect the scene generator's
        # published placement capacity, at any sampled size.
        assert (case.vehicles + case.camouflaged
                <= target_capacity(case.rows, case.cols))
        assert case.subcubes >= case.workers


def test_case_round_trips_through_dict_with_stable_id():
    case = sample_case(random.Random(3))
    clone = ParityCase.from_dict(case.to_dict())
    assert clone == case
    assert clone.case_id() == case.case_id()
    assert len(case.case_id()) == 12
    # Corpus files written by builds that had since-removed per-combo knobs
    # carry extra keys; they must keep loading (and so replaying).
    legacy = case.to_dict()
    for combo in legacy["combos"]:
        combo["knob_of_an_older_build"] = True
    assert ParityCase.from_dict(legacy) == case


def test_foreign_case_schema_is_rejected():
    data = GREEN_CASE.to_dict()
    data["schema"] = "repro-fusion/parity-case/v0"
    with pytest.raises(ValueError, match="unsupported parity-case schema"):
        ParityCase.from_dict(data)
    assert GREEN_CASE.to_dict()["schema"] == CASE_SCHEMA


# ---------------------------------------------------------------------------
# differential execution
# ---------------------------------------------------------------------------

def test_green_case_runs_clean_across_the_engine_matrix():
    outcome = run_case(GREEN_CASE)
    assert outcome.ok, [v.describe() for v in outcome.violations]
    assert outcome.combos_run == 1 + len(GREEN_CASE.combos)


def test_planted_kernel_bug_is_caught(broken_projection):
    outcome = run_case(PIPELINE_CASE)
    assert not outcome.ok
    kinds = {v.kind for v in outcome.violations}
    assert "composite" in kinds
    violation = next(v for v in outcome.violations if v.kind == "composite")
    assert violation.engine == "pipeline"
    assert violation.max_abs_diff == pytest.approx(1e-4, rel=0.5)


def test_crashing_combo_is_recorded_not_raised(monkeypatch):
    def boom(*pargs, **kwargs):
        raise RuntimeError("kernel exploded")

    monkeypatch.setattr(streaming, "project_tile_into", boom)
    outcome = run_case(PIPELINE_CASE)
    assert [v.kind for v in outcome.violations] == ["error"]
    assert "kernel exploded" in outcome.violations[0].detail


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------

def test_planted_bug_shrinks_to_the_minimal_scene(broken_projection):
    minimal, attempts = shrink_case(PIPELINE_CASE)
    assert attempts > 0
    # The planted bug fires at any size, so the shrinker must reach every
    # floor: smallest scene, fewest bands, one worker, no vehicles.
    assert (minimal.rows, minimal.cols) == (harness.MIN_ROWS, harness.MIN_COLS)
    assert minimal.bands == harness.MIN_BANDS
    assert minimal.workers == 1 and minimal.subcubes == 1
    assert minimal.vehicles == 0 and minimal.camouflaged == 0
    assert not run_case(minimal).ok  # still a repro after shrinking


def test_shrinker_respects_an_injected_predicate():
    start = ParityCase(bands=32, rows=48, cols=48, scene_seed=1,
                       workers=2, subcubes=6,
                       combos=(ComboSpec(engine="distributed", backend="sim"),
                               ComboSpec(engine="pipeline", backend="local")))
    minimal, _ = shrink_case(start, lambda case: case.bands >= 12)
    assert minimal.bands == 16  # 32 -> 16 holds; 16 -> 8 would pass
    assert minimal.rows == harness.MIN_ROWS  # orthogonal axes fully shrunk
    assert len(minimal.combos) == 1


def test_shrinker_refits_targets_to_the_placement_capacity():
    # Halving a 48x48 scene with three targets down to 16x16 must cap the
    # target count at the smaller scene's capacity, not raise mid-shrink.
    shrunk = harness._fit_targets(
        ParityCase(bands=8, rows=16, cols=16, scene_seed=1,
                   vehicles=2, camouflaged=1))
    assert (shrunk.vehicles + shrunk.camouflaged
            <= target_capacity(shrunk.rows, shrunk.cols))
    assert shrunk.vehicles + shrunk.camouflaged >= 1  # small != target-free
    shrunk.cube()  # must not raise in the scene generator


# ---------------------------------------------------------------------------
# corpus round trip
# ---------------------------------------------------------------------------

def test_repro_files_round_trip_and_replay_green(tmp_path):
    outcome = harness.CaseOutcome(case=GREEN_CASE)
    path = save_repro(outcome, tmp_path, note="sentinel coverage case")
    assert path.name == f"repro-{GREEN_CASE.case_id()}.json"

    case, violations, note = load_repro(path)
    assert case == GREEN_CASE
    assert violations == [] and note == "sentinel coverage case"

    entries = replay_corpus(tmp_path)
    assert len(entries) == 1 and entries[0].outcome.ok


def test_committed_corpus_is_green():
    entries = replay_corpus(Path(__file__).parent / "parity_corpus")
    assert entries, "the committed parity corpus must not be empty"
    for entry in entries:
        assert entry.outcome.ok, (
            f"{entry.path.name} re-opened: "
            f"{[v.describe() for v in entry.outcome.violations]}")


# ---------------------------------------------------------------------------
# the fuzz loop + CLI
# ---------------------------------------------------------------------------

def test_fuzz_smoke_covers_the_matrix():
    result = fuzz(seconds=60.0, seed=11, max_cases=2)
    assert result.ok and result.cases_run == 2
    assert set(result.engine_runs) == {"sequential", *harness.FUZZ_ENGINES}
    assert result.combos_run >= 2 * (1 + len(harness.FUZZ_ENGINES)) - 2
    assert "2 sampled configs" in result.summary()


def test_fuzz_shrinks_and_records_a_planted_failure(tmp_path,
                                                    broken_projection):
    result = fuzz(seconds=60.0, seed=0, max_cases=1, corpus_dir=tmp_path,
                  sampler=lambda rng: PIPELINE_CASE)
    assert not result.ok and len(result.repro_paths) == 1
    case, violations, note = load_repro(result.repro_paths[0])
    assert (case.rows, case.cols) == (harness.MIN_ROWS, harness.MIN_COLS)
    assert case.bands == harness.MIN_BANDS
    assert any(v.kind == "composite" for v in violations)
    assert note == "recorded by repro-fusion fuzz"


def test_cli_fuzz_failures_never_land_in_the_tracked_corpus(
        tmp_path, monkeypatch, capsys, broken_projection):
    # Regression: without --failures-dir a red fuzz wrote its repros into
    # --corpus (default tests/parity_corpus), dirtying the tracked tree and
    # re-opening on the next tier-1 replay.
    corpus = tmp_path / "tests" / "parity_corpus"
    shutil.copytree(Path(__file__).parent / "parity_corpus", corpus)
    before = {path.name: path.read_bytes() for path in corpus.iterdir()}
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(harness, "fuzz", functools.partial(
        fuzz, sampler=lambda rng: PIPELINE_CASE))
    assert cli.main(["fuzz", "--seconds", "60", "--max-cases", "1"]) == 1
    assert "parity failures : 1" in capsys.readouterr().out
    assert {path.name: path.read_bytes() for path in corpus.iterdir()} == before
    assert len(list((tmp_path / ".fuzz-failures").glob("repro-*.json"))) == 1


def test_cli_replay_gates_on_the_corpus(tmp_path, capsys, broken_projection):
    save_repro(harness.CaseOutcome(case=PIPELINE_CASE), tmp_path,
               note="planted")
    code = cli.main(["fuzz", "--replay", "--corpus", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    assert "PARITY VIOLATION" in captured.out
    assert "violation(s) re-opened" in captured.err


def test_cli_replay_passes_on_a_green_corpus(tmp_path, capsys):
    save_repro(harness.CaseOutcome(case=GREEN_CASE), tmp_path)
    assert cli.main(["fuzz", "--replay", "--corpus", str(tmp_path)]) == 0
    assert "1 repro(s) green" in capsys.readouterr().out
