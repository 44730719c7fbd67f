"""End to end: the commands print and write exactly what BENCHMARK.json declares."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))
RUN = os.path.join(ROOT, "benchmarks", "e2e", "run.py")


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _units(declared, key):
    return {entry["name"]: entry["unit"] for entry in declared[key]}


def test_smoke_suite_emits_exactly_the_declared_names(declared, tmp_path):
    done = subprocess.run([sys.executable, RUN, "--smoke", "--out", str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    with open(tmp_path / "results.json", encoding="utf-8") as fh:
        results = json.load(fh)
    workloads = [entry["name"] for entry in declared["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        runs = [run for run in results["runs"] if run["trace"] == trace]
        assert [run["workload"] for run in runs] == workloads
        for run in runs:
            units = {name: entry["unit"] for name, entry in run["metrics"].items()}
            assert units == _units(declared, key), run["workload"]
            assert run["correct"] and run["failed"] == 0 and run["attempted"] >= 1
            repro_block = run["detail"]["reproducibility"]
            assert len(repro_block["cube_sha256"]) >= 4 and repro_block["seed"] == run["seed"]
            assert run["detail"]["hygiene_violations"] == []
    storm = next(run for run in results["runs"]
                 if run["workload"] == "socket_killstorm" and run["trace"] == 0)
    kills = storm["detail"]["kills"]
    assert sum(kills["delivered"].values()) >= 1
    assert sum(kills["delivered"].values()) + kills["cancelled"] == sum(kills["requested"].values())
    # every metric is printed by name with its unit
    for name, unit in {**_units(declared, "end_to_end"),
                       **_units(declared, "per_layer")}.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in done.stdout.splitlines()), name
    spans = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert sum(1 for span in spans if "schema" in span) == len(workloads)
    assert any(span.get("name") == "request" for span in spans)
    assert any(span.get("attrs", {}).get("derived") for span in spans)
    assert any(span.get("attrs", {}).get("probe") for span in spans)


def test_one_run_prints_the_contract_line_last(declared, tmp_path):
    done = subprocess.run([sys.executable, RUN, "--workload", "pipe_small_overlap", "--seed", "5",
                           "--seconds", "1", "--trace", "0", "--out", str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-4000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        _units(declared, "end_to_end")
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    shutil.copytree(os.path.join(ROOT, "benchmarks", "e2e"), tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = subprocess.run([sys.executable, "benchmarks/e2e/run.py", "--workload",
                           "pipe_acceptance", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in done.stdout.splitlines())


def test_unknown_workload_is_refused(tmp_path):
    done = subprocess.run([sys.executable, RUN, "--workload", "nope", "--seed", "0",
                           "--seconds", "1", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "pipe_acceptance" in done.stderr
