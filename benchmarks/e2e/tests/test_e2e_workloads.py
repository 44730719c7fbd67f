"""The seeded inputs and the declaration in BENCHMARK.json stay in step."""

import json
import os

from e2e.workloads import WORKLOADS, cube_digest, generate_cubes

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", ".."))


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_cube_digests_are_stable_per_seed_and_differ_across_seeds():
    workload = WORKLOADS["pipe_small_overlap"]
    first = [cube_digest(cube) for cube in generate_cubes(workload, 3)]
    again = [cube_digest(cube) for cube in generate_cubes(workload, 3)]
    other = [cube_digest(cube) for cube in generate_cubes(workload, 4)]
    assert first == again
    assert len(set(first)) == workload.cubes          # the cubes of one run are distinct
    assert not set(first) & set(other)


def test_cubes_have_the_declared_shape():
    for workload in WORKLOADS.values():
        if workload.rows > 128:
            continue  # the acceptance scene takes seconds to generate
        cube = generate_cubes(workload, 0)[0]
        assert (cube.rows, cube.cols, cube.bands) == (workload.rows, workload.cols, workload.bands)


def test_benchmark_json_declares_exactly_the_harness_workloads():
    declared = {entry["name"]: entry["why"] for entry in _benchmark()["workloads"]}
    assert declared == {name: workload.why for name, workload in WORKLOADS.items()}
    assert all(len(why) <= 200 and "\n" not in why for why in declared.values())


def test_benchmark_json_meets_the_contract_limits():
    benchmark = _benchmark()
    assert set(benchmark) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert benchmark["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(benchmark["workloads"]) <= 8
    assert 1 <= len(benchmark["end_to_end"]) <= 16
    assert 1 <= len(benchmark["per_layer"]) <= 128
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in benchmark[key]]
    assert len(names) == len(set(names))
    setup = [entry for entry in benchmark["end_to_end"] if entry["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(entry["bound"] for entry in benchmark["end_to_end"])}]
    assert all(0 < entry["bound"] <= 0.25 for entry in benchmark["end_to_end"])
    runs = 4 + 22 * len(benchmark["workloads"])
    assert runs * (benchmark["run_seconds"] + 10) <= 3420
