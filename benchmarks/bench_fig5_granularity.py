"""Figure 5: granularity control.

The paper decomposes the 320x320x105 cube into #sub-cubes equal to 1x, 2x and
3x the number of workers and shows that over-decomposition lets computation
and communication overlap, improving run time -- until the sub-cubes become
so small (past ~32 for this problem size) that per-message overhead dominates
and performance tails off.

This benchmark regenerates the three Figure 5 series over 2, 4, 8 and 16
workers and an additional tail-off sweep at 16 workers, via
:func:`repro.experiments.run_figure5` -- in virtual time, on the simulated
cluster.

Beside it stands a *measured* series, in host wall-clock time on the real
``pipeline`` engine: the same trade (more units overlap better until the
per-unit overhead beats the unit's work) is what decides whether a request
is placed whole on one worker or split into stage tasks, and this script is
the source of :data:`repro.core.streaming.WHOLE_REQUEST_MAX_SAMPLES`.  Run
it as a script (never under pytest's capture, never from stdin: the process
backend spawns workers)::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 \
        python benchmarks/bench_fig5_granularity.py [--quick]

It prints the simulated curves, then for ``process:2`` and ``local:2`` the
whole-vs-split table over six scenes (one client's median latency, and
throughput with four requests outstanding) with the plan constant marked,
then the measured sub-cube sweep on the 256x256x64 acceptance scene.
"""

import argparse
import functools
import math
import statistics
import threading
import time

import pytest

from _bench_utils import fusion_config, record_report, scaled_extent
from repro import fuse
from repro.api.request import FusionRequest
from repro.config import PAPER_SETUP
from repro.core.streaming import (STAGE_LABELS, WHOLE_REQUEST_MAX_SAMPLES,
                                  _borrowed_placement, _copy_out,
                                  fuse_whole_request, run_pipeline)
from repro.data.hydice import HydiceConfig, HydiceGenerator
from repro.data.shared import OutputPool, SharedCube
from repro.experiments import run_figure5
from repro.scp.registry import BackendSpec
from repro.scp.stages import TransportStageExecutor
from repro.scp.transport import transport_for_spec

#: Sub-cube counts swept to expose the tail-off past the paper's ~32 sub-cubes.
TAIL_OFF_SUBCUBES = (16, 32, 48, 96, 128)

#: ``(rows, cols, bands)`` of the measured whole-vs-split scenes, ascending
#: in samples; they straddle the plan constant.
MEASURED_SCENES = ((64, 64, 32), (96, 96, 32), (128, 128, 32), (96, 96, 64),
                   (128, 128, 64), (256, 256, 64))
MEASURED_BACKENDS = ("process:2", "local:2")
#: Sub-cube (and projection tile) counts of the measured granularity sweep.
MEASURED_SUBCUBES = (2, 4, 8, 16, 32)
ACCEPTANCE_SCENE = (256, 256, 64)
WORKERS = 2
OUTSTANDING = 4


@pytest.fixture(scope="module")
def figure5_result(figure5_cube):
    return run_figure5(figure5_cube, tail_off_subcubes=TAIL_OFF_SUBCUBES)


def test_fig5_granularity_control(benchmark, figure5_cube, figure5_result):
    result = figure5_result

    # Representative single point for pytest-benchmark.
    config = fusion_config(16, 32)
    benchmark.pedantic(lambda: fuse(figure5_cube, engine="distributed", config=config),
                       rounds=1, iterations=1)

    record_report("Figure 5 - granularity control", result.report())

    for workers in PAPER_SETUP.figure5_processors:
        base = result.curves[1].time_at(workers)
        doubled = result.curves[2].time_at(workers)
        tripled = result.curves[3].time_at(workers)
        # Over-decomposition by 2x enables computation/communication overlap.
        assert doubled < base, (
            f"2x over-decomposition should be faster at P={workers}")
        # 3x is comparable to 2x (the paper's curves nearly coincide).
        assert tripled < base
        assert abs(tripled - doubled) / doubled < 0.25
        # The improvement is a genuine, measurable effect.
        assert result.improvement_from_overlap(workers) > 0.0


def test_fig5_tail_off_past_32_subcubes(benchmark, figure5_cube, figure5_result):
    times = figure5_result.tail_off
    # Representative point at the finest decomposition (runs under --benchmark-only).
    benchmark.pedantic(
        lambda: fuse(figure5_cube, engine="distributed",
                     config=fusion_config(16, max(TAIL_OFF_SUBCUBES))),
        rounds=1, iterations=1)

    best_subcubes = figure5_result.best_subcubes()
    # The sweet spot lies in the paper's 2-3x over-decomposition region ...
    assert 32 <= best_subcubes <= 96
    # ... and decomposing far beyond it stops helping (tail-off).
    assert times[max(TAIL_OFF_SUBCUBES)] >= times[best_subcubes]
    # The coarsest decomposition is never the best one.
    assert times[16] > times[best_subcubes]


# ---------------------------------------------------------------------------
# The measured series (host wall clock, real pipeline engine)
# ---------------------------------------------------------------------------

def _scene(rows, cols, bands):
    return HydiceGenerator(HydiceConfig(bands=bands, rows=rows, cols=cols,
                                        seed=rows + bands)).generate()


def _closed_loop(run, seconds, clients):
    """``clients`` threads each call ``run`` back to back for ``seconds``:
    ``(median latency in s, completions per s)``."""
    latencies = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds

    def client():
        mine = []
        while True:
            t0 = time.perf_counter()
            run()
            mine.append(time.perf_counter() - t0)
            if time.perf_counter() >= deadline:
                break
        with lock:
            latencies.extend(mine)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return statistics.median(latencies), len(latencies) / elapsed


def _placed_run(pool, cube, plan):
    """One plan the way the engine runs it: borrow an output placement,
    run ``plan(out)`` into it, copy the pixels out."""
    with _borrowed_placement(pool, cube.rows, cube.cols, 3) as placement:
        plan(placement.handle())
        return _copy_out(placement)


def _place_cube(cube, spec):
    """The cube as a session places it: shared memory for process workers."""
    return cube if spec.name == "local" else SharedCube.from_cube(cube)


def measure_placements(backend, scenes, seconds):
    """Whole vs split on one warm executor: a row of numbers per scene."""
    spec = BackendSpec.parse(backend)
    measured = []
    with TransportStageExecutor(transport_for_spec(spec, workers=WORKERS),
                                workers=WORKERS) as executor, \
            OutputPool(max_segments=OUTSTANDING) as pool:
        for rows, cols, bands in scenes:
            cube = _scene(rows, cols, bands)
            placed = _place_cube(cube, spec)
            config = FusionRequest(cube=placed, engine="pipeline",
                                   workers=WORKERS).resolved_config()
            plans = {
                "split": lambda out: run_pipeline(placed, config, executor, out),
                "whole": lambda out: executor.submit(
                    "request", fuse_whole_request, placed, config, 3, None,
                    out, covers=STAGE_LABELS).result()}
            runs = {name: functools.partial(_placed_run, pool, placed, plan)
                    for name, plan in plans.items()}
            try:
                row = {"scene": (rows, cols, bands),
                       "samples": cube.pixels * cube.bands}
                for run in runs.values():
                    run()  # warm: attach the cube, fault the placement in
                # (clients, column, which of _closed_loop's two numbers)
                for clients, key, pick in ((1, "p50_s", 0),
                                           (OUTSTANDING, "cubes_per_s", 1)):
                    for name, run in runs.items():
                        row[f"{name}_{key}"] = _closed_loop(run, seconds,
                                                            clients)[pick]
                measured.append(row)
            finally:
                if placed is not cube:
                    placed.close()
    return measured


def measure_subcubes(backend, counts, seconds):
    """The real Figure-5 axis: one client's median latency on the
    acceptance scene as screening sub-cubes and projection tiles grow
    together (``workers`` fixed, stage tasks = 2 x count + workers)."""
    rows, cols, bands = ACCEPTANCE_SCENE
    cube = _scene(rows, cols, bands)
    spec = BackendSpec.parse(backend)
    measured = {}
    with TransportStageExecutor(transport_for_spec(spec, workers=WORKERS),
                                workers=WORKERS) as executor, \
            OutputPool(max_segments=1) as pool, \
            SharedCube.from_cube(cube) as placed:
        for count in counts:
            config = fusion_config(WORKERS, count)
            tile_rows = math.ceil(rows / count)

            def run():
                return _placed_run(pool, placed, lambda out: run_pipeline(
                    placed, config, executor, out, tile_rows=tile_rows))

            run()
            measured[count] = _closed_loop(run, seconds, 1)[0]
    return measured


def placement_table(backend, measured, seconds):
    lines = [f"Measured placement on {backend}: split -> whole "
             f"({seconds:g} s closed loops, warm executor)",
             f"{'scene (samples)':<24}{'1 client, p50 ms':>22}"
             f"{f'{OUTSTANDING} outstanding, cubes/s':>28}  plan",
             "-" * 84]
    marked = False
    for row in measured:
        if row["samples"] > WHOLE_REQUEST_MAX_SAMPLES and not marked:
            lines.append(f"{'':-<12} WHOLE_REQUEST_MAX_SAMPLES = "
                         f"{WHOLE_REQUEST_MAX_SAMPLES} {'':-<34}")
            marked = True
        r, c, b = row["scene"]
        scene = f"{r}x{c}x{b} ({row['samples'] / 1e3:.0f} k)"
        latency = (f"{row['split_p50_s'] * 1e3:.1f} -> "
                   f"{row['whole_p50_s'] * 1e3:.1f}")
        rate = f"{row['split_cubes_per_s']:.1f} -> {row['whole_cubes_per_s']:.1f}"
        plan = ("request" if row["samples"] <= WHOLE_REQUEST_MAX_SAMPLES
                else "stages")
        lines.append(f"{scene:<24}{latency:>22}{rate:>28}  {plan}")
    return "\n".join(lines)


def subcube_table(backend, measured):
    r, c, b = ACCEPTANCE_SCENE
    lines = [f"Measured granularity on {backend}, {r}x{c}x{b}, "
             f"{WORKERS} workers (split placement)",
             "sub-cubes  stage tasks  p50 ms",
             "---------  -----------  ------"]
    lines += [f"{count:>9}  {2 * count + WORKERS:>11}  {p50 * 1e3:>6.1f}"
              for count, p50 in measured.items()]
    best = min(measured, key=measured.get)
    lines.append(f"best measured decomposition: {best} sub-cubes "
                 f"({best / WORKERS:g}x the workers)")
    return "\n".join(lines)


def test_fig5_measured_series_reports_both_placements():
    # Wiring only (host timings are not claims): every cell is filled, and
    # the plan constant separates the scenes where the table says it does.
    scenes = (MEASURED_SCENES[0], MEASURED_SCENES[4])
    measured = measure_placements("local:2", scenes, seconds=0.05)
    table = placement_table("local:2", measured, 0.05)
    assert [row["samples"] <= WHOLE_REQUEST_MAX_SAMPLES for row in measured] \
        == [True, False]
    assert all(row[f"{name}_{key}"] > 0 for row in measured
               for name in ("split", "whole") for key in ("p50_s", "cubes_per_s"))
    assert table.index("request") < table.index("WHOLE_REQUEST_MAX_SAMPLES") \
        < table.index("stages")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="0.4 s loops instead of 3 s (the CI budget)")
    args = parser.parse_args(argv)
    seconds = 0.4 if args.quick else 3.0

    # The figure5_cube fixture of conftest.py, for a run outside pytest.
    cube = HydiceGenerator(HydiceConfig(bands=105, rows=scaled_extent(320),
                                        cols=scaled_extent(320),
                                        seed=42)).generate()
    print(run_figure5(cube, tail_off_subcubes=TAIL_OFF_SUBCUBES).report())
    for backend in MEASURED_BACKENDS:
        print()
        print(placement_table(
            backend, measure_placements(backend, MEASURED_SCENES, seconds),
            seconds))
    print()
    print(subcube_table("process:2", measure_subcubes(
        "process:2", MEASURED_SUBCUBES, seconds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
