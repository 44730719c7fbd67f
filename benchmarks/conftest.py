"""Fixtures and reporting plumbing for the benchmark harness.

Each benchmark module regenerates one table or figure of the paper's
evaluation (see README.md, "Tests and benchmarks").  Because pytest captures
stdout, the regenerated tables are collected into ``_bench_utils.REPORT_SINK``
and printed from the terminal-summary hook below, so they always appear in
``bench_output.txt`` alongside pytest-benchmark's timing table.

Scaling note
------------
The paper's measurements were taken on 16 physical workstations with a
320x320 cube.  The benchmarks default to a spatially scaled cube (160x160,
``REPRO_BENCH_SCALE=0.5``) so the whole harness regenerates every figure in a
few minutes of host time; the simulated virtual times and therefore the
*shape* of every curve are unaffected by the host machine.
"""

from __future__ import annotations

import pytest

from _bench_utils import REPORT_SINK, scaled_extent
from repro.data.hydice import HydiceConfig, HydiceGenerator
from repro.logging_utils import silence


def pytest_terminal_summary(terminalreporter, exitstatus, config):  # noqa: D103
    if not REPORT_SINK:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("Reproduced paper figures and tables")
    for entry in REPORT_SINK:
        terminalreporter.write(entry)


@pytest.fixture(scope="session", autouse=True)
def _quiet_logging():
    silence()


@pytest.fixture(scope="session")
def figure4_cube():
    """The full 210-channel collection used by the speed-up experiment."""
    config = HydiceConfig(bands=210, rows=scaled_extent(320), cols=scaled_extent(320),
                          seed=41)
    return HydiceGenerator(config).generate()


@pytest.fixture(scope="session")
def figure5_cube():
    """The 105-band granularity-experiment cube (320x320x105 in the paper)."""
    config = HydiceConfig(bands=105, rows=scaled_extent(320), cols=scaled_extent(320),
                          seed=42)
    return HydiceGenerator(config).generate()


@pytest.fixture(scope="session")
def small_eval_cube():
    """A small cube for the cheap ablation benchmarks."""
    config = HydiceConfig(bands=48, rows=64, cols=64, seed=43)
    return HydiceGenerator(config).generate()
