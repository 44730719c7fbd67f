"""Shared helpers for the benchmark harness (importable by every bench module).

Kept separate from ``conftest.py`` so that benchmark modules can import the
helpers by module name regardless of how pytest loads conftest plugins.
"""

from __future__ import annotations

import os
from typing import List

from repro.config import FusionConfig, PartitionConfig, ResilienceConfig

#: Spatial scale of the benchmark cubes relative to the paper's 320x320.
#: Override with the REPRO_BENCH_SCALE environment variable (1.0 = full size).
BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))

#: Collected tables, printed by the terminal-summary hook in conftest.py.
REPORT_SINK: List[str] = []


def record_report(title: str, body: str) -> None:
    """Register a regenerated table for the end-of-run summary."""
    REPORT_SINK.append(f"\n{'=' * 78}\n{title}\n{'=' * 78}\n{body}\n")


def scaled_extent(extent: int) -> int:
    """Scale a spatial extent of the paper's setup to the benchmark size."""
    return max(32, int(round(extent * BENCH_SCALE)))


def fusion_config(workers: int, subcubes: int, *, resilient: bool = False,
                  regenerate: bool = True) -> FusionConfig:
    """Benchmark-standard fusion configuration.

    Resilient configurations use the paper's replication level 2 and skip the
    redundant re-execution of replica computations (the virtual-time charge is
    identical; only host wall-clock time is saved).
    """
    config = FusionConfig(partition=PartitionConfig(workers=workers, subcubes=subcubes))
    if resilient:
        config = config.with_resilience(ResilienceConfig(
            replication_level=2, regenerate=regenerate, execute_replicas=False))
    return config
