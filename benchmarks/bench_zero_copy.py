"""Zero-copy result placement vs the pickle spool: bytes and throughput.

The streaming engine's projection stage can return its tiles two ways: as
pickled arrays committed to the tmpfs spool (the crash-safe transport every
stage uses) or written directly into a preallocated
:class:`~repro.data.shared.SharedComposite` segment with only a row-range
acknowledgement travelling back (the zero-copy path, default on process
executors).  This benchmark measures both on the same cube:

* **payload bytes** -- the spool path pickles O(pixels) per run; the
  zero-copy path pickles O(tiles) acknowledgements.  The acceptance gate
  requires the spool path to move **>= 10x** more ``project``-stage payload
  bytes, asserted unconditionally (byte counts are deterministic).
* **throughput** -- with adaptive tile scheduling on top, the zero-copy
  pipeline must be at least as fast as the fixed-tile spool pipeline on a
  host with >= 4 usable cores (skipped on smaller hosts, the established
  policy of the measured benchmarks).

Composites are checked bit-identical to the sequential reference in both
modes before any number is trusted.  The module doubles as a standalone
script for the CI smoke job::

    python benchmarks/bench_zero_copy.py --quick --json zero_copy.json
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import dataclass
from typing import Dict

import numpy as np

from _bench_utils import record_report, scaled_extent, write_bench_json
import repro
from repro.config import FusionConfig, PartitionConfig
from repro.core.streaming import run_pipeline
from repro.data.hydice import HydiceConfig, HydiceGenerator
from repro.data.shared import SharedCube
from repro.experiments.measured import available_cpus
from repro.scp.pool import ProcessPool, default_start_method
from repro.scp.stages import TransportStageExecutor
from repro.scp.transport import ForkedProcessTransport

#: Worker slots of the full benchmark (CI smoke uses --quick's 2).
WORKERS = 4

#: Timed pipeline runs per mode; the minimum is reported (standard
#: best-of-N to suppress scheduler noise).
ROUNDS = 3

#: Required spool/zero-copy ratio of ``project``-stage payload bytes.
REQUIRED_BYTES_RATIO = 10.0

#: Required zero-copy/spool throughput ratio on hosts with >= 4 cores.
REQUIRED_THROUGHPUT = 1.0


def _cube(*, quick: bool):
    extent = 48 if quick else scaled_extent(160)
    bands = 24 if quick else 64
    return HydiceGenerator(HydiceConfig(bands=bands, rows=extent, cols=extent,
                                        seed=77)).generate()


@dataclass
class ZeroCopyResult:
    """Measured transports of the two result paths plus judging context."""

    workers: int
    rounds: int
    spool_seconds: float
    zero_copy_seconds: float
    spool_project_bytes: int
    zero_copy_project_bytes: int
    available_cpus: int

    @property
    def bytes_ratio(self) -> float:
        return self.spool_project_bytes / max(self.zero_copy_project_bytes, 1)

    @property
    def throughput_ratio(self) -> float:
        return self.spool_seconds / self.zero_copy_seconds

    def report(self) -> str:
        return "\n".join([
            f"{self.workers} worker slots, best of {self.rounds} rounds "
            f"({self.available_cpus} usable CPUs)",
            f"  spool path (fixed tiles)       : {self.spool_seconds:8.3f} s, "
            f"{self.spool_project_bytes:>12,} project payload bytes",
            f"  zero-copy path (adaptive tiles): {self.zero_copy_seconds:8.3f} s, "
            f"{self.zero_copy_project_bytes:>12,} project payload bytes",
            f"  payload-byte reduction         : {self.bytes_ratio:8.1f}x",
            f"  throughput vs fixed-tile spool : {self.throughput_ratio:8.2f}x",
        ])

    def as_dict(self) -> Dict[str, object]:
        return {
            "workers": self.workers,
            "rounds": self.rounds,
            "spool_seconds": self.spool_seconds,
            "zero_copy_seconds": self.zero_copy_seconds,
            "spool_project_bytes": self.spool_project_bytes,
            "zero_copy_project_bytes": self.zero_copy_project_bytes,
            "bytes_ratio": self.bytes_ratio,
            "throughput_ratio": self.throughput_ratio,
            "available_cpus": self.available_cpus,
        }


def _run_mode(pool, placed, config, *, workers: int, rounds: int,
              zero_copy: bool, adaptive: bool, reference) -> tuple:
    """Best-of-N timed runs of one transport mode on a fresh executor.

    A fresh executor gives the mode its own ``stage_payload_bytes`` ledger;
    the pool (and its warm slots) is shared so neither mode pays spawning.
    """
    with TransportStageExecutor(ForkedProcessTransport(pool),
                                workers=workers) as executor:
        result = run_pipeline(placed, config, executor, zero_copy=zero_copy,
                              adaptive_tiles=adaptive)  # warm-up + parity
        if not np.array_equal(result.composite, reference.composite):
            raise AssertionError("pipeline composite diverged from the "
                                 "sequential reference")
        best = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            run_pipeline(placed, config, executor, zero_copy=zero_copy,
                         adaptive_tiles=adaptive)
            best = min(best, time.perf_counter() - start)
        payload = executor.stage_payload_bytes.get("project", 0)
    # The ledger covered warm-up + rounds; report the per-run average.
    return best, payload // (rounds + 1)


def measure(*, quick: bool) -> ZeroCopyResult:
    cube = _cube(quick=quick)
    workers = 2 if quick else WORKERS
    rounds = 2 if quick else ROUNDS
    config = FusionConfig(partition=PartitionConfig(workers=workers,
                                                    subcubes=workers * 2))
    reference = repro.fuse(cube, config=config)
    placed = SharedCube.from_cube(cube)
    try:
        with ProcessPool(start_method=default_start_method(),
                         warm=workers) as pool:
            spool_seconds, spool_bytes = _run_mode(
                pool, placed, config, workers=workers, rounds=rounds,
                zero_copy=False, adaptive=False, reference=reference)
            zero_seconds, zero_bytes = _run_mode(
                pool, placed, config, workers=workers, rounds=rounds,
                zero_copy=True, adaptive=True, reference=reference)
    finally:
        placed.close()
    return ZeroCopyResult(workers=workers, rounds=rounds,
                          spool_seconds=spool_seconds,
                          zero_copy_seconds=zero_seconds,
                          spool_project_bytes=spool_bytes,
                          zero_copy_project_bytes=zero_bytes,
                          available_cpus=available_cpus())


def check_zero_copy(result: ZeroCopyResult, *,
                    assert_throughput: bool = True) -> str:
    """The acceptance gates.

    The payload-byte reduction is deterministic and asserted always; the
    throughput comparison is core-count gated like every measured benchmark.
    """
    if result.bytes_ratio < REQUIRED_BYTES_RATIO:
        raise AssertionError(
            f"zero-copy result path moved only {result.bytes_ratio:.1f}x "
            f"fewer project payload bytes; gate is {REQUIRED_BYTES_RATIO}x")
    measured = result.throughput_ratio
    if result.available_cpus < 4:
        return (f"PASS bytes ({result.bytes_ratio:.1f}x >= "
                f"{REQUIRED_BYTES_RATIO}x); SKIPPED throughput assertion: "
                f"host exposes {result.available_cpus} usable core(s); "
                f">= 4 required (measured {measured:.2f}x)")
    if not assert_throughput:
        return (f"PASS bytes ({result.bytes_ratio:.1f}x); INFO (smoke mode): "
                f"zero-copy ran {measured:.2f}x the spool path; the full "
                f"benchmark asserts >= {REQUIRED_THROUGHPUT}x")
    if measured < REQUIRED_THROUGHPUT:
        raise AssertionError(
            f"zero-copy pipeline slower than the fixed-tile spool pipeline: "
            f"{measured:.2f}x < {REQUIRED_THROUGHPUT}x")
    return (f"PASS: {result.bytes_ratio:.1f}x fewer project payload bytes "
            f"(gate {REQUIRED_BYTES_RATIO}x) at {measured:.2f}x the "
            f"fixed-tile throughput (gate {REQUIRED_THROUGHPUT}x)")


# --------------------------------------------------------------------------
# pytest entry point
# --------------------------------------------------------------------------

def test_zero_copy_beats_spool_on_bytes(benchmark):
    result = measure(quick=False)
    verdict = check_zero_copy(result)
    record_report("Zero-copy result placement vs pickle spool",
                  f"{result.report()}\n{verdict}")
    assert result.bytes_ratio >= REQUIRED_BYTES_RATIO

    # Register one representative zero-copy run with pytest-benchmark.
    cube = _cube(quick=True)
    config = FusionConfig(partition=PartitionConfig(workers=2, subcubes=4))
    placed = SharedCube.from_cube(cube)
    try:
        with ProcessPool(warm=2) as pool:
            with TransportStageExecutor(ForkedProcessTransport(pool),
                                        workers=2) as executor:
                run_pipeline(placed, config, executor, zero_copy=True,
                             adaptive_tiles=True)  # warm-up
                benchmark.pedantic(
                    lambda: run_pipeline(placed, config, executor,
                                         zero_copy=True, adaptive_tiles=True),
                    rounds=1, iterations=1)
    finally:
        placed.close()


# --------------------------------------------------------------------------
# standalone entry point (CI smoke job artifact)
# --------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the zero-copy result path against the pickle "
                    "spool (payload bytes and throughput)")
    parser.add_argument("--quick", action="store_true",
                        help="small cube and 2 workers (CI smoke mode)")
    parser.add_argument("--json", dest="json_path", default=None,
                        help="write the measured results to this JSON file")
    parser.add_argument("--strict", action="store_true",
                        help="fail unless the throughput assertion PASSes")
    args = parser.parse_args(argv)

    result = measure(quick=args.quick)
    verdict = check_zero_copy(result,
                              assert_throughput=args.strict or not args.quick)
    print(result.report())
    print(verdict)

    if args.json_path:
        metrics = [
            ("bytes_ratio", result.bytes_ratio, "x", "higher"),
            ("throughput_ratio", result.throughput_ratio, "x", "higher"),
            ("spool_seconds", result.spool_seconds, "seconds", "lower"),
            ("zero_copy_seconds", result.zero_copy_seconds, "seconds",
             "lower"),
        ]
        write_bench_json(args.json_path, "zero_copy", metrics,
                         payload=result.as_dict(), verdict=verdict,
                         quick=args.quick)

    if args.strict and not verdict.startswith("PASS:"):
        print("strict mode: zero-copy assertions did not fully PASS",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
