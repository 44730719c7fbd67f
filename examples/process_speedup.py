#!/usr/bin/env python
"""Real parallel speed-up: the process backend vs the sequential pipeline.

The paper's central performance claim is near-linear speed-up of the
manager/worker decomposition on real hardware.  This example measures it on
*your* machine:

1. generate a synthetic HYDICE-like cube,
2. time the sequential spectral-screening PCT reference,
3. run the identical problem on ``engine="distributed", backend="process"`` --
   real OS processes, the cube shared zero-copy between them -- for a sweep
   of worker counts, and
4. print the measured wall-clock speed-up table and verify the composites
   are bit-identical to the sequential reference.

Run it with::

    python examples/process_speedup.py [--bands 64] [--size 128] [--workers 1 2 4]
"""

import argparse

import numpy as np

import repro
from repro import FusionConfig, HydiceGenerator, PartitionConfig
from repro.data.hydice import HydiceConfig
from repro.experiments.measured import available_cpus, run_measured_speedup


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--bands", type=int, default=64,
                        help="number of spectral channels (the paper uses 105/210)")
    parser.add_argument("--size", type=int, default=128,
                        help="spatial extent in pixels (the paper uses 320)")
    parser.add_argument("--workers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--quick", action="store_true",
                        help="shrink the problem so the example finishes in seconds (CI)")
    args = parser.parse_args()
    if args.quick:
        args.bands, args.size, args.workers = 32, 64, [1, 2]

    print(f"Host exposes {available_cpus()} usable CPU core(s).")
    print("Generating the synthetic HYDICE collection ...")
    cube = HydiceGenerator(HydiceConfig(bands=args.bands, rows=args.size,
                                        cols=args.size, seed=args.seed)).generate()

    # Measured sweep: sequential baseline plus one process-parallel run per
    # worker count, all with the same decomposition so the work is identical.
    result = run_measured_speedup(cube, processors=tuple(args.workers))
    print()
    print(result.report())

    # Parity check: the parallel composite is bit-identical to sequential.
    workers = max(args.workers)
    config = FusionConfig(partition=PartitionConfig(workers=workers,
                                                    subcubes=2 * max(args.workers)))
    sequential = repro.fuse(cube, config=config)
    parallel = repro.fuse(cube, engine="distributed", backend="process", config=config)
    np.testing.assert_array_equal(parallel.composite, sequential.composite)
    print(f"\nComposite from {workers} worker processes is bit-identical "
          f"to the sequential reference.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
