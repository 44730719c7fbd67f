#!/usr/bin/env python
"""Streaming a queue of fusion requests through the pipeline engine.

A fusion service does not receive one cube; it receives a *queue*.  The
batch engines drain that queue strictly serially -- each request
materialises the whole cube and runs the eight steps as one barrier-
synchronised batch.  The ``pipeline`` engine instead splits every cube into
row tiles that flow through a staged dataflow (screen -> covariance
partials -> eigendecomposition barrier -> projection + colour map) on a
shared pool of worker slots, so *independent requests overlap*: while one
cube is in its projection stage, the next is already screening.

This example serves the same queue three ways and prints the wall clock of
each:

1. a loop of one-shot ``repro.fuse`` calls (sequential reference engine),
2. ``session.fuse_many`` on a pipeline session (warm slots, still serial),
3. ``session.fuse_stream`` on the same session (overlapped, bounded
   in-flight window).

All three produce bit-identical composites -- streaming is a pure
throughput knob.  Run it with::

    python examples/streaming_throughput.py [--requests 8] [--workers 4]
"""

import argparse
import time

import numpy as np

import repro
from repro.analysis.report import dict_table
from repro.data.hydice import HydiceConfig, HydiceGenerator


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--requests", type=int, default=8,
                        help="fusion requests in the simulated queue")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker slots of the pipeline session")
    parser.add_argument("--max-inflight", type=int, default=4,
                        help="concurrent cubes kept in flight by the stream")
    parser.add_argument("--tile-rows", type=int, default=None,
                        help="rows per streaming tile (default ~2 tiles/worker)")
    parser.add_argument("--bands", type=int, default=48)
    parser.add_argument("--size", type=int, default=96)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--quick", action="store_true",
                        help="shrink the problem so the example finishes in seconds (CI)")
    args = parser.parse_args()
    if args.quick:
        args.requests, args.workers, args.max_inflight = 4, 2, 2
        args.bands, args.size = 24, 48

    print(f"Generating {args.requests} synthetic HYDICE collections ...")
    cubes = [HydiceGenerator(HydiceConfig(bands=args.bands, rows=args.size,
                                          cols=args.size,
                                          seed=args.seed + index)).generate()
             for index in range(args.requests)]
    subcubes = args.workers * 2

    print("Serving the queue with one-shot sequential fusions ...")
    # Same partition shape as the session: screening decomposition and
    # covariance summation order follow it, and bit-identity demands both.
    start = time.perf_counter()
    serial = [repro.fuse(cube, workers=args.workers, subcubes=subcubes)
              for cube in cubes]
    serial_seconds = time.perf_counter() - start

    print("Serving the queue through a pipeline session ...")
    with repro.open_session(engine="pipeline", backend="process",
                            workers=args.workers, subcubes=subcubes,
                            tile_rows=args.tile_rows,
                            max_inflight=args.max_inflight,
                            max_placements=args.requests) as session:
        start = time.perf_counter()
        batched = session.fuse_many(cubes)
        batch_seconds = time.perf_counter() - start

        start = time.perf_counter()
        streamed = list(session.fuse_stream(cubes))
        stream_seconds = time.perf_counter() - start

    for one_shot, batch, stream in zip(serial, batched, streamed):
        assert np.array_equal(one_shot.composite, batch.composite)
        assert np.array_equal(one_shot.composite, stream.composite)
    print("All three paths produced bit-identical composites.")

    rate = args.requests / stream_seconds
    print(dict_table("queue throughput", {
        "requests": args.requests,
        "worker_slots": args.workers,
        "max_inflight": args.max_inflight,
        "sequential_loop_seconds": f"{serial_seconds:.3f}",
        "pipeline_fuse_many_seconds": f"{batch_seconds:.3f}",
        "pipeline_fuse_stream_seconds": f"{stream_seconds:.3f}",
        "stream_cubes_per_second": f"{rate:.2f}",
        "stream_vs_sequential": f"{serial_seconds / stream_seconds:.2f}x",
    }))
    print("On multi-core hosts the stream row should win; benchmarks/e2e "
          "gates it as throughput_cubes_per_s on the pipe_* workloads.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
