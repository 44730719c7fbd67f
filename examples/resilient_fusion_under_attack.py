#!/usr/bin/env python
"""Resilient distributed fusion surviving an information-warfare attack.

This example reproduces the paper's core demonstration: the distributed
spectral-screening PCT runs on a simulated 100BaseT cluster of workstations
with every worker replicated to level 2 (the manager -- the sensor -- is not
replicated), while an adversary repeatedly destroys worker replicas and an
entire workstation mid-run.  Computational resiliency detects each loss
through missed heartbeats, regenerates the replica on another node, replays
any in-flight messages and reconfigures the communication structure -- and
the fused image that comes out is bit-identical to an undisturbed run.

Run with::

    python examples/resilient_fusion_under_attack.py [--workers 8] [--size 96]
"""

import argparse

import numpy as np

import repro
from repro import (FusionConfig, HydiceGenerator, PartitionConfig,
                   ResilienceConfig)
from repro.analysis.report import dict_table
from repro.data.hydice import HydiceConfig
from repro.resilience.attack import AttackScenario


def build_attack(workers: int) -> AttackScenario:
    """A campaign of escalating attacks against the worker pool."""
    scenario = AttackScenario("escalating-campaign")
    scenario.add(0.5, "kill_replica", "worker.0")          # a single shadow lost
    scenario.add(1.0, "fail_node", "sun01")                # a whole workstation down
    # Wipe out every replica of one worker in quick succession: static
    # replication cannot survive this, regeneration can.
    for i in range(3):
        scenario.add(2.0 + 0.001 * i, "kill_replica", f"worker.{workers - 1}")
    return scenario


def faults_after_end(attack: AttackScenario, elapsed_seconds: float) -> list:
    """The scheduled faults that fall after a run of ``elapsed_seconds``
    ended: the run never reached them."""
    return [event for event in attack.sorted_events()
            if event.time > elapsed_seconds]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=8)
    parser.add_argument("--size", type=int, default=96)
    parser.add_argument("--bands", type=int, default=64)
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument("--quick", action="store_true",
                        help="shrink the problem so the example finishes in seconds (CI)")
    args = parser.parse_args()
    if args.quick:
        args.workers, args.size, args.bands = 4, 48, 24

    print("Generating the hyper-spectral collection ...")
    cube = HydiceGenerator(HydiceConfig(bands=args.bands, rows=args.size, cols=args.size,
                                        seed=args.seed)).generate()

    partition = PartitionConfig(workers=args.workers, subcubes=args.workers * 2)

    print(f"Reference run: {args.workers} workers, no resiliency, no attack ...")
    plain = repro.fuse(cube, engine="distributed",
                       config=FusionConfig(partition=partition))
    print(f"  virtual time {plain.elapsed_seconds:8.2f} s")

    resilience = ResilienceConfig(replication_level=2, heartbeat_period=0.1,
                                  heartbeat_misses=2)
    config = FusionConfig(partition=partition, resilience=resilience)
    attack = build_attack(args.workers)

    print(f"Resilient run under attack ({len(attack)} scheduled faults) ...")
    resilient = repro.fuse(cube, engine="resilient", config=config, attack=attack)

    report = resilient.resilience
    summary = {
        "plain distributed time (virtual s)": f"{plain.elapsed_seconds:.2f}",
        "resilient time under attack (virtual s)": f"{resilient.elapsed_seconds:.2f}",
        "slowdown vs plain": f"{resilient.elapsed_seconds / plain.elapsed_seconds:.2f}x",
        "replication level": resilience.replication_level,
        "attacks that hit a live target": report["attacks_executed"],
        "replicas lost": resilient.failures_injected,
        "replicas regenerated": resilient.replicas_regenerated,
        "reconfigurations completed": report["reconfigurations"]["completed"],
        "composite identical to reference": str(bool(np.array_equal(
            resilient.result.composite, plain.result.composite))),
    }
    print(dict_table("resilient run summary", summary))

    missed = faults_after_end(attack, resilient.elapsed_seconds)
    if missed:
        print(f"\n{len(missed)} scheduled fault(s) fell after the run ended at "
              f"{resilient.elapsed_seconds:.2f} virtual s:")
        for event in missed:
            print(f"  t={event.time:.3f} {event.kind} {event.target}")

    print("\nPer-worker replica groups after the run:")
    for logical, entry in sorted(report["replication"].items()):
        if not logical.startswith("worker"):
            continue
        print(f"  {logical:10s} live={entry['live']} target={entry['target']} "
              f"lost={entry['lost']} regenerated={entry['regenerated']}")

    assert np.array_equal(resilient.result.composite, plain.result.composite), \
        "the attacked, resilient run must still produce the correct composite"
    print("\nThe attacked run produced exactly the same fused image as the "
          "undisturbed run -- operational readiness was restored, not merely degraded.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
