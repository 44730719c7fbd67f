"""Ablation: computational resiliency versus static replication under attack.

Section 2 argues that replication alone "provides graceful degradation of
system performance to the point of failure [but] is clearly not sufficient to
aggressively recover assured operation", whereas computational resiliency
regenerates lost replicas.  This ablation injects the same attack campaigns
into three configurations -- resilient (regeneration on), static replication
(regeneration off) and static replication rescued only by application-level
task reassignment -- and tabulates completion, correctness, run time,
failures and regenerations.
"""

import numpy as np
import pytest

from _bench_utils import fusion_config, record_report
from repro.analysis.report import format_table
from repro.baselines.static_replication import fuse_static_replication
from repro.core.pipeline import SpectralScreeningPCT
from repro import fuse
from repro.resilience.attack import AttackScenario


def scenarios(workers=4):
    return {
        "single replica kill": AttackScenario.single_worker_kill("worker.1", at=0.5),
        "node outage": AttackScenario.node_outage("sun02", at=0.5),
        "group wipe-out": AttackScenario.group_wipeout("worker.0", at=0.5, replicas=2),
        "sustained assault": AttackScenario.sustained_assault(
            [f"worker.{i}" for i in range(workers)], start=0.5, interval=1.0,
            rounds=6, seed=9),
    }


@pytest.fixture(scope="module")
def recovery_results(small_eval_cube):
    cube = small_eval_cube
    workers, subcubes = 4, 8
    reference = SpectralScreeningPCT(fusion_config(workers, subcubes)).fuse(cube)

    rows = []
    outcomes = {}
    for scenario_name, scenario in scenarios(workers).items():
        for variant_name, run in {
            "resilient": lambda s: fuse(
                cube, engine="resilient",
                config=fusion_config(workers, subcubes, resilient=True), attack=s),
            "static replication + reassignment": lambda s: fuse_static_replication(
                cube, fusion_config(workers, subcubes, resilient=True), attack=s,
                reassign_timeout=5.0),
        }.items():
            outcome = run(scenario)
            correct = bool(np.array_equal(outcome.result.composite, reference.composite))
            rows.append([scenario_name, variant_name, outcome.elapsed_seconds,
                         outcome.failures_injected, outcome.replicas_regenerated,
                         "yes" if correct else "NO"])
            outcomes[(scenario_name, variant_name)] = (outcome, correct)
    return rows, outcomes


def test_ablation_recovery_vs_static_replication(benchmark, small_eval_cube,
                                                 recovery_results):
    rows, outcomes = recovery_results

    attack = AttackScenario.group_wipeout("worker.0", at=0.5, replicas=2)
    benchmark.pedantic(
        lambda: fuse(small_eval_cube, engine="resilient",
                     config=fusion_config(4, 8, resilient=True), attack=attack),
        rounds=1, iterations=1)

    table = format_table(
        ["attack scenario", "configuration", "time (virtual s)", "failures",
         "regenerated", "correct output"],
        rows,
        title="Recovery ablation: dynamic regeneration vs static replication "
              "under identical attack campaigns")
    record_report("Ablation - resiliency vs static replication under attack", table)

    # Every configuration that completed produced the correct composite.
    assert all(correct for _, correct in outcomes.values())
    # The resilient configuration regenerates replicas whenever a whole group
    # or node is taken out; the static one never does.
    wipeout_resilient, _ = outcomes[("group wipe-out", "resilient")]
    assert wipeout_resilient.replicas_regenerated >= 1
    for (scenario_name, variant_name), (outcome, _) in outcomes.items():
        if "static" in variant_name:
            assert outcome.replicas_regenerated == 0

    # After a sustained assault the resilient system has restored every worker
    # group to its target replication level.
    assault_outcome, _ = outcomes[("sustained assault", "resilient")]
    report = assault_outcome.resilience["replication"]
    assert all(entry["live"] >= 1 for entry in report.values())
