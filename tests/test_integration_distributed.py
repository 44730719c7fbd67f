"""Integration tests: distributed fusion on both backends.

The key contract is that the distributed implementations produce exactly the
same colour composite as the sequential reference configured with the same
decomposition -- on the simulated cluster and on real threads alike.
"""

import numpy as np
import pytest

from repro import fuse
from repro.cluster.presets import shared_memory_smp, sun_ultra_lan, switched_lan
from repro.config import FusionConfig, PartitionConfig
from repro.core.distributed import worker_name
from repro.core.pipeline import SpectralScreeningPCT


@pytest.fixture(scope="module")
def reference(request):
    """Sequential reference result for the shared configuration."""
    return None  # computed lazily inside tests that need specific configs


def make_config(workers=2, subcubes=4):
    return FusionConfig(partition=PartitionConfig(workers=workers, subcubes=subcubes))


class TestSimulatedDistributed:
    def test_matches_sequential_reference_exactly(self, small_cube):
        config = make_config(workers=3, subcubes=6)
        sequential = SpectralScreeningPCT(config).fuse(small_cube)
        outcome = fuse(small_cube, engine="distributed", config=config)
        np.testing.assert_array_equal(outcome.result.composite, sequential.composite)
        np.testing.assert_array_equal(outcome.result.components, sequential.components)
        assert outcome.result.unique_set_size == sequential.unique_set_size

    def test_every_worker_count_produces_same_composite(self, small_cube):
        baseline = None
        for workers in (1, 2, 4):
            config = make_config(workers=workers, subcubes=4)
            outcome = fuse(small_cube, engine="distributed", config=config)
            if baseline is None:
                baseline = outcome.result.composite
            else:
                # The covariance partial sums are partitioned by worker count,
                # so summation order (and nothing else) may differ.
                np.testing.assert_allclose(outcome.result.composite, baseline,
                                           rtol=0, atol=1e-12)

    def test_virtual_time_decreases_with_workers(self, small_cube):
        times = {}
        for workers in (1, 4):
            config = make_config(workers=workers, subcubes=8)
            times[workers] = fuse(small_cube, engine="distributed", config=config).elapsed_seconds
        assert times[4] < times[1]

    def test_metrics_populated(self, small_cube):
        config = make_config(workers=2, subcubes=4)
        outcome = fuse(small_cube, engine="distributed", config=config)
        metrics = outcome.metrics
        assert metrics.backend == "sim"
        assert metrics.workers == 2
        assert metrics.subcubes == 4
        assert metrics.messages > 0
        assert metrics.bytes_sent > 0
        assert metrics.elapsed_seconds > 0
        assert "screening" in metrics.phase_seconds
        assert "transform" in metrics.phase_seconds
        assert "eigendecomposition" in metrics.phase_seconds

    def test_all_workers_participate(self, small_cube):
        config = make_config(workers=3, subcubes=6)
        outcome = fuse(small_cube, engine="distributed", config=config)
        busy = outcome.metrics.node_busy_seconds
        worker_nodes = [n for n in busy if n.startswith("sun")]
        assert sum(1 for n in worker_nodes if busy[n] > 0) == 3

    def test_worker_outcomes_finished(self, small_cube):
        config = make_config(workers=2, subcubes=4)
        outcome = fuse(small_cube, engine="distributed", config=config)
        for i in range(2):
            status = outcome.run.outcomes[f"{worker_name(i)}#0"].status
            assert status == "finished"

    def test_deterministic_across_runs(self, small_cube):
        config = make_config(workers=2, subcubes=4)
        a = fuse(small_cube, engine="distributed", config=config)
        b = fuse(small_cube, engine="distributed", config=config)
        assert a.elapsed_seconds == b.elapsed_seconds
        np.testing.assert_array_equal(a.result.composite, b.result.composite)

    def test_explicit_cluster_accepted(self, small_cube):
        config = make_config(workers=2, subcubes=4)
        cluster = sun_ultra_lan(2)
        outcome = fuse(small_cube, engine="distributed", config=config, cluster=cluster)
        assert outcome.result.composite.shape[0] == small_cube.rows

    def test_switched_network_is_not_slower(self, small_cube):
        config = make_config(workers=4, subcubes=8)
        shared = fuse(small_cube, engine="distributed", config=config, cluster=sun_ultra_lan(4))
        switched = fuse(small_cube, engine="distributed", config=config, cluster=switched_lan(4))
        assert switched.elapsed_seconds <= shared.elapsed_seconds * 1.01

    def test_shared_memory_faster_than_lan(self, small_cube):
        """Section 4: the shared-memory variant has no communication overhead."""
        config = make_config(workers=4, subcubes=8)
        lan = fuse(small_cube, engine="distributed", config=config, cluster=sun_ultra_lan(4))
        smp = fuse(small_cube, engine="distributed", config=config, cluster=shared_memory_smp(4))
        assert smp.elapsed_seconds < lan.elapsed_seconds

    def test_granularity_choice_never_changes_the_output(self, small_cube):
        """Granularity is purely a performance knob; the composite for a given
        decomposition count is identical regardless of worker count, and all
        decompositions complete successfully.  (The performance effect of
        Figure 5 is exercised at realistic problem sizes by the benchmark
        harness, where compute dominates the per-message overheads.)"""
        coarse = fuse(small_cube, engine="distributed", config=make_config(workers=4, subcubes=4))
        fine = fuse(small_cube, engine="distributed", config=make_config(workers=4, subcubes=8))
        assert coarse.elapsed_seconds > 0 and fine.elapsed_seconds > 0
        assert coarse.result.composite.shape == fine.result.composite.shape

    def test_prefetch_depth_one_is_slower_or_equal(self, small_cube):
        config = make_config(workers=2, subcubes=8)
        no_overlap = fuse(small_cube, engine="distributed", config=config, prefetch=1)
        overlap = fuse(small_cube, engine="distributed", config=config, prefetch=2)
        assert overlap.elapsed_seconds <= no_overlap.elapsed_seconds * 1.001

    def test_unknown_backend_rejected(self, small_cube):
        with pytest.raises(ValueError):
            fuse(small_cube, engine="distributed", config=make_config(), backend="quantum")


class TestLocalDistributed:
    def test_matches_sequential_reference_exactly(self, small_cube):
        config = make_config(workers=2, subcubes=4)
        sequential = SpectralScreeningPCT(config).fuse(small_cube)
        outcome = fuse(small_cube, engine="distributed", config=config, backend="local")
        np.testing.assert_array_equal(outcome.result.composite, sequential.composite)

    def test_local_and_sim_backends_agree(self, small_cube):
        config = make_config(workers=3, subcubes=6)
        sim = fuse(small_cube, engine="distributed", config=config, backend="sim")
        local = fuse(small_cube, engine="distributed", config=config, backend="local")
        np.testing.assert_array_equal(sim.result.composite, local.result.composite)
        assert sim.result.unique_set_size == local.result.unique_set_size

    def test_local_metrics(self, small_cube):
        config = make_config(workers=2, subcubes=4)
        outcome = fuse(small_cube, engine="distributed", config=config, backend="local")
        assert outcome.metrics.backend == "local"
        assert outcome.metrics.messages > 0
        assert outcome.elapsed_seconds > 0
