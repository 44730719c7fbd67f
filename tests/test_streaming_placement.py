"""The pipeline engine's placement plan: whole requests below the crossover.

``execute_pipeline_request`` places a request of at most
``WHOLE_REQUEST_MAX_SAMPLES`` samples as one slot task (``placement ==
"request"``) and splits anything larger into stage tasks (``"stages"``).
The plan decides *where* the same work runs, never how it is cut, so every
test here is a bit-identity test first: against the sequential reference at
the boundary, against a direct ``run_pipeline`` call (the split path on the
same executor) for tilings and random small shapes.  The chaos half pins the
covered-stages rule of ``inject_kill``: a kill armed on any pipeline stage
still fires when that stage runs inside a whole-request task.
"""

import time

import numpy as np
import pytest

from _process_utils import run_pipeline_copied, shm_residue
from repro import fuse, open_session
from repro.api.request import FusionRequest
from repro.config import FusionConfig, PartitionConfig, ScreeningConfig
from repro.core.streaming import (STAGE_LABELS, WHOLE_REQUEST_MAX_SAMPLES,
                                  execute_pipeline_request)
from repro.data.cube import HyperspectralCube
from repro.data.hydice import HydiceConfig, HydiceGenerator
from repro.data.shared import SharedComposite, owned_segment_names
from repro.paritylab.harness import FLOAT32_COMPOSITE_ATOL
from repro.scp.stages import (StageCrashError, StageError,
                              TransportStageExecutor)
from repro.scp.transport import InProcessTransport

#: The boundary scenes: ``BANDS x rows x COLS`` with ``rows`` chosen so the
#: first holds exactly the constant and the second is one row past it.
BANDS, COLS = 32, 128
ROWS_AT = WHOLE_REQUEST_MAX_SAMPLES // (BANDS * COLS)

KERNEL_COUNTS = {"screening": 4, "mean": 1, "covariance": 2,
                 "eigendecomposition": 1, "projection": 2}


def _scene(rows, seed):
    return HydiceGenerator(HydiceConfig(bands=BANDS, rows=rows, cols=COLS,
                                        seed=seed)).generate()


@pytest.fixture(scope="module")
def boundary_cubes():
    """``{"request": cube at the constant, "stages": one row larger}``."""
    assert ROWS_AT * BANDS * COLS == WHOLE_REQUEST_MAX_SAMPLES
    return {"request": _scene(ROWS_AT, 41), "stages": _scene(ROWS_AT + 1, 42)}


def test_the_constant_keeps_the_kill_storm_scene_split():
    # 128x128x64 (benchmarks/e2e's socket_killstorm) must keep dispatching
    # screen / covariance / project tasks, and is faster split.
    assert WHOLE_REQUEST_MAX_SAMPLES < 128 * 128 * 64


class TestPlanBoundary:
    @pytest.mark.parametrize("spec", ["local:2", "process:2", "socket:2"])
    def test_both_sides_of_the_constant_match_sequential(
            self, boundary_cubes, fast_config, spec):
        with open_session(engine="pipeline", backend=spec,
                          config=fast_config) as session:
            for placement, cube in boundary_cubes.items():
                reference = fuse(cube, engine="sequential", config=fast_config)
                report = session.fuse(cube)
                metadata = report.result.metadata
                assert metadata["placement"] == placement
                assert metadata["stage_tasks"] == (
                    1 if placement == "request" else 4 + 2 + 2)
                assert metadata["stage_invocations"] == KERNEL_COUNTS
                assert metadata["tiles"] == 2
                assert set(report.stage_timings) == set(KERNEL_COUNTS)
                np.testing.assert_array_equal(report.composite,
                                              reference.composite)
                np.testing.assert_array_equal(report.components,
                                              reference.components)

                fast = session.fuse(cube, compute_dtype="float32")
                fast_reference = fuse(cube, engine="sequential",
                                      config=fast_config,
                                      compute_dtype="float32")
                assert fast.result.metadata["placement"] == placement
                assert np.abs(fast.composite - fast_reference.composite).max() \
                    <= FLOAT32_COMPOSITE_ATOL
        assert owned_segment_names() == ()

    def test_one_shot_fuse_takes_the_same_path(self, tiny_cube, fast_config):
        reference = fuse(tiny_cube, engine="sequential", config=fast_config)
        report = fuse(tiny_cube, engine="pipeline", backend="process:2",
                      config=fast_config)
        assert report.result.metadata["placement"] == "request"
        assert report.result.metadata["stage_tasks"] == 1
        np.testing.assert_array_equal(report.composite, reference.composite)
        assert owned_segment_names() == ()


class TestWholeRequestHonoursExplicitTiling:
    """``tile_rows`` / ``subcubes`` reach the worker: same cut, same bits."""

    @pytest.fixture(scope="class")
    def session(self):
        config = FusionConfig(
            screening=ScreeningConfig(angle_threshold=0.05, max_unique=512),
            partition=PartitionConfig(workers=2, subcubes=4))
        with open_session(engine="pipeline", backend="process:2",
                          config=config) as session:
            yield session

    def _split(self, session, cube, **overrides):
        """The same request forced down the split path, same executor."""
        request = FusionRequest(cube=cube, engine="pipeline",
                                backend="process:2",
                                **{**session._defaults, **overrides})
        return run_pipeline_copied(cube, request.resolved_config(),
                                   session.stage_executor(),
                                   tile_rows=request.tile_rows)

    def test_default_tiling_is_one_tile_per_worker_on_both_sides(
            self, session, tiny_cube):
        split = self._split(session, tiny_cube)
        metadata = session.fuse(tiny_cube).result.metadata
        assert metadata["placement"] == "request"
        assert (metadata["tiles"], metadata["tile_rows"]) == \
            (split.metadata["tiles"], split.metadata["tile_rows"]) == \
            (2, tiny_cube.rows // 2)

    @pytest.mark.parametrize("tile_rows", [1, 5, 32])
    def test_tile_rows(self, session, tiny_cube, tile_rows):
        split = self._split(session, tiny_cube, tile_rows=tile_rows)
        report = session.fuse(tiny_cube, tile_rows=tile_rows)
        metadata = report.result.metadata
        assert metadata["placement"] == "request"
        assert split.metadata["placement"] == "stages"
        assert metadata["tiles"] == split.metadata["tiles"]
        assert metadata["tile_rows"] == tile_rows
        np.testing.assert_array_equal(report.composite, split.composite)
        np.testing.assert_array_equal(report.components, split.components)

    @pytest.mark.parametrize("subcubes", [2, 3, 32])  # >= workers is the floor
    def test_subcubes(self, session, tiny_cube, subcubes):
        split = self._split(session, tiny_cube, subcubes=subcubes)
        report = session.fuse(tiny_cube, subcubes=subcubes)
        metadata = report.result.metadata
        assert metadata["placement"] == "request"
        assert report.metrics.subcubes == subcubes
        assert (metadata["stage_invocations"]["screening"]
                == split.metadata["stage_invocations"]["screening"]
                == subcubes)
        assert report.unique_set_size == split.unique_set_size
        np.testing.assert_array_equal(report.composite, split.composite)
        np.testing.assert_array_equal(report.components, split.components)


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - minimal environments
    HAVE_HYPOTHESIS = False


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestWholeEqualsSplitProperty:
    """Over random small shapes the two placements agree bit for bit."""

    @pytest.fixture(scope="class")
    def executor(self):
        with TransportStageExecutor(InProcessTransport(workers=2),
                                    workers=2) as executor:
            yield executor

    if HAVE_HYPOTHESIS:
        @settings(max_examples=40, deadline=None)
        @given(rows=st.integers(min_value=2, max_value=24),
               cols=st.integers(min_value=2, max_value=24),
               bands=st.integers(min_value=3, max_value=16),
               workers=st.integers(min_value=1, max_value=3),
               tile_rows=st.one_of(st.none(),
                                   st.integers(min_value=1, max_value=24)),
               seed=st.integers(min_value=0, max_value=2 ** 16))
        def test_request_and_stages_agree(self, executor, rows, cols, bands,
                                          workers, tile_rows, seed):
            rng = np.random.default_rng(seed)
            cube = HyperspectralCube(
                data=rng.random((bands, rows, cols)) + 0.1,
                wavelengths_nm=400.0 + 10.0 * np.arange(bands))
            config = FusionConfig(
                screening=ScreeningConfig(angle_threshold=0.05, max_unique=64),
                partition=PartitionConfig(workers=workers, subcubes=2 * workers))
            request = FusionRequest(cube=cube, engine="pipeline",
                                    backend="local", config=config,
                                    tile_rows=tile_rows)
            report = execute_pipeline_request(request, executor,
                                              backend_label="local")
            split = run_pipeline_copied(cube, config, executor,
                                        tile_rows=tile_rows)
            whole = report.result
            assert whole.metadata["placement"] == "request"
            assert whole.metadata["tiles"] == split.metadata["tiles"]
            assert (whole.metadata["stage_invocations"]
                    == split.metadata["stage_invocations"])
            assert whole.unique_set_size == split.unique_set_size
            np.testing.assert_array_equal(whole.composite, split.composite)
            np.testing.assert_array_equal(whole.components, split.components)
            np.testing.assert_array_equal(whole.basis.components,
                                          split.basis.components)


class TestWholeRequestsShareTheSlots:
    # How many whole requests a worker holds at once is the executor's
    # dispatch window, tested in test_transport_contract.py
    # (test_each_worker_runs_one_task_and_holds_the_next).

    def test_close_fails_an_in_flight_whole_request_typed(self, boundary_cubes):
        # ~0.5 s of screening inside the one task: a window close() cannot miss.
        slow = FusionConfig(
            screening=ScreeningConfig(angle_threshold=0.005, max_unique=4096),
            partition=PartitionConfig(workers=2, subcubes=4))
        session = open_session(engine="pipeline", backend="process:2",
                               config=slow)
        executor = session.stage_executor()
        future = session.submit(boundary_cubes["request"])
        deadline = time.monotonic() + 30
        while executor.in_flight == 0 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert executor.in_flight == 1
        session.close()
        with pytest.raises(StageError, match="request"):
            future.result(timeout=30)
        assert owned_segment_names() == ()
        assert shm_residue() == []


@pytest.mark.parametrize("spec", ["process:2", "socket:2"])
class TestKillsFireOnWholeRequests:
    """``inject_kill(stage)`` hits the next task that *runs* ``stage``."""

    @pytest.mark.flaky(reruns=2)
    def test_each_stage_kill_costs_one_retry(self, tiny_cube, fast_config, spec):
        reference = fuse(tiny_cube, engine="sequential", config=fast_config)
        with open_session(engine="pipeline", backend=spec,
                          config=fast_config) as session:
            executor = session.stage_executor()
            for count, stage in enumerate(STAGE_LABELS, start=1):
                executor.inject_kill(stage)
                report = session.fuse(tiny_cube)
                assert report.result.metadata["placement"] == "request"
                assert executor.retries == count
                assert executor.kills_delivered[stage] == 1
                assert executor.pending_kills == {}
                np.testing.assert_array_equal(report.composite,
                                              reference.composite)
            assert executor.kills_delivered == dict.fromkeys(STAGE_LABELS, 1)

    @pytest.mark.flaky(reruns=2)
    def test_one_kill_per_stage_is_one_sigkill(self, tiny_cube, fast_config,
                                               spec):
        # The kill-storm profile: all three armed before one request.  One
        # armed stage taken per dispatch would burn the whole retry budget.
        reference = fuse(tiny_cube, engine="sequential", config=fast_config)
        with open_session(engine="pipeline", backend=spec,
                          config=fast_config) as session:
            executor = session.stage_executor()
            for stage in STAGE_LABELS:
                executor.inject_kill(stage)
            report = session.fuse(tiny_cube)
            assert executor.retries == 1
            assert executor.kills_delivered == dict.fromkeys(STAGE_LABELS, 1)
            assert executor.pending_kills == {}
            np.testing.assert_array_equal(report.composite,
                                          reference.composite)

    @pytest.mark.flaky(reruns=2)
    def test_exhausted_budget_is_typed_and_discards_the_placement(
            self, tiny_cube, fast_config, spec):
        session = open_session(engine="pipeline", backend=spec,
                               config=fast_config)
        try:
            executor = session.stage_executor()
            session.fuse(tiny_cube)  # a pooled placement exists to lose
            assert session._segments.held(SharedComposite) == 1
            executor.inject_kill("covariance", kills=3)
            with pytest.raises(StageCrashError, match="request"):
                session.fuse(tiny_cube)
            assert executor.kills_delivered == {"covariance": 3}
            assert executor.pending_kills == {}
            assert session._segments.held(SharedComposite) == 0  # discarded, not reissued
            assert session.fuse(tiny_cube).result.metadata["placement"] == "request"
        finally:
            session.close()
        assert owned_segment_names() == ()
        assert shm_residue() == []
