"""SharedComposite output placements, pin counts, and the leak-proof registry."""

import os
import pickle
import subprocess
import sys
import textwrap
import threading

import numpy as np
import pytest

from _process_utils import run_pipeline_copied
from repro.api.request import FusionRequest
from repro.config import FusionConfig, PartitionConfig, ScreeningConfig
from repro.core.streaming import execute_pipeline_request
from repro.data.cube import CubeError
from repro.data.hydice import HydiceConfig, HydiceGenerator
from repro.data.shared import (OutputPool, SharedComposite, output_tile_views,
                               owned_segment_names, sweep_owned_segments)
from repro.scp.stages import TransportStageExecutor
from repro.scp.transport import ForkedProcessTransport


def _segment_exists(name: str) -> bool:
    return os.path.exists(os.path.join("/dev/shm", name))


class TestSharedComposite:
    def test_attached_writes_are_visible_to_the_owner(self):
        with SharedComposite.create(8, 5, n_components=3) as out:
            handle = out.handle()
            components = np.arange(3 * 5 * 3, dtype=np.float64).reshape(3, 5, 3)
            composite = components + 1000.0
            # The worker-side entry point: attach through the handle, write.
            with output_tile_views(handle, 2, 5) as (components_view,
                                                     composite_view):
                components_view[...] = components
                composite_view[...] = composite
            np.testing.assert_array_equal(out.components[2:5], components)
            np.testing.assert_array_equal(out.composite[2:5], composite)
            # Rows outside the tile stay untouched (zero-initialised pages).
            assert not out.components[:2].any()

    def test_pickle_transfers_only_a_handle(self):
        with SharedComposite.create(64, 64, n_components=3) as out:
            blob = pickle.dumps(out, protocol=pickle.HIGHEST_PROTOCOL)
            assert len(blob) < out.components.nbytes / 100
            clone = pickle.loads(blob)
            try:
                assert clone.segment_name == out.segment_name
                assert not clone.is_owner
            finally:
                clone.close()

    def test_out_of_range_writes_are_rejected(self):
        with SharedComposite.create(4, 3) as out:
            with pytest.raises(ValueError, match="out of range"):
                with output_tile_views(out.handle(), 3, 5):
                    pass

    def test_handle_and_write_refused_after_close(self):
        out = SharedComposite.create(4, 3)
        handle = out.handle()
        out.close()
        with pytest.raises(CubeError):
            out.handle()
        # The owner's close unlinked the segment and evicted the cached
        # attachment, so a late writer fails at attach -- it can never
        # write into released pages.
        with pytest.raises(FileNotFoundError):
            with output_tile_views(handle, 0, 1):
                pass

    def test_double_close_is_idempotent(self):
        out = SharedComposite.create(4, 3)
        name = out.segment_name
        out.close()
        out.close()
        assert out.closed and not _segment_exists(name)

    def test_close_after_crash_is_idempotent(self):
        # A crashed peer (or an earlier sweep) already unlinked the segment;
        # close must swallow the FileNotFoundError, not raise.
        out = SharedComposite.create(4, 3)
        out._shm.unlink()
        out.close()
        out.close()
        assert out.closed

    def test_pinned_close_is_deferred_to_the_last_unpin(self):
        out = SharedComposite.create(4, 3)
        name = out.segment_name
        out.pin()
        out.pin()
        out.close()  # two in-flight runs: must not release anything yet
        assert not out.closed and _segment_exists(name)
        out.unpin()
        assert not out.closed and _segment_exists(name)
        out.unpin()  # last pin released: the deferred close completes
        assert out.closed and not _segment_exists(name)

    def test_pinning_a_closed_placement_is_refused(self):
        out = SharedComposite.create(4, 3)
        out.close()
        with pytest.raises(CubeError, match="pin"):
            out.pin()

    def test_attachment_cache_eviction_respects_pins(self):
        # A writer's attachment is pinned for the duration of its write;
        # cache eviction must skip pinned entries (transiently exceeding the
        # bound) so a concurrent write can never lose its arrays mid-flight.
        from repro.data.shared import _ATTACHMENTS_LIMIT, _attach_output

        owners = [SharedComposite.create(2, 2)
                  for _ in range(_ATTACHMENTS_LIMIT + 2)]
        try:
            attached = [_attach_output(owner.handle()) for owner in owners]
            # Every entry is pinned: nothing was evicted despite the bound.
            assert all(not placement.closed for placement in attached)
            for placement in attached:
                placement.unpin()
            extra = SharedComposite.create(2, 2)
            owners.append(extra)
            _attach_output(extra.handle()).unpin()  # now eviction resumes
            assert any(placement.closed for placement in attached)
        finally:
            for owner in owners:
                owner.close()  # also sweeps the matching cache entries


class TestOutputPool:
    def test_release_then_acquire_reuses_the_segment(self):
        with OutputPool(max_segments=2) as pool:
            first = pool.acquire(8, 4, 3)
            assert first.pins == 1
            name = first.segment_name
            pool.release(first)
            assert first.pins == 0
            again = pool.acquire(8, 4, 3)
            assert again.segment_name == name

    def test_concurrent_streams_get_distinct_pinned_segments(self):
        # Two overlapping runs of the same output shape must never share a
        # placement: the first is pinned, so acquire allocates a second.
        with OutputPool(max_segments=4) as pool:
            first = pool.acquire(8, 4, 3)
            second = pool.acquire(8, 4, 3)
            assert first.segment_name != second.segment_name
            assert first.pins == 1 and second.pins == 1

    def test_shape_mismatch_allocates_a_new_segment(self):
        with OutputPool(max_segments=4) as pool:
            first = pool.acquire(8, 4, 3)
            pool.release(first)
            other = pool.acquire(16, 4, 3)
            assert other.segment_name != first.segment_name

    def test_eviction_skips_pinned_segments(self):
        with OutputPool(max_segments=1) as pool:
            pinned = pool.acquire(8, 4, 3)
            extra = pool.acquire(8, 4, 3)  # transiently over the bound
            pool.release(extra)  # over-bound: evicts the *unpinned* extra
            assert extra.closed
            assert not pinned.closed and pinned.pins == 1
            np.testing.assert_array_equal(pinned.components.shape, (8, 4, 3))
            pool.release(pinned)

    def test_new_shape_evicts_an_idle_segment_before_allocating(self):
        # Over the bound only while everything is pinned: a stream of
        # distinct shapes never holds an idle segment beside a full window.
        with OutputPool(max_segments=2) as pool:
            busy = pool.acquire(8, 4, 3)
            idle = pool.acquire(9, 4, 3)
            pool.release(idle)
            fresh = pool.acquire(10, 4, 3)
            assert idle.closed and pool.segments == 2
            pool.release(fresh)
            pool.release(busy)

    def test_concurrent_new_shapes_count_each_others_allocations(self, monkeypatch):
        # Two threads allocate new shapes at once.  Each reservation -- the
        # eviction pass and the creation -- is made under the pool's lock,
        # so each counts the other's allocation: no idle segment survives
        # beside the two new ones, and the pool ends within its bound.
        import repro.data.shared as shared

        create = shared._create_segment
        under_lock = []
        both_started = threading.Barrier(2, timeout=10)

        def watched_create(nbytes):
            under_lock.append(pool._lock.locked())
            return create(nbytes)

        with OutputPool(max_segments=2) as pool:
            for rows in (8, 9):
                pool.release(pool.acquire(rows, 4, 3))
            monkeypatch.setattr(shared, "_create_segment", watched_create)
            placements = []

            def borrow(rows):
                both_started.wait()
                placements.append(pool.acquire(rows, 4, 3))

            threads = [threading.Thread(target=borrow, args=(rows,))
                       for rows in (10, 11)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert len(placements) == 2
            assert under_lock == [True, True]
            assert pool.segments <= 2
            for placement in placements:
                pool.release(placement)

    def test_same_byte_size_reuses_the_segment_across_shapes(self):
        # Recycling is by byte size: an 8x4 output's segment serves a 4x8
        # one, and a writer's cached attachment is re-mapped to the new
        # shape instead of writing through the stale one.
        with OutputPool(max_segments=2) as pool:
            first = pool.acquire(8, 4, 3)
            name = first.segment_name
            with output_tile_views(first.handle(), 0, 8):
                pass  # the writer side now caches an 8-row attachment
            pool.release(first)
            again = pool.acquire(4, 8, 3)
            assert again.segment_name == name and first.closed
            assert again.components.shape == (4, 8, 3)
            with output_tile_views(again.handle(), 1, 4) as (components, composite):
                assert components.shape == (3, 8, 3)
                composite[...] = 7.0
            assert (again.composite[1:] == 7.0).all()
            pool.release(again)

    def test_discard_retires_the_segment_instead_of_reissuing(self):
        # A failed run's placement may still have straggler writers; discard
        # must unlink it and the next acquire must get a fresh segment.
        with OutputPool(max_segments=2) as pool:
            failed = pool.acquire(8, 4, 3)
            name = failed.segment_name
            pool.discard(failed)
            assert failed.closed and not _segment_exists(name)
            assert pool.segments == 0
            fresh = pool.acquire(8, 4, 3)
            assert fresh.segment_name != name
            pool.release(fresh)

    def test_close_is_idempotent_and_force_releases_pins(self):
        pool = OutputPool(max_segments=2)
        abandoned = pool.acquire(8, 4, 3)  # an abandoned run never released
        name = abandoned.segment_name
        pool.close()
        pool.close()
        assert abandoned.closed and not _segment_exists(name)
        with pytest.raises(CubeError, match="closed"):
            pool.acquire(8, 4, 3)


class TestSegmentRegistry:
    def test_owned_segments_are_tracked_until_close(self):
        out = SharedComposite.create(4, 3)
        assert out.segment_name in owned_segment_names()
        out.close()
        assert out.segment_name not in owned_segment_names()

    def test_sweep_force_closes_leftovers(self):
        # A placement abandoned without close() -- the crash/abandon leak
        # class -- is released by the registry sweep (the atexit hook).
        leaked = SharedComposite.create(4, 3)
        leaked.pin()  # even a pinned leftover must not survive the sweep
        name = leaked.segment_name
        assert sweep_owned_segments() >= 1
        assert leaked.closed and not _segment_exists(name)
        assert name not in owned_segment_names()

    @pytest.mark.skipif(sys.version_info >= (3, 13),
                        reason="attaching swaps no tracker hook from 3.13 on")
    def test_a_create_during_an_attach_is_still_tracked(self, monkeypatch):
        # Before 3.13 an attach silences the process-wide tracker hook for a
        # moment; a segment created on another thread in that moment must
        # still be registered, or its unlink upsets the tracker and a crash
        # leaks it.
        from multiprocessing import resource_tracker, shared_memory

        registered = []
        register = resource_tracker.register

        def spy(name, rtype):
            registered.append(name)
            register(name, rtype)

        monkeypatch.setattr(resource_tracker, "register", spy)
        real = shared_memory.SharedMemory
        inside, leave = threading.Event(), threading.Event()

        def gated(*args, **kwargs):
            if kwargs.keys() == {"name"}:  # the attach, with the hook off
                inside.set()
                leave.wait(timeout=10)
            return real(*args, **kwargs)

        with SharedComposite.create(4, 3) as owner:
            monkeypatch.setattr(shared_memory, "SharedMemory", gated)
            attacher = threading.Thread(
                target=lambda: SharedComposite.attach(owner.handle()).close())
            attacher.start()
            assert inside.wait(timeout=10)
            created = []
            creator = threading.Thread(
                target=lambda: created.append(SharedComposite.create(4, 3)))
            creator.start()
            creator.join(timeout=0.3)  # it must wait for the hook to return
            leave.set()
            attacher.join(timeout=10)
            creator.join(timeout=10)
            monkeypatch.setattr(shared_memory, "SharedMemory", real)
            (fresh,) = created
            assert "/" + fresh.segment_name in registered
            fresh.close()


class TestZeroCopyParity:
    """The one result path changes no output, on any transport."""

    @pytest.fixture(scope="class")
    def cube(self):
        return HydiceGenerator(HydiceConfig(bands=12, rows=29, cols=17, seed=5,
                                            vehicles=1,
                                            camouflaged_vehicles=0)).generate()

    @pytest.fixture(scope="class")
    def config(self):
        return FusionConfig(
            screening=ScreeningConfig(angle_threshold=0.05, max_unique=256),
            partition=PartitionConfig(workers=2, subcubes=2))

    @pytest.mark.parametrize("kind", ["local", "process"])
    def test_every_transport_x_scheduler_matches_sequential(
            self, cube, config, kind):
        from repro import fuse
        from repro.scp.registry import BackendSpec
        from repro.scp.transport import transport_for_spec

        reference = fuse(cube, engine="sequential", config=config)
        transport = transport_for_spec(BackendSpec.parse(kind), workers=2)
        with TransportStageExecutor(transport, workers=2) as executor:
            result = run_pipeline_copied(cube, config, executor)
        np.testing.assert_array_equal(result.composite, reference.composite)
        np.testing.assert_array_equal(result.components,
                                      reference.result.components)
        assert owned_segment_names() == ()  # every placement released

    def test_zero_copy_project_stage_returns_acknowledgements_not_pixels(
            self, cube, config):
        """The zero-copy contract: O(tiles) acknowledgements, not O(pixels)
        pickles, come back from the ``project`` stage (byte counts are
        deterministic, so the 10x floor is not a timing assertion)."""
        from repro.scp.pool import ProcessPool

        with ProcessPool() as pool:
            with TransportStageExecutor(ForkedProcessTransport(pool),
                                        workers=2) as executor:
                result = run_pipeline_copied(cube, config, executor)
                project_bytes = executor.stage_payload_bytes["project"]
        assert project_bytes <= 64 * result.metadata["tiles"]
        assert project_bytes * 10 <= (result.components.nbytes
                                      + result.composite.nbytes)
        assert owned_segment_names() == ()


class TestFailedRunDiscardsPlacement:
    """A crashed zero-copy run never returns its segment to the pool.

    Regression: straggler projection tasks of a failed run may still be
    writing into the placement after the driver gives up; reissuing that
    segment to a concurrent stream would let them corrupt its composite.
    """

    def test_crashed_run_retires_its_output_segment(self, tiny_cube,
                                                    fast_config):
        from repro.scp.pool import ProcessPool
        from repro.scp.stages import StageCrashError

        pool = OutputPool(max_segments=2)
        request = FusionRequest(cube=tiny_cube, engine="pipeline",
                                config=fast_config)

        def run(executor):
            return execute_pipeline_request(request, executor,
                                            backend_label="process:2",
                                            output_pool=pool)

        with ProcessPool() as workers:
            with TransportStageExecutor(ForkedProcessTransport(workers),
                                        workers=2, max_retries=0) as executor:
                executor.inject_kill("project", kills=8)
                with pytest.raises(StageCrashError):
                    run(executor)
            assert pool.segments == 0  # discarded, not returned for reuse
            with TransportStageExecutor(ForkedProcessTransport(workers),
                                        workers=2) as executor:
                report = run(executor)
            assert report.composite.shape == (tiny_cube.rows, tiny_cube.cols, 3)
            assert pool.segments == 1
        pool.close()


class TestCrashAndAbandonLeakRegression:
    """No /dev/shm residue and no resource-tracker warnings after crashes.

    Regression for the segment-lifecycle leak: a SIGKILLed worker mid-task
    plus an abandoned stream used to leave shared-memory segments behind
    (observable as ``/dev/shm`` residue and resource-tracker shutdown
    warnings).  The scenario runs in a subprocess so the interpreter-exit
    path -- where the tracker prints its warnings and the atexit sweep
    runs -- is part of what is asserted.
    """

    SCRIPT = textwrap.dedent("""
        import gc, os, sys
        before = set(os.listdir("/dev/shm"))
        import numpy as np
        import repro
        from repro.config import FusionConfig, PartitionConfig, ScreeningConfig
        from repro.data.hydice import HydiceConfig, HydiceGenerator

        cube = HydiceGenerator(HydiceConfig(bands=8, rows=24, cols=16, seed=9,
                                            vehicles=1,
                                            camouflaged_vehicles=0)).generate()
        config = FusionConfig(
            screening=ScreeningConfig(angle_threshold=0.05, max_unique=128),
            partition=PartitionConfig(workers=2, subcubes=2))
        session = repro.open_session(engine="pipeline", backend="process:fork",
                                     config=config, max_inflight=2)
        # A real SIGKILL mid-projection: the slot dies holding an attached
        # cube segment and a half-written output placement.
        executor = session._stage_runtime()
        executor.inject_kill("project")
        session.fuse(cube)
        assert executor.retries >= 1
        # An abandoned stream: walk away mid-window, then close.
        stream = session.fuse_stream([cube] * 6)
        next(stream)
        session.close()
        gc.collect()
        leftover = sorted(name for name in set(os.listdir("/dev/shm")) - before
                          if name.startswith(("psm_", "scp-stages-", "wnsm_")))
        print("LEFTOVER=" + ",".join(leftover))
    """)

    def test_no_shm_residue_and_no_tracker_warnings(self):
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], capture_output=True,
            text=True, timeout=180,
            env={**os.environ,
                 "PYTHONPATH": os.pathsep.join(
                     filter(None, [os.path.join(os.path.dirname(__file__),
                                                os.pardir, "src"),
                                   os.environ.get("PYTHONPATH")]))})
        assert proc.returncode == 0, proc.stderr
        assert "LEFTOVER=\n" in proc.stdout or proc.stdout.strip().endswith(
            "LEFTOVER="), f"segments leaked: {proc.stdout!r}"
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr
