"""SharedCube: zero-copy cube placement in shared memory."""

import pickle
import sys
import threading

import numpy as np
import pytest

from repro.data.cube import CubeError, HyperspectralCube
from repro.data.hydice import HydiceConfig, HydiceGenerator
from repro.data.shared import (SegmentPool, SharedComposite, SharedCube,
                               owned_segment_names, share_cube_params)


def test_from_cube_preserves_contents(tiny_cube):
    shared = SharedCube.from_cube(tiny_cube)
    try:
        assert isinstance(shared, HyperspectralCube)
        assert shared.shape == tiny_cube.shape
        np.testing.assert_array_equal(shared.data, tiny_cube.data)
        np.testing.assert_array_equal(shared.wavelengths_nm, tiny_cube.wavelengths_nm)
        assert shared.metadata.keys() == tiny_cube.metadata.keys()
        assert shared.is_owner
    finally:
        shared.close()


def test_from_cube_is_idempotent_on_shared_cubes(tiny_cube):
    with SharedCube.from_cube(tiny_cube) as shared:
        assert SharedCube.from_cube(shared) is shared


def test_attach_maps_the_same_pages(tiny_cube):
    with SharedCube.from_cube(tiny_cube) as shared:
        attached = SharedCube.attach(shared.handle())
        try:
            assert attached.segment_name == shared.segment_name
            assert not attached.is_owner
            np.testing.assert_array_equal(attached.data, shared.data)
            # Same physical pages: a write through one mapping is visible
            # through the other (this is what makes the sharing zero-copy).
            shared.data[0, 0, 0] = 123.5
            assert attached.data[0, 0, 0] == np.float32(123.5)
        finally:
            attached.close()


def test_pickle_roundtrip_transfers_only_a_handle():
    # The acceptance scene, whose metadata holds 256x256 label and target
    # maps: the handle carries the name, shape and wavelengths only -- no
    # samples, no metadata -- and the owner keeps its metadata.
    cube = HydiceGenerator(HydiceConfig(bands=64, rows=256, cols=256,
                                        seed=0)).generate()
    with SharedCube.from_cube(cube) as shared:
        blob = pickle.dumps(shared, protocol=pickle.HIGHEST_PROTOCOL)
        assert len(blob) < 2048
        assert shared.metadata.keys() == cube.metadata.keys()
        np.testing.assert_array_equal(shared.metadata["label_map"],
                                      cube.metadata["label_map"])
        clone = pickle.loads(blob)
        try:
            assert clone.segment_name == shared.segment_name
            assert clone.metadata == {}
            np.testing.assert_array_equal(clone.data, shared.data)
            np.testing.assert_array_equal(clone.wavelengths_nm,
                                          shared.wavelengths_nm)
        finally:
            clone.close()


def test_owner_close_destroys_the_segment(tiny_cube):
    shared = SharedCube.from_cube(tiny_cube)
    handle = shared.handle()
    shared.close()
    assert shared.closed
    shared.close()  # double close is harmless
    with pytest.raises((FileNotFoundError, CubeError)):
        SharedCube.attach(handle)


def test_handle_refused_after_close(tiny_cube):
    shared = SharedCube.from_cube(tiny_cube)
    shared.close()
    with pytest.raises(CubeError):
        shared.handle()


def test_share_cube_params_rewrites_only_cubes(tiny_cube):
    params = {"cube": tiny_cube, "n": 3, "label": "x"}
    shared, created = share_cube_params(params)
    try:
        assert isinstance(shared["cube"], SharedCube)
        assert shared["n"] == 3 and shared["label"] == "x"
        assert created == [shared["cube"]]
        # Re-sharing an already shared parameter set creates nothing new.
        again, created_again = share_cube_params(shared)
        assert again["cube"] is shared["cube"]
        assert created_again == []
    finally:
        for cube in created:
            cube.close()


# ---------------------------------------------------------------------------
# Cube placements borrowed from a SegmentPool
# ---------------------------------------------------------------------------

def _cube(seed, rows=6):
    samples = np.random.default_rng(seed).random((4, rows, 5), dtype=np.float32)
    return HyperspectralCube(samples, np.linspace(400.0, 2500.0, 4))


def test_pool_caches_cubes_by_identity():
    cube = _cube(0)
    with SegmentPool(max_placements=2) as pool:
        first = pool.place(cube)
        np.testing.assert_array_equal(first.data, cube.data)
        pool.release(first)
        again = pool.place(cube)  # a hit: the same placement, no copy
        assert again is first and again.pins == 1
        pool.release(again)
        assert pool.held(SharedCube) == 1


def test_a_miss_on_a_full_cache_reissues_the_oldest_idle_segment():
    a, b, c, other_size = _cube(1), _cube(2), _cube(3), _cube(4, rows=7)
    with SegmentPool(max_placements=2) as pool:
        placed = {}
        for cube in (a, b):
            placed[id(cube)] = pool.place(cube)
            pool.release(placed[id(cube)])
        pool.release(pool.place(a))  # a is now the most recently used
        names = set(owned_segment_names())
        third = pool.place(c)
        # b was the least recently used idle cube of c's byte size: its
        # segment now holds c's samples, and no segment was created.
        assert third.segment_name == placed[id(b)].segment_name
        assert placed[id(b)].closed and not placed[id(a)].closed
        assert set(owned_segment_names()) == names
        np.testing.assert_array_equal(third.data, c.data)
        pool.release(third)
        # No idle segment of another size fits: the oldest idle cube is
        # evicted and unlinked, and a new segment holds the new cube.
        fourth = pool.place(other_size)
        assert placed[id(a)].closed
        assert placed[id(a)].segment_name not in owned_segment_names()
        assert pool.held(SharedCube) == 2
        pool.release(fourth)
    assert owned_segment_names() == ()


def test_overlapping_runs_on_distinct_cubes_never_share_a_segment():
    # Safety rule: a pinned segment is never reissued.  The cache exceeds
    # its bound while both runs hold their pins and returns to it after.
    a, b = _cube(5), _cube(6)
    with SegmentPool(max_placements=1) as pool:
        first = pool.place(a)
        second = pool.place(b)
        assert first.segment_name != second.segment_name
        np.testing.assert_array_equal(first.data, a.data)
        np.testing.assert_array_equal(second.data, b.data)
        assert pool.held(SharedCube) == 2
        pool.release(first)
        pool.release(second)
        assert pool.held(SharedCube) == 1 and first.closed


def test_concurrent_misses_on_one_cube_place_it_once():
    # Two runs miss on the same cube at once: the reservation is made under
    # the pool's lock, so one copy is made and both share that placement.
    cube = _cube(7)
    start = threading.Barrier(2, timeout=10)
    placements = []

    def borrow():
        start.wait()
        placements.append(pool.place(cube))

    with SegmentPool(max_placements=2) as pool:
        before = set(owned_segment_names())
        threads = [threading.Thread(target=borrow) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert len(placements) == 2 and placements[0] is placements[1]
        assert placements[0].pins == 2
        assert len(set(owned_segment_names()) - before) == 1
        for placement in placements:
            pool.release(placement)


def test_pool_under_thread_churn_never_reissues_a_pinned_segment():
    # More threads than cores borrow and return cube and output placements
    # at a shortened switch interval.  While a thread holds a placement its
    # bytes must stay its own: a cube placement still equals its cube (no
    # other cube was copied into it), and an output placement still holds
    # the thread's tag (no other run was given it).
    cubes = [_cube(seed) for seed in range(6)] + [_cube(seed, rows=7) for seed in (6, 7)]
    failures = []

    def churn(tag):
        rng = np.random.default_rng(tag)
        for _ in range(150):
            cube = cubes[rng.integers(len(cubes))]
            placement = pool.place(cube)
            output = pool.acquire(4, 6, 3)
            output.composite[...] = tag
            if not np.array_equal(placement.data, cube.data):
                failures.append(f"cube placement {placement.segment_name} overwritten")
            if not (output.composite == tag).all():
                failures.append(f"output placement {output.segment_name} shared")
            pool.release(output)
            pool.release(placement)

    before = set(owned_segment_names())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SegmentPool(max_segments=2, max_placements=3) as pool:
            threads = [threading.Thread(target=churn, args=(tag,)) for tag in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert failures == []
            assert pool.held(SharedCube) <= 3
            assert pool.held(SharedComposite) <= 2
    finally:
        sys.setswitchinterval(interval)
    assert set(owned_segment_names()) == before
