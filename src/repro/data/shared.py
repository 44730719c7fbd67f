"""Zero-copy sharing of hyper-spectral cubes and fusion outputs.

The process-parallel backend (:mod:`repro.scp.process_backend`) runs the
manager and the workers in separate operating-system processes.  Shipping the
full data cube to the manager process by pickling it through a pipe would
copy hundreds of megabytes at paper scale, so :class:`SharedCube` places the
sample array in a POSIX shared-memory segment
(:mod:`multiprocessing.shared_memory`) instead.  Pickling a :class:`SharedCube`
transfers only a tiny :class:`SharedCubeHandle`; the receiving process maps
the same physical pages and reads the samples without any copy.

A :class:`SharedCube` *is a* :class:`~repro.data.cube.HyperspectralCube`, so
every consumer of a cube (the manager program, ``extract_subcube`` and so on)
works on it unchanged.  The creating process owns the segment: it must keep
the cube alive for the duration of the run and call :meth:`SharedCube.close`
(or use the cube as a context manager) to release the segment afterwards.

Output placements
-----------------
:class:`SharedComposite` is the mirror image for fusion *outputs*: one
preallocated segment holding a run's component and composite arrays, into
which projection/colour-map stage tasks write their tiles directly
(:func:`output_tile_views`).  The tile results then travel back to the
driver as tiny row-range acknowledgements instead of pickled arrays -- the
streaming engine's zero-copy result path.  Placements are *pin-counted*:
a pinned placement (one an in-flight run is writing into) can neither be
evicted from an :class:`OutputPool` nor released early by ``close``.

Leak-proofing
-------------
Every segment *created* by this process is recorded in a process-wide
:class:`SegmentRegistry`.  ``close`` unregisters; whatever is left --
crashed runs, abandoned streams, sessions never closed -- is unlinked by
the registry's ``atexit`` sweep, so no ``/dev/shm`` residue and no
``resource_tracker`` shutdown warnings can outlive the interpreter.  An
owner's ``close`` also unlinks even when a stray numpy view still pins the
local mapping (the pages stay valid for that view; the *name* is gone), so
a forgotten reference can no longer leak a whole segment.
"""

from __future__ import annotations

import atexit
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Callable, Dict, Iterator, List, Protocol, Tuple

import numpy as np

from ..forksafe import ForkSafeLock
from .cube import CubeError, HyperspectralCube


#: Held by every segment creation and by the process-wide tracker-hook swap
#: in :func:`_attach_untracked`, so no creation goes unregistered (its
#: unlink would upset the tracker, and a crash leak it).  Fork-safe (RPL003).
_tracker_lock = ForkSafeLock()


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker registration.

    On CPython < 3.13 merely *attaching* to an existing segment registers it
    with the resource tracker, which unlinks the segment when the attaching
    process exits -- destroying it for the creator and every other process
    (bpo-39959).  Only the creating process should own the segment's
    lifetime, so registration is suppressed here: natively via ``track=False``
    where available, otherwise by briefly disabling the tracker's hook.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no ``track`` parameter
        pass
    from multiprocessing import resource_tracker

    with _tracker_lock:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


# ---------------------------------------------------------------------------
# Leak-proof segment registry
# ---------------------------------------------------------------------------

class _SegmentOwner(Protocol):
    """What the registry needs from an owning object: a name, a closer."""

    @property
    def segment_name(self) -> str: ...

    def close(self, *, _force: bool = False) -> None: ...


class SegmentRegistry:
    """Process-wide record of every shared-memory segment this process owns.

    Owning objects (:class:`SharedCube`, :class:`SharedComposite`) register
    at creation and unregister from ``close``; :meth:`sweep` force-closes
    whatever is left.  The module installs one instance plus an ``atexit``
    sweep, so segments abandoned by crashed runs or never-closed sessions
    are unlinked at interpreter exit instead of leaking into ``/dev/shm``
    (and instead of tripping the resource tracker's shutdown warnings).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: segment name -> owning object (strong ref: a leaked owner must
        #: stay reachable so the sweep can still close it).
        self._owners: Dict[str, object] = {}

    def register(self, owner: _SegmentOwner) -> None:
        with self._lock:
            self._owners[owner.segment_name] = owner

    def unregister(self, name: str) -> None:
        with self._lock:
            self._owners.pop(name, None)

    def owned_segment_names(self) -> Tuple[str, ...]:
        """Names of the segments currently registered (test/diagnostic aid)."""
        with self._lock:
            return tuple(self._owners)

    def sweep(self) -> int:
        """Force-close every registered segment; returns how many were swept.

        Used as the ``atexit`` hook and by session teardown paths.  Pin
        counts are ignored -- by the time a sweep runs, whoever held the
        pins is gone.
        """
        with self._lock:
            leftovers = list(self._owners.values())
            self._owners.clear()
        for owner in leftovers:
            try:
                owner.close(_force=True)
            # The atexit sweep must never raise: an owner it cannot close
            # is beyond saving, and failing here would mask the real exit.
            # repro: allow[RPL005] sweep must never raise
            except Exception:  # pragma: no cover
                pass
        return len(leftovers)


#: The process-wide registry; swept at interpreter exit.
_registry = SegmentRegistry()
atexit.register(_registry.sweep)


def owned_segment_names() -> Tuple[str, ...]:
    """Shared-memory segments this process currently owns (diagnostics)."""
    return _registry.owned_segment_names()


def sweep_owned_segments() -> int:
    """Force-release every segment this process still owns; returns count.

    The post-crash safety net: after a run that may have abandoned
    placements (worker SIGKILL, interrupted stream), calling this guarantees
    no ``/dev/shm`` residue regardless of which cleanup path was skipped.
    """
    return _registry.sweep()


@dataclass(frozen=True)
class SharedCubeHandle:
    """Everything a process needs to attach to a shared cube.

    The handle is what actually travels through a pipe when a
    :class:`SharedCube` is pickled: the segment name plus the (small) shape,
    wavelength and metadata information.
    """

    name: str
    shape: Tuple[int, int, int]
    wavelengths_nm: np.ndarray
    metadata: Dict[str, object] = field(default_factory=dict)


class SharedCube(HyperspectralCube):
    """A :class:`HyperspectralCube` whose samples live in shared memory.

    Create one with :meth:`from_cube` (copies the samples into a fresh
    segment exactly once) or :meth:`attach` (maps an existing segment with no
    copy at all).  Pickling produces an :meth:`attach` call on the receiving
    side, which is how the process backend hands the cube to the manager
    process for free.
    """

    def __init__(self, data: np.ndarray, wavelengths_nm: np.ndarray,
                 metadata: Dict[str, object], *,
                 shm: shared_memory.SharedMemory, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._closed = False
        super().__init__(data, wavelengths_nm, metadata)
        if owner:
            _registry.register(self)

    # -------------------------------------------------------------- creation
    @classmethod
    def from_cube(cls, cube: HyperspectralCube) -> "SharedCube":
        """Copy ``cube``'s samples into a new shared-memory segment.

        Passing a :class:`SharedCube` returns it unchanged (sharing an
        already-shared cube must not duplicate the segment).
        """
        if isinstance(cube, SharedCube):
            return cube
        data = np.ascontiguousarray(cube.data, dtype=np.float32)
        with _tracker_lock:
            shm = shared_memory.SharedMemory(create=True, size=max(data.nbytes, 1))
        view = np.ndarray(data.shape, dtype=np.float32, buffer=shm.buf)
        view[:] = data
        return cls(view, cube.wavelengths_nm.copy(), dict(cube.metadata),
                   shm=shm, owner=True)

    @classmethod
    def attach(cls, handle: SharedCubeHandle) -> "SharedCube":
        """Map an existing segment described by ``handle`` (zero copy)."""
        shm = _attach_untracked(handle.name)
        view = np.ndarray(tuple(handle.shape), dtype=np.float32, buffer=shm.buf)
        return cls(view, np.asarray(handle.wavelengths_nm), dict(handle.metadata),
                   shm=shm, owner=False)

    # -------------------------------------------------------------- identity
    @property
    def segment_name(self) -> str:
        """Operating-system name of the backing shared-memory segment."""
        return self._shm.name

    @property
    def is_owner(self) -> bool:
        """Whether this process created (and must unlink) the segment."""
        return self._owner

    @property
    def closed(self) -> bool:
        return self._closed

    def handle(self) -> SharedCubeHandle:
        """The picklable description other processes attach with."""
        if self._closed:
            raise CubeError("shared cube segment has been released")
        return SharedCubeHandle(name=self._shm.name,
                                shape=(self.bands, self.rows, self.cols),
                                wavelengths_nm=self.wavelengths_nm.copy(),
                                metadata=dict(self.metadata))

    # ------------------------------------------------------------- lifecycle
    def close(self, *, _force: bool = False) -> None:
        """Release the local mapping; the owner also destroys the segment.

        After closing, the cube's data may no longer be accessed.  Closing
        twice is harmless.  The owner unlinks the segment *even when* a
        stray numpy view keeps the local mapping alive: the view's pages
        stay valid, but the operating-system name is released, so a
        forgotten reference can no longer leak the segment (``_force`` is
        accepted for registry-sweep symmetry with :class:`SharedComposite`).
        """
        if self._closed:
            return
        self._closed = True
        # Drop the numpy view so the exported memoryview can be released.
        self.data = np.zeros((1, 1, 1), dtype=np.float32)
        name = self._shm.name
        try:
            self._shm.close()
        except BufferError:  # a caller still holds a view; unlink regardless
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already unlinked
                pass
            _registry.unregister(name)

    def __enter__(self) -> "SharedCube":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- pickling
    def __reduce__(self) -> Tuple[Callable[[SharedCubeHandle], "SharedCube"],
                                  Tuple[SharedCubeHandle]]:
        return (SharedCube.attach, (self.handle(),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("owner" if self._owner else "attached")
        return (f"<SharedCube {self.bands}x{self.rows}x{self.cols} "
                f"segment={self._shm.name!r} {state}>")


# ---------------------------------------------------------------------------
# Output placements: SharedComposite
# ---------------------------------------------------------------------------

#: Element type of the output arrays: float64, the dtype of every other
#: engine's composite and components (the sequential reference's, and the
#: manager's :func:`~repro.core.partition.reassemble_composite`), so the
#: pipeline's output compares with theirs bit for bit.
_OUTPUT_DTYPE = np.float64


@dataclass(frozen=True)
class SharedCompositeHandle:
    """Everything a worker needs to write tiles into an output placement."""

    name: str
    rows: int
    cols: int
    n_components: int


class SharedComposite:
    """A run's output arrays, preallocated in one shared-memory segment.

    Layout: a ``(rows, cols, n_components)`` float64 component array followed
    by a ``(rows, cols, 3)`` float64 colour composite.  The driver creates
    the placement (:meth:`create`), ships the tiny :meth:`handle` with each
    projection task, and the workers write their tiles straight into the
    mapped pages (:func:`output_tile_views`) -- the result path carries row
    ranges, not pixel data.

    Placements are pin-counted.  :meth:`pin` marks the placement in use by
    an in-flight run; :meth:`close` on a pinned placement is *deferred* (it
    completes when the last pin is released) so a concurrent stream can
    never unlink a segment another run is still writing.  ``close`` is
    idempotent, including after the segment was already unlinked by a
    crashed peer (close-after-crash).
    """

    def __init__(self, shm: shared_memory.SharedMemory, rows: int, cols: int,
                 n_components: int, *, owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._closed = False
        self._pins = 0
        self._close_deferred = False
        self._lock = threading.Lock()
        self.rows = rows
        self.cols = cols
        self.n_components = n_components
        itemsize = np.dtype(_OUTPUT_DTYPE).itemsize
        split = rows * cols * n_components * itemsize
        self.components = np.ndarray((rows, cols, n_components),
                                     dtype=_OUTPUT_DTYPE, buffer=shm.buf)
        self.composite = np.ndarray((rows, cols, 3), dtype=_OUTPUT_DTYPE,
                                    buffer=shm.buf, offset=split)
        if owner:
            _registry.register(self)

    @staticmethod
    def _nbytes(rows: int, cols: int, n_components: int) -> int:
        itemsize = np.dtype(_OUTPUT_DTYPE).itemsize
        return rows * cols * (n_components + 3) * itemsize

    # -------------------------------------------------------------- creation
    @classmethod
    def create(cls, rows: int, cols: int, n_components: int = 3) -> "SharedComposite":
        """Allocate a fresh output segment sized for one run's outputs."""
        if rows < 1 or cols < 1 or n_components < 1:
            raise ValueError("output placement dimensions must be >= 1")
        with _tracker_lock:
            shm = shared_memory.SharedMemory(
                create=True, size=max(cls._nbytes(rows, cols, n_components), 1))
        return cls(shm, rows, cols, n_components, owner=True)

    @classmethod
    def attach(cls, handle: SharedCompositeHandle) -> "SharedComposite":
        """Map an existing output segment described by ``handle`` (zero copy)."""
        shm = _attach_untracked(handle.name)
        return cls(shm, handle.rows, handle.cols, handle.n_components, owner=False)

    # -------------------------------------------------------------- identity
    @property
    def segment_name(self) -> str:
        return self._shm.name

    @property
    def is_owner(self) -> bool:
        return self._owner

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pins(self) -> int:
        with self._lock:
            return self._pins

    def handle(self) -> SharedCompositeHandle:
        """The picklable description workers attach and write through."""
        if self._closed:
            raise CubeError("output placement segment has been released")
        return SharedCompositeHandle(name=self._shm.name, rows=self.rows,
                                     cols=self.cols,
                                     n_components=self.n_components)

    def matches(self, rows: int, cols: int, n_components: int) -> bool:
        """Whether this placement can hold a run of the given output shape."""
        return (self.rows, self.cols, self.n_components) == (rows, cols, n_components)

    # -------------------------------------------------------------- pinning
    def pin(self) -> "SharedComposite":
        """Mark the placement in use by an in-flight run."""
        with self._lock:
            if self._closed:
                raise CubeError("cannot pin a released output placement")
            self._pins += 1
        return self

    def unpin(self) -> None:
        """Release one pin; performs any close deferred while pinned."""
        do_close = False
        with self._lock:
            if self._pins > 0:
                self._pins -= 1
            do_close = self._close_deferred and self._pins == 0
        if do_close:
            self.close()

    # ------------------------------------------------------------- lifecycle
    def close(self, *, _force: bool = False) -> None:
        """Release the mapping; the owner also unlinks the segment.

        Idempotent.  While pinned the close is deferred to the last
        :meth:`unpin` (unless ``_force``, the registry-sweep path, where the
        pin holders are already gone).
        """
        with self._lock:
            if self._closed:
                return
            if self._pins > 0 and not _force:
                self._close_deferred = True
                return
            self._closed = True
        name = self._shm.name
        # Drop the views so the exported memoryviews can be released.
        self.components = np.zeros((1, 1, 1), dtype=_OUTPUT_DTYPE)
        self.composite = np.zeros((1, 1, 1), dtype=_OUTPUT_DTYPE)
        try:
            self._shm.close()
        except BufferError:  # a caller still holds a view; unlink regardless
            pass
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # already unlinked (close-after-crash)
                pass
            _registry.unregister(name)
            # When writers ran in this very process (thread executors), the
            # attachment cache still maps the now-unlinked pages; drop it so
            # the memory is genuinely released, not just nameless.
            _evict_attachment(name)

    def __enter__(self) -> "SharedComposite":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -------------------------------------------------------------- pickling
    def __reduce__(self) -> Tuple[
            Callable[[SharedCompositeHandle], "SharedComposite"],
            Tuple[SharedCompositeHandle]]:
        return (SharedComposite.attach, (self.handle(),))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else ("owner" if self._owner else "attached")
        return (f"<SharedComposite {self.rows}x{self.cols} "
                f"n_components={self.n_components} pins={self._pins} "
                f"segment={self._shm.name!r} {state}>")


# ---------------------------------------------------------------------------
# Child-side attachment cache
# ---------------------------------------------------------------------------

#: Output segments a worker process has attached, keyed by segment name.
#: Stage tasks of one run all target the same placement, so caching the
#: mapping turns per-task attach syscalls into dictionary hits.  Bounded:
#: a cached mapping keeps the pages of an already-unlinked segment alive
#: until eviction, so the cap bounds that retained memory.
_ATTACHMENTS: "OrderedDict[str, SharedComposite]" = OrderedDict()
_ATTACHMENTS_LIMIT = 8
#: Fork-safe (RPL003): a forked pool child gets a released lock and an
#: empty cache -- entries inherited mid-mutation (or pinned by parent
#: threads that do not exist in the child) must never be trusted.
_attachments_lock = ForkSafeLock(on_reset=_ATTACHMENTS.clear)


def _attach_output(handle: SharedCompositeHandle) -> SharedComposite:
    """Cached attach; the returned placement is *pinned* for the caller.

    The pin is taken under the cache lock and eviction only considers
    unpinned entries, so a concurrent writer's placement can never be
    closed out from under its in-progress tile write -- the cache
    transiently exceeds its bound instead when every entry is in use.
    """
    evicted: List[SharedComposite] = []
    with _attachments_lock:
        cached = _ATTACHMENTS.get(handle.name)
        if cached is None or cached.closed:
            cached = SharedComposite.attach(handle)
            _ATTACHMENTS[handle.name] = cached
        else:
            _ATTACHMENTS.move_to_end(handle.name)
        cached.pin()
        while len(_ATTACHMENTS) > _ATTACHMENTS_LIMIT:
            for name in _ATTACHMENTS:
                if _ATTACHMENTS[name].pins == 0:
                    evicted.append(_ATTACHMENTS.pop(name))
                    break
            else:  # everything pinned by in-progress writes
                break
    for stale in evicted:
        stale.close()
    return cached


@contextmanager
def output_tile_views(handle: SharedCompositeHandle, row_start: int,
                      row_stop: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Worker-side: the mapped views of one tile's output rows, pinned.

    Yields ``(components_view, composite_view)`` pointing straight into the
    shared placement, so a compute kernel's ``out=`` path writes the tile
    in place, with no tile-sized temporary to copy from.  The placement
    stays pinned (attach-cached, safe against eviction) for the duration
    of the ``with`` block.  Writers own disjoint row ranges (the driver's
    tile plan partitions the rows), so no synchronisation is needed, and
    rewriting a killed tile's range after a crash retry produces the same
    bytes because stage tasks are deterministic.
    """
    placement = _attach_output(handle)
    try:
        if placement.closed:
            raise CubeError("output placement segment has been released")
        if not 0 <= row_start < row_stop <= placement.rows:
            raise ValueError(f"tile rows {row_start}:{row_stop} out of range "
                             f"for a {placement.rows}-row placement")
        yield (placement.components[row_start:row_stop],
               placement.composite[row_start:row_stop])
    finally:
        placement.unpin()


def _evict_attachment(name: str) -> None:
    """Drop one cached attachment (the owner unlinked its segment)."""
    with _attachments_lock:
        cached = _ATTACHMENTS.pop(name, None)
    if cached is not None:
        cached.close()


def release_attachments() -> int:
    """Close every cached output attachment; returns how many were released.

    Called from a pool child's exit path so worker processes drop their
    mappings deterministically instead of relying on process teardown.
    """
    with _attachments_lock:
        cached = list(_ATTACHMENTS.values())
        _ATTACHMENTS.clear()
    for placement in cached:
        placement.close()
    return len(cached)


# ---------------------------------------------------------------------------
# Bounded pool of reusable output placements
# ---------------------------------------------------------------------------

class OutputPool:
    """Reusable :class:`SharedComposite` segments for a stream of runs.

    A streaming session fuses many cubes of (typically) the same shape;
    allocating and unlinking an output segment per run would churn
    ``/dev/shm``.  The pool keeps up to ``max_segments`` placements alive
    and hands out an *unpinned, shape-matching* one when available --
    pinned placements (in use by a concurrent stream) are never reissued
    and never evicted, so two overlapping runs always write to distinct
    segments.
    """

    DEFAULT_MAX_SEGMENTS = 4

    def __init__(self, max_segments: int = DEFAULT_MAX_SEGMENTS) -> None:
        if max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        self._max_segments = max_segments
        self._lock = threading.Lock()
        self._segments: List[SharedComposite] = []
        #: Segments being allocated: each holds its place under the bound.
        self._allocating = 0
        self._closed = False

    @property
    def segments(self) -> int:
        with self._lock:
            return len(self._segments)

    def acquire(self, rows: int, cols: int, n_components: int = 3) -> SharedComposite:
        """Borrow a pinned placement of the requested output shape.

        Allocating a new segment first reserves its place and evicts idle
        ones over the bound, so the pool exceeds ``max_segments`` only while
        every segment is pinned.
        """
        with self._lock:
            if self._closed:
                raise CubeError("output pool is closed")
            for placement in self._segments:
                if (placement.pins == 0 and not placement.closed
                        and placement.matches(rows, cols, n_components)):
                    return placement.pin()
            self._allocating += 1
            evicted = self._evict_idle()
        for stale in evicted:
            stale.close()
        try:
            placement = SharedComposite.create(rows, cols, n_components).pin()
        except BaseException:
            with self._lock:
                self._allocating -= 1
            raise
        with self._lock:  # the reservation becomes the segment atomically
            self._allocating -= 1
            if self._closed:  # closed underneath the allocation
                placement.unpin()
                placement.close()
                raise CubeError("output pool is closed")
            self._segments.append(placement)
        return placement

    def release(self, placement: SharedComposite) -> None:
        """Return a borrowed placement; evicts over-bound idle segments.

        Only for runs that *completed* (every writer acknowledged): a
        released segment may be reissued to the next run immediately.  A
        failed run must :meth:`discard` instead.
        """
        placement.unpin()
        with self._lock:
            evicted = self._evict_idle()
        for stale in evicted:
            stale.close()

    def _evict_idle(self) -> List[SharedComposite]:
        """Under the lock: drop idle segments, oldest first, until they and
        the allocations fit the bound; the caller closes what is returned."""
        evicted: List[SharedComposite] = []
        over = len(self._segments) + self._allocating - self._max_segments
        for candidate in list(self._segments):
            if over <= 0:
                break
            if candidate.pins == 0:
                self._segments.remove(candidate)
                evicted.append(candidate)
                over -= 1
        return evicted

    def discard(self, placement: SharedComposite) -> None:
        """Retire a borrowed placement whose run failed.

        A failed run may leave straggler stage tasks still writing into the
        segment (worker processes are not cancelled when the driver gives
        up), so the segment must never be reissued to another run --
        reissuing it would let those stragglers corrupt the next composite.
        It is unlinked instead; stragglers keep writing into their own
        still-valid (but now anonymous) mapping, harmlessly.
        """
        with self._lock:
            if placement in self._segments:
                self._segments.remove(placement)
        placement.unpin()
        placement.close()

    def close(self) -> None:
        """Release every pooled segment (idempotent).

        Segments still pinned at this point belong to runs that were
        abandoned rather than completed (the session closes its stage
        executor first), so they are force-closed: leak-proofing wins.
        """
        if self._closed:
            return
        with self._lock:
            self._closed = True
            segments = list(self._segments)
            self._segments.clear()
        for placement in segments:
            placement.close(_force=True)

    def __enter__(self) -> "OutputPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def share_cube_params(params: Dict[str, object]) -> Tuple[Dict[str, object], list]:
    """Replace every :class:`HyperspectralCube` value with a :class:`SharedCube`.

    Returns the rewritten parameter dict plus the list of segments created
    here (which the caller must close once the run is over).  Used by the
    process backend so thread specifications never pickle bulk sample data.
    """
    created = []
    shared: Dict[str, object] = {}
    for key, value in params.items():
        if isinstance(value, HyperspectralCube) and not isinstance(value, SharedCube):
            cube = SharedCube.from_cube(value)
            created.append(cube)
            shared[key] = cube
        else:
            shared[key] = value
    return shared, created


__all__ = ["SharedCube", "SharedCubeHandle", "SharedComposite",
           "SharedCompositeHandle", "OutputPool", "SegmentRegistry",
           "share_cube_params", "output_tile_views",
           "release_attachments",
           "owned_segment_names", "sweep_owned_segments"]
