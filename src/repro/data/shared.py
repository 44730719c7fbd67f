"""Zero-copy sharing of hyper-spectral cubes and fusion outputs.

Bulk pixel data crosses process boundaries through POSIX shared-memory
segments (:mod:`multiprocessing.shared_memory`), never through pickles, in
both directions:

* a *cube placement* (:class:`SharedCube`) holds a cube's samples for the
  workers to read, and
* an *output placement* (:class:`SharedComposite`) holds a run's component
  and composite arrays, into which projection/colour-map stage tasks write
  their tiles directly (:func:`output_tile_views`); the tile results travel
  back as row-range acknowledgements instead of pickled arrays.

Pickling a placement transfers only its handle -- the segment name and
shape, plus a cube's wavelengths (:class:`SharedCubeHandle`); a cube's
metadata (ground-truth label maps and the like) stays on the owner, since
no worker reads it.  The receiving process maps the same physical pages.
A :class:`SharedCube` *is a* :class:`~repro.data.cube.HyperspectralCube`,
so every consumer of a cube works on it unchanged.

Placements are *pin-counted*: a pinned placement (one an in-flight run
uses) is never recycled, evicted or released early by ``close``.

Segment pool
------------
A session fuses many cubes, so creating and unlinking a segment per request
would churn ``/dev/shm``: ``shm_open``, ``ftruncate``, ``mmap`` and a
resource-tracker registration, then an unlink -- about 450 us on a 2-vCPU
Linux host, against 16 us to copy a 64x64x32 cube into a mapped segment.
:class:`SegmentPool` keeps a bounded set of segments alive for both
directions and recycles them *by byte size*: a cube-cache miss copies the
samples into the least recently used idle segment of the same size, and an
output placement reuses an idle one the same way; a segment is created only
when no idle one fits.  A segment is never reissued while a run holds a pin
on it.  :meth:`SharedCube.from_cube` and :meth:`SharedComposite.create`
remain the one-shot constructors.

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
import math
import threading
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Callable, Dict, Iterator, List, Protocol, Tuple, TypeVar, cast

import numpy as np

from ..forksafe import ForkSafeLock
from .cube import CubeError, HyperspectralCube


#: Held by every segment creation and by the process-wide tracker-hook swap
#: in :func:`_attach_untracked`, so no creation goes unregistered (its
#: unlink would upset the tracker, and a crash leak it).  Fork-safe (RPL003).
_tracker_lock = ForkSafeLock()


def _create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """A new segment of ``nbytes`` bytes, created by (and owned by) this process."""
    with _tracker_lock:
        return shared_memory.SharedMemory(create=True, size=max(nbytes, 1))


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

    Owning placements register at creation and unregister from ``close``;
    :meth:`sweep` force-closes whatever is left.  The module installs one
    instance plus an ``atexit`` sweep, so segments abandoned by crashed runs
    or never-closed sessions are unlinked at interpreter exit instead of
    leaking into ``/dev/shm`` (and instead of tripping the resource
    tracker's shutdown warnings).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: segment name -> owning object (strong ref: a leaked owner must
        #: stay reachable so the sweep can still close it).  A recycled
        #: segment is re-registered under its new placement.
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


# ---------------------------------------------------------------------------
# Placements: one pin-counted segment each
# ---------------------------------------------------------------------------

_P = TypeVar("_P", bound="_Placement")


class _Placement:
    """A view of one shared-memory segment, pin-counted.

    :meth:`pin` marks the placement in use by an in-flight run; :meth:`close`
    on a pinned placement is *deferred* (it completes when the last pin is
    released), so a concurrent run can never lose a segment it still uses.
    ``close`` is idempotent, including after the segment was already
    unlinked by a crashed peer (close-after-crash).  The owner (the creating
    process) unlinks the segment on close; an attachment only unmaps it.
    """

    def __init__(self, shm: shared_memory.SharedMemory, nbytes: int, *,
                 owner: bool) -> None:
        self._shm = shm
        self._owner = owner
        self._closed = False
        self._pins = 0
        self._close_deferred = False
        self._lock = threading.Lock()
        #: Bytes the placement's arrays occupy: what a recycled segment
        #: must match.
        self.nbytes = nbytes
        if owner:
            _registry.register(self)

    def _drop_views(self) -> None:
        """Replace the arrays over the segment with stubs (before unmapping)."""
        raise NotImplementedError

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

    @property
    def pins(self) -> int:
        with self._lock:
            return self._pins

    # -------------------------------------------------------------- pinning
    def pin(self: _P) -> _P:
        """Mark the placement in use by an in-flight run."""
        with self._lock:
            if self._closed:
                raise CubeError("cannot pin a released placement")
            self._pins += 1
        return self

    def unpin(self) -> None:
        """Release one pin; performs any close deferred while pinned."""
        with self._lock:
            if self._pins > 0:
                self._pins -= 1
            do_close = self._close_deferred and self._pins == 0
        if do_close:
            self.close()

    # ------------------------------------------------------------- lifecycle
    def close(self, *, _force: bool = False) -> None:
        """Release the mapping; the owner also unlinks the segment.

        After closing, the arrays may no longer be accessed.  While pinned
        the close is deferred to the last :meth:`unpin` (unless ``_force``,
        the registry-sweep path, where the pin holders are already gone).
        The owner unlinks *even when* a stray numpy view keeps the local
        mapping alive: the view's pages stay valid, but the name is
        released, so a forgotten reference can no longer leak the segment.
        """
        with self._lock:
            if self._closed:
                return
            if self._pins > 0 and not _force:
                self._close_deferred = True
                return
            self._closed = True
        name = self._shm.name
        self._drop_views()  # so the exported memoryviews can be released
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

    def _retire(self) -> shared_memory.SharedMemory:
        """Hand the segment on to a successor placement (pool recycling):
        this placement is closed, the segment stays mapped and named."""
        with self._lock:
            self._closed = True
        self._drop_views()
        return self._shm

    def __enter__(self: _P) -> _P:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


@dataclass(frozen=True)
class SharedCubeHandle:
    """Everything a process needs to attach to a shared cube.

    The handle is what actually travels through a pipe when a
    :class:`SharedCube` is pickled: the segment name, the shape and the
    wavelengths -- never the owner's metadata.
    """

    name: str
    shape: Tuple[int, int, int]
    wavelengths_nm: np.ndarray


#: Element type of a cube placement (the cube container's sample type).
_CUBE_DTYPE = np.float32
_CUBE_ITEMSIZE = np.dtype(_CUBE_DTYPE).itemsize


class SharedCube(HyperspectralCube, _Placement):
    """A :class:`HyperspectralCube` whose samples live in shared memory.

    Create one with :meth:`from_cube` (copies the samples into a fresh
    segment exactly once), borrow one from a :class:`SegmentPool`
    (:meth:`SegmentPool.place`), or :meth:`attach` (maps an existing segment
    with no copy at all).  Pickling produces an :meth:`attach` call on the
    receiving side, which is how the process backends hand the cube to
    their workers for free.  An attached cube carries no metadata.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 shape: Tuple[int, int, int], wavelengths_nm: np.ndarray,
                 metadata: Dict[str, object], *, owner: bool) -> None:
        _Placement.__init__(self, shm, self._nbytes(shape), owner=owner)
        HyperspectralCube.__init__(
            self, np.ndarray(shape, dtype=_CUBE_DTYPE, buffer=shm.buf),
            wavelengths_nm, metadata)

    # -------------------------------------------------------------- creation
    @staticmethod
    def _nbytes(shape: Tuple[int, ...]) -> int:
        return math.prod(shape) * _CUBE_ITEMSIZE

    @classmethod
    def _fill(cls, shm: shared_memory.SharedMemory,
              cube: HyperspectralCube) -> "SharedCube":
        """An owning placement of ``cube`` over ``shm``: one copy of the samples."""
        placement = cls(shm, cube.shape, cube.wavelengths_nm.copy(),
                        dict(cube.metadata), owner=True)
        placement.data[...] = cube.data
        return placement

    @classmethod
    def from_cube(cls, cube: HyperspectralCube) -> "SharedCube":
        """Copy ``cube``'s samples into a new shared-memory segment.

        Passing a :class:`SharedCube` returns it unchanged (sharing an
        already-shared cube must not duplicate the segment).
        """
        if isinstance(cube, SharedCube):
            return cube
        return cls._fill(_create_segment(cls._nbytes(cube.shape)), cube)

    @classmethod
    def attach(cls, handle: SharedCubeHandle) -> "SharedCube":
        """Map an existing segment described by ``handle`` (zero copy)."""
        return cls(_attach_untracked(handle.name), handle.shape,
                   np.asarray(handle.wavelengths_nm), {}, owner=False)

    def handle(self) -> SharedCubeHandle:
        """The picklable description other processes attach with."""
        if self._closed:
            raise CubeError("shared cube segment has been released")
        return SharedCubeHandle(name=self._shm.name,
                                shape=(self.bands, self.rows, self.cols),
                                wavelengths_nm=self.wavelengths_nm.copy())

    def _drop_views(self) -> None:
        self.data = np.zeros((1, 1, 1), dtype=_CUBE_DTYPE)

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


class SharedComposite(_Placement):
    """A run's output arrays, preallocated in one shared-memory segment.

    Layout: a ``(rows, cols, n_components)`` float64 component array followed
    by a ``(rows, cols, 3)`` float64 colour composite.  The driver borrows
    the placement (:meth:`SegmentPool.acquire`, or :meth:`create` for a
    one-shot run), ships the tiny :meth:`handle` with each projection task,
    and the workers write their tiles straight into the mapped pages
    (:func:`output_tile_views`) -- the result path carries row ranges, not
    pixel data.
    """

    def __init__(self, shm: shared_memory.SharedMemory, rows: int, cols: int,
                 n_components: int, *, owner: bool) -> None:
        super().__init__(shm, self._nbytes(rows, cols, n_components), owner=owner)
        self.rows = rows
        self.cols = cols
        self.n_components = n_components
        split = rows * cols * n_components * np.dtype(_OUTPUT_DTYPE).itemsize
        self.components = np.ndarray((rows, cols, n_components),
                                     dtype=_OUTPUT_DTYPE, buffer=shm.buf)
        self.composite = np.ndarray((rows, cols, 3), dtype=_OUTPUT_DTYPE,
                                    buffer=shm.buf, offset=split)

    @staticmethod
    def _nbytes(rows: int, cols: int, n_components: int) -> int:
        if rows < 1 or cols < 1 or n_components < 1:
            raise ValueError("output placement dimensions must be >= 1")
        return rows * cols * (n_components + 3) * np.dtype(_OUTPUT_DTYPE).itemsize

    # -------------------------------------------------------------- creation
    @classmethod
    def create(cls, rows: int, cols: int, n_components: int = 3) -> "SharedComposite":
        """Allocate a fresh output segment sized for one run's outputs."""
        shm = _create_segment(cls._nbytes(rows, cols, n_components))
        return cls(shm, rows, cols, n_components, owner=True)

    @classmethod
    def attach(cls, handle: SharedCompositeHandle) -> "SharedComposite":
        """Map an existing output segment described by ``handle`` (zero copy)."""
        shm = _attach_untracked(handle.name)
        return cls(shm, handle.rows, handle.cols, handle.n_components, owner=False)

    def handle(self) -> SharedCompositeHandle:
        """The picklable description workers attach and write through."""
        if self._closed:
            raise CubeError("output placement segment has been released")
        return SharedCompositeHandle(name=self._shm.name, rows=self.rows,
                                     cols=self.cols,
                                     n_components=self.n_components)

    def matches(self, rows: int, cols: int, n_components: int) -> bool:
        """Whether this placement has the given output shape."""
        return (self.rows, self.cols, self.n_components) == (rows, cols, n_components)

    def _drop_views(self) -> None:
        self.components = np.zeros((1, 1, 1), dtype=_OUTPUT_DTYPE)
        self.composite = np.zeros((1, 1, 1), dtype=_OUTPUT_DTYPE)

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
    transiently exceeds its bound instead when every entry is in use.  A
    pooled segment recycled for another output shape of its byte size is
    re-attached with the new shape.
    """
    evicted: List[SharedComposite] = []
    with _attachments_lock:
        cached = _ATTACHMENTS.get(handle.name)
        if (cached is None or cached.closed
                or not cached.matches(handle.rows, handle.cols, handle.n_components)):
            if cached is not None and cached.pins == 0:
                evicted.append(cached)
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
# One bounded pool of segments for both directions
# ---------------------------------------------------------------------------

class SegmentPool:
    """Pin-counted, bounded pool of owned segments, recycled by byte size.

    A session borrows both kinds of placement here:

    * **cube placements** (:meth:`place`) are cached by cube identity, least
      recently used first, at most ``max_placements`` of them: fusing a
      cached cube again copies nothing.  A miss on a full cache reissues the
      least recently used idle segment of the cube's byte size and copies
      the samples into it (an evicted cube's segment is not unlinked);
    * **output placements** (:meth:`acquire`) are at most ``max_segments``
      (the stream window): a run borrows the least recently used idle one
      of its byte size, :meth:`release` returns it after success and
      :meth:`discard` retires it after a failure.

    A new segment is created only when no idle one of the size fits; making
    room first unlinks idle placements of the same kind, oldest first, so a
    kind exceeds its bound only while every one of its segments is pinned.
    Every reservation -- hit, reissue or creation -- is made under the
    pool's lock, so two runs missing at once never share a segment or both
    allocate past the bound.

    Safety rule: a segment is never reissued while a run holds a pin on it.
    A failed run releases its cube placement like any other, so its
    straggler tasks (workers are not cancelled when a driver gives up) may
    read the next cube's samples -- but they write only into that run's
    discarded output placement, so no result is affected.
    """

    DEFAULT_MAX_SEGMENTS = 4
    DEFAULT_MAX_PLACEMENTS = 8

    def __init__(self, max_segments: int = DEFAULT_MAX_SEGMENTS,
                 max_placements: int = DEFAULT_MAX_PLACEMENTS) -> None:
        if max_segments < 1:
            raise ValueError("max_segments must be >= 1")
        if max_placements < 1:
            raise ValueError("max_placements must be >= 1")
        self._bounds: Dict[type, int] = {SharedComposite: max_segments,
                                         SharedCube: max_placements}
        self._lock = threading.Lock()
        #: id(holder) -> (holder, placement), least recently used first.  A
        #: cube placement's holder is the cube it caches (the reference
        #: keeps that id unique); an output placement holds itself.
        self._entries: "OrderedDict[int, Tuple[object, _Placement]]" = OrderedDict()
        self._closed = False

    @property
    def segments(self) -> int:
        """Segments the pool holds, in both directions."""
        with self._lock:
            return len(self._entries)

    def held(self, kind: type) -> int:
        """Segments the pool holds as ``SharedCube`` or ``SharedComposite``."""
        with self._lock:
            return sum(type(placement) is kind for _, placement in self._entries.values())

    # --------------------------------------------------------------- borrow
    def place(self, cube: HyperspectralCube) -> SharedCube:
        """Borrow a pinned placement holding ``cube``'s samples (see class).

        A miss first rejects a cube with a non-finite sample
        (:meth:`~repro.data.cube.HyperspectralCube.require_finite`), before
        any segment is reserved.
        """
        with self._lock:
            self._check_open()
            entry = self._entries.get(id(cube))
            if entry is not None and not entry[1].closed:
                self._entries.move_to_end(id(cube))
                return cast(SharedCube, entry[1]).pin()
            cube.require_finite()  # a miss only: a cached cube was checked
            shm = self._reserve(SharedCube, SharedCube._nbytes(cube.shape))
            placement = SharedCube._fill(shm, cube).pin()
            self._entries[id(cube)] = (cube, placement)
        return placement

    def acquire(self, rows: int, cols: int, n_components: int = 3) -> SharedComposite:
        """Borrow a pinned output placement of the requested shape."""
        nbytes = SharedComposite._nbytes(rows, cols, n_components)
        with self._lock:
            self._check_open()
            shm = self._reserve(SharedComposite, nbytes)
            placement = SharedComposite(shm, rows, cols, n_components, owner=True).pin()
            self._entries[id(placement)] = (placement, placement)
        return placement

    def _reserve(self, kind: type, nbytes: int) -> shared_memory.SharedMemory:
        """Under the lock: the segment a miss of ``kind`` fills."""
        for key in [key for key, (_, placement) in self._entries.items()
                    if placement.closed]:
            del self._entries[key]  # force-closed by a registry sweep
        held, idle = self._census(kind)
        # An idle output placement is free; an idle cube placement is a
        # cache entry, given up only when the cache is full.
        if kind is SharedComposite or held >= self._bounds[kind]:
            for key in idle:
                if self._entries[key][1].nbytes == nbytes:
                    return self._entries.pop(key)[1]._retire()
        self._evict(kind, incoming=1)  # before creating: never over the bound
        return _create_segment(nbytes)

    def _census(self, kind: type) -> Tuple[int, List[int]]:
        """Under the lock: how many ``kind`` placements the pool holds, and
        the keys of the unpinned ones, least recently used first."""
        held = [(key, placement) for key, (_, placement) in self._entries.items()
                if type(placement) is kind]
        return len(held), [key for key, placement in held if placement.pins == 0]

    def _evict(self, kind: type, incoming: int = 0) -> None:
        """Under the lock: unlink idle ``kind`` placements, oldest first,
        until they and ``incoming`` new ones fit the bound."""
        held, idle = self._census(kind)
        for key in idle[:max(held + incoming - self._bounds[kind], 0)]:
            self._entries.pop(key)[1].close()

    # --------------------------------------------------------------- return
    def release(self, placement: _Placement) -> None:
        """Return a borrowed placement; evicts over-bound idle segments.

        A cube placement stays cached; an output placement may be reissued
        to the next run at once, so release one only after its run
        *completed* (every writer acknowledged) -- a failed run must
        :meth:`discard` it instead.
        """
        placement.unpin()
        with self._lock:
            self._evict(type(placement))

    def discard(self, placement: SharedComposite) -> None:
        """Retire a borrowed output placement whose run failed.

        A failed run may leave straggler stage tasks still writing into the
        segment, so it is never reissued -- reissuing it would let those
        stragglers corrupt the next composite.  It is unlinked instead;
        stragglers keep writing into their own still-valid (but now
        anonymous) mapping, harmlessly.
        """
        with self._lock:
            self._entries.pop(id(placement), None)
        placement.unpin()
        placement.close()

    # ------------------------------------------------------------- lifecycle
    def _check_open(self) -> None:
        if self._closed:
            raise CubeError("segment pool is closed")

    def close(self) -> None:
        """Release every pooled segment (idempotent).

        Segments still pinned at this point belong to runs that were
        abandoned rather than completed (the session closes its stage
        executor first), so they are force-closed: leak-proofing wins.
        """
        with self._lock:
            self._closed = True
            placements = [placement for _, placement in self._entries.values()]
            self._entries.clear()
        for placement in placements:
            placement.close(_force=True)

    def __enter__(self) -> "SegmentPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


#: The name the output-only pool had; the same class.
OutputPool = SegmentPool


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
           "SharedCompositeHandle", "SegmentPool", "OutputPool",
           "SegmentRegistry", "share_cube_params", "output_tile_views",
           "release_attachments",
           "owned_segment_names", "sweep_owned_segments"]
