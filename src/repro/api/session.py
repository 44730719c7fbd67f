"""Fusion sessions: the one runtime every request runs on.

A request reaches an engine one way: :meth:`FusionSession.fuse` validates it
(:meth:`~repro.api.engines.FusionEngine.validate`), places its cube and calls
``engine.run(request, session)``, and the engine takes what it runs on from
the session.  :func:`repro.fuse` is a session of one request, closed on
return.  A session opened for a stream of requests keeps its setup alive
between calls:

* a persistent :class:`~repro.scp.pool.ProcessPool` of worker processes
  (``process`` specs) that the batch engines borrow through
  ``ProcessBackend(pool)`` and the pipeline engine through its stage
  executor, instead of spawning per run, and
* a :class:`~repro.data.shared.SegmentPool` of shared-memory segments: a
  cube placement cache, so fusing the same cube again -- a parameter sweep,
  a retry, a monitoring loop -- never re-copies the samples, and a cube
  evicted from it hands its segment to the next cube of its size; the
  pipeline engine's output placements come from the same pool.

Usage::

    with repro.open_session(backend="process", workers=4) as session:
        for cube in stream:
            report = session.fuse(cube)

On the ``pipeline`` engine a session additionally *streams*: its runs share
one stage executor, so independent cubes overlap on the worker slots instead
of queueing behind each other, with a bounded in-flight window for
backpressure::

    with repro.open_session(engine="pipeline", backend="process:4",
                            max_inflight=4) as session:
        for report in session.fuse_stream(cubes):
            serve(report.composite)

``benchmarks/e2e`` measures both effects: reuse as ``setup_s``,
``api.session.open_s``, ``api.session.fuse_repeat_s_p50`` and
``api.session.spawned_processes``; streaming as ``throughput_cubes_per_s``
on the ``pipe_*`` workloads and ``baseline.speedup_vs_sequential``.
"""

from __future__ import annotations

import threading
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Dict, Iterable, Iterator, List, Optional, Union, cast

from ..config import FusionConfig
from ..data.cube import HyperspectralCube
from ..data.shared import SegmentPool, SharedCube
from ..scp.pool import ProcessPool
from ..scp.registry import BackendSpec
from ..scp.runtime import Backend
from ..scp.stages import TransportStageExecutor
from ..scp.transport import transport_for_spec
from .engines import get_engine
from .request import FusionReport, FusionRequest

#: FusionRequest fields a session takes as options at open.  ``engine`` and
#: ``backend`` are parameters of their own -- they determine what the
#: session keeps alive -- and ``cube`` is the positional argument of ``fuse``.
_SESSION_OPTIONS = frozenset(
    field for field in FusionRequest.__dataclass_fields__
    if field not in ("cube", "engine", "backend"))
#: The options a per-call override may set: all but ``max_inflight``, which
#: sizes the session's driver threads and output pool once, at open.
_OVERRIDABLE = _SESSION_OPTIONS - {"max_inflight"}

#: The backend whose worker processes a session pools.
_POOLED_BACKEND = "process"
#: Backends whose workers are other processes (a pool or a socket node
#: agent).
_PROCESS_BACKENDS = frozenset({_POOLED_BACKEND, "socket"})


class FusionSession:
    """A fusion engine/backend pair with its expensive setup kept alive.

    Parameters
    ----------
    engine:
        Registered engine name; fixed for the session's lifetime.
    backend:
        Backend spec string or :class:`BackendSpec` (:func:`repro.fuse` also
        passes a request's single-use backend instance through).  ``None``
        defaults to ``"process"`` for backend-using engines (the backend
        whose setup a session actually amortises) and inline execution for
        ``sequential``.
    workers / subcubes / config / options:
        Session-wide request defaults; any :class:`FusionRequest` field
        except ``engine``/``backend``/``max_inflight`` can be overridden per
        :meth:`fuse` call.
    max_inflight (option):
        Requests in flight on the pipeline engine (the others run serially);
        it sizes the driver threads and bounds the output placements, so no
        call overrides it.
    start_method:
        Start method of the worker pool; defaults to the spec's variant
        (``"process:fork"``) or the platform's cheapest safe method.
    warm:
        When True (default), the pool is pre-spawned at open time so the
        first request does not pay the growth cost.
    max_placements:
        Bound on the cube segments of the shared-memory placement cache
        (least-recently-used eviction).  Segments live in RAM-backed
        ``/dev/shm``, so an unbounded cache over a stream of distinct cubes
        would exhaust it.  An evicted cube's segment is not unlinked: the
        next cube of the same byte size is copied into it, and re-fusing
        the evicted cube simply re-places it.
    """

    DEFAULT_MAX_PLACEMENTS = SegmentPool.DEFAULT_MAX_PLACEMENTS

    def __init__(self, *, engine: str = "distributed",
                 backend: Union[str, BackendSpec, Backend, None] = None,
                 workers: Optional[int] = None,
                 subcubes: Optional[int] = None,
                 start_method: Optional[str] = None,
                 warm: bool = True,
                 max_placements: int = DEFAULT_MAX_PLACEMENTS,
                 **options: Any) -> None:
        self._engine = get_engine(engine)  # fail fast on typos
        unknown = set(options) - _SESSION_OPTIONS
        if unknown:
            raise ValueError(f"unknown session option(s) {sorted(unknown)}; "
                             f"valid options: {sorted(_SESSION_OPTIONS)}")
        self._defaults = dict(options)
        self._defaults["workers"] = workers
        self._defaults["subcubes"] = subcubes

        if backend is None and self._engine.default_backend is not None:
            backend = _POOLED_BACKEND
        self._backend = (backend if backend is None or isinstance(backend, Backend)
                         else BackendSpec.parse(backend))
        # Before anything is spawned: an option the engine cannot honour on
        # this backend fails at open, not at the first fuse().
        max_inflight = self._request(None, {}).max_inflight
        self._max_inflight = (self._engine.max_inflight if max_inflight is None
                              else max_inflight)
        if self._max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        #: Cube placements (process backends) and the pipeline's output
        #: placements: one bounded pool, recycled by byte size.
        self._segments = SegmentPool(max_segments=self._max_inflight,
                                     max_placements=max_placements)
        self._start_method = start_method
        self._pool: Optional[ProcessPool] = None
        if self._backend_name == _POOLED_BACKEND:
            self._pool = ProcessPool(
                start_method=start_method or self._backend.variant or None)
        self._closed = False
        self._runs = 0
        self._lock = threading.Lock()
        # Streaming machinery, created lazily on first use: one stage
        # executor shared by every in-flight pipeline run, and the driver
        # threads of submit()/fuse_stream().
        self._stage_executor: Optional[TransportStageExecutor] = None
        self._drivers: Optional[ThreadPoolExecutor] = None
        if warm and self._pool is not None:
            self._pool.ensure(self._engine.slots_needed(self._probe_config()))

    # --------------------------------------------------------------- queries
    @property
    def engine(self) -> str:
        return self._engine.name

    @property
    def backend(self) -> str:
        if isinstance(self._backend, Backend):
            return self._backend.kind
        return str(self._backend) if self._backend is not None else "inline"

    @property
    def runs_completed(self) -> int:
        return self._runs

    @property
    def spawned_processes(self) -> int:
        """Worker processes spawned so far (flat across warmed-up calls)."""
        return self._pool.spawned_processes if self._pool is not None else 0

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def _backend_name(self) -> Optional[str]:
        """The registered name of the session's backend spec, if it has one."""
        return self._backend.name if isinstance(self._backend, BackendSpec) else None

    def _probe_config(self) -> FusionConfig:
        return self._request(None, {}).resolved_config()

    def _request(self, cube: Optional[HyperspectralCube],
                 overrides: Dict[str, Any]) -> FusionRequest:
        """``cube``'s request: the session's defaults, then ``overrides``,
        validated by the engine.  ``cube=None`` builds the probe that checks
        options before anything is spawned or placed."""
        illegal = set(overrides) - _OVERRIDABLE
        if illegal:
            raise ValueError(f"cannot override {sorted(illegal)} per call; "
                             f"open a new session instead")
        request = FusionRequest(cube=cube, engine=self.engine,  # type: ignore[arg-type]
                                backend=self._backend,
                                **{**self._defaults, **overrides})
        self._engine.validate(request)
        return request

    # ------------------------------------------------------------------ fuse
    def fuse(self, cube: HyperspectralCube, **overrides: Any) -> FusionReport:
        """Run one fusion on the session's engine/backend pair.

        ``overrides`` accepts any :class:`FusionRequest` field except
        ``engine`` and ``backend`` (those are what the session keeps warm;
        open another session to change them).
        """
        self._check_open()
        request = self._request(cube, overrides)
        # Only a validated request costs a copy of the cube into shared
        # memory, and only for workers in other processes: host-thread
        # workers read the caller's cube, and a copy would gain them nothing.
        # A non-finite sample is rejected before any worker runs: by the
        # placement on a cache miss, else here.
        placed = (self._backend_name in _PROCESS_BACKENDS
                  and not isinstance(cube, SharedCube))
        if placed:
            request.cube = self._segments.place(cube)
        else:
            cube.require_finite()
        try:
            report = self._engine.run(request, self)
        finally:
            if placed:
                self._segments.release(request.cube)
        with self._lock:
            self._runs += 1
        return report

    def fuse_many(self, cubes: Iterable[HyperspectralCube],
                  **overrides: Any) -> List[FusionReport]:
        """Fuse a batch of cubes back to back on the warm resources.

        An empty batch returns an empty list on every engine (after the
        same open/override validation a non-empty batch would get), so
        callers never see engine-dependent behaviour at the boundary.
        """
        self._check_open()
        self._request(None, overrides)
        return [self.fuse(cube, **overrides) for cube in cubes]

    # ------------------------------------------------------------- streaming
    def submit(self, cube: HyperspectralCube,
               **overrides: Any) -> "Future[FusionReport]":
        """Queue one fusion; returns a future resolving to its report.

        On the pipeline engine up to ``max_inflight`` submissions execute
        concurrently, overlapping their stages on the shared worker slots;
        the other engines drain the queue serially (their backends run one
        fusion at a time).  Futures of an abandoned batch are failed, and
        their resources reclaimed, by :meth:`close`.
        """
        self._check_open()
        self._request(None, overrides)
        return self._driver_pool().submit(self.fuse, cube, **overrides)

    def fuse_stream(self, cubes: Iterable[HyperspectralCube],
                    **overrides: Any) -> Iterator[FusionReport]:
        """Fuse a stream of cubes, yielding reports in input order.

        A bounded window of cubes is kept in flight (``max_inflight``), so
        arbitrarily long streams run in O(window) memory: the generator
        blocks the producer instead of buffering the backlog.  Equivalent to
        ``fuse_many`` report for report -- the engines guarantee the
        composites are identical either way -- but on the pipeline engine
        the stream overlaps independent cubes instead of running them
        serially.

        Validation is eager (a closed session or a bad override raises
        here, not at the first ``next()``), and an empty stream yields
        nothing on every engine without touching the driver machinery --
        the same boundary contract as :meth:`fuse_many`.
        """
        self._check_open()
        self._request(None, overrides)
        return self._stream(cubes, overrides)

    def _stream(self, cubes: Iterable[HyperspectralCube],
                overrides: Dict[str, Any]) -> Iterator[FusionReport]:
        window: "deque[Future[FusionReport]]" = deque()
        try:
            for cube in cubes:
                window.append(self.submit(cube, **overrides))
                while len(window) > self._max_inflight:
                    yield window.popleft().result()
            while window:
                yield window.popleft().result()
        finally:
            for future in window:  # abandoned mid-stream: drop what we can
                future.cancel()

    def stage_executor(self) -> TransportStageExecutor:
        """The session-wide stage executor (pipeline engine only).

        This is the documented chaos/testing hook: the crash-matrix tests
        and the scenario simulator (:mod:`repro.scenarios`) reach the
        executor here to ``inject_kill`` SIGKILL storms, submit straggler /
        memory-pressure tasks onto the shared slots, and read the recovery
        counters (``retries``, ``kills_delivered``, ``pending_kills``)
        afterwards.  Created on first use, exactly like the first pipeline
        run would.
        """
        if not self._engine.stage_tasks:
            raise ValueError(
                f"engine {self.engine!r} does not run on a stage executor; "
                f"chaos injection and stage-level metrics need "
                f"engine='pipeline'")
        return self._stage_runtime()

    def _stage_runtime(self) -> TransportStageExecutor:
        """The session-wide stage executor (created on first pipeline run).

        The backend spec picks the worker transport
        (:func:`~repro.scp.transport.transport_for_spec`): ``process``
        borrows the session's persistent pool, ``socket`` launches a node
        agent (its own worker processes, reached over TCP), and the thread
        specs run on host threads.  Whatever the substrate, the executor
        object and its chaos/metrics surface are identical.
        """
        with self._lock:
            self._check_open()
            if self._stage_executor is None:
                workers = max(self._probe_config().partition.workers, 1)
                # The pipeline engine's validation rejected anything but a spec.
                spec = cast(BackendSpec, self._backend)
                self._stage_executor = TransportStageExecutor(
                    transport_for_spec(spec, workers=workers,
                                       pool=self._pool,
                                       start_method=self._start_method),
                    workers=workers)
            return self._stage_executor

    def _driver_pool(self) -> ThreadPoolExecutor:
        """The driver threads, one per request in flight (``max_inflight``)."""
        with self._lock:
            self._check_open()
            if self._drivers is None:
                self._drivers = ThreadPoolExecutor(
                    max_workers=self._max_inflight,
                    thread_name_prefix="fuse-stream")
            return self._drivers

    @property
    def cubes_placed(self) -> int:
        """Distinct cubes currently held in the shared-memory cache."""
        return self._segments.held(SharedCube)

    # ------------------------------------------------------------- lifecycle
    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("fusion session is closed")

    def close(self) -> None:
        """Release the worker pool and every owned shared-memory segment.

        A stream abandoned mid-flight leaves queued driver work, pending
        stage futures and slots mid-task behind; everything is drained here
        in dependency order -- queued drivers cancelled, the stage
        executor's bounded queues failed and their slots discarded, driver
        threads joined -- so no queue feeder thread can block interpreter
        shutdown and no future is left hanging.
        """
        if self._closed:
            return
        self._closed = True
        if self._drivers is not None:
            # Cancel fusions that have not started; running ones are
            # unblocked by the stage-executor close below.
            self._drivers.shutdown(wait=False, cancel_futures=True)
        if self._stage_executor is not None:
            self._stage_executor.close()
        if self._drivers is not None:
            self._drivers.shutdown(wait=True)
        # A driver that was already inside _stage_runtime() when _closed was
        # set may have created the executor after the close above; now that
        # every driver has been joined, catch and close any late arrival.
        with self._lock:
            executor = self._stage_executor
        if executor is not None and not executor.closed:
            executor.close()
        # Placements are released only after the stage executor is gone (no
        # task can still be using them) -- abandoned-run pins are
        # force-released by the pool's close, so nothing survives into
        # /dev/shm.
        self._segments.close()
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "FusionSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return (f"<FusionSession engine={self.engine!r} backend={self.backend!r} "
                f"runs={self._runs} {state}>")


def open_session(**kwargs: Any) -> FusionSession:
    """Open a :class:`FusionSession`; see the class for parameters.

    The name mirrors :func:`open`: sessions hold operating-system resources
    (processes, shared memory) and should be closed -- use ``with``::

        with repro.open_session(backend="process", workers=4) as session:
            reports = session.fuse_many(cubes)
    """
    return FusionSession(**kwargs)


__all__ = ["FusionSession", "open_session"]
