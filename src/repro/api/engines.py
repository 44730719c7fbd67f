"""Engine table: named fusion engines behind one protocol.

An *engine* decides how the eight algorithm steps are orchestrated
(sequentially in-process, manager/worker on an SCP backend, manager/worker
with computational resiliency, staged dataflow); a *backend* decides where
the orchestrated work executes (simulated cluster, host threads, real
processes).  Engines are listed by name in :data:`_ENGINES` and looked up
with :func:`get_engine`.  A request reaches an engine one way:
:class:`~repro.api.session.FusionSession` validates it, places its cube and
calls ``engine.run(request, session)``, and the engine takes what it runs on
from the session (:func:`repro.fuse` is a session of one request).  Adding
an engine is one decorated class -- no CLI or experiment-harness surgery.

Built-in engines
----------------
==========  ==============================================  ================
name        orchestration                                   backends
==========  ==============================================  ================
sequential  single-process reference pipeline (Section 3)   -- (inline)
distributed manager/worker on the SCP runtime (Section 4)   sim, local, process
resilient   distributed + replication/detection/recovery    sim, local, process
pipeline    streaming tile-pipelined dataflow on pooled     process, socket,
            worker slots (:mod:`repro.core.streaming`)      local, sim
==========  ==============================================  ================

All engines produce bit-identical composites for the same request -- that
is the paper's correctness claim, and the cross-engine parity tests assert
it through this table.
"""

from __future__ import annotations

import threading
import time
from typing import (TYPE_CHECKING, Dict, List, Optional, Protocol, Tuple,
                    Type, cast, runtime_checkable)

from ..cluster.machine import Cluster
from ..cluster.metrics import RunMetrics
from ..config import FusionConfig, ResilienceConfig
from ..core.distributed import MANAGER_NAME, build_application, worker_name
from ..core.pipeline import FusionResult, SpectralScreeningPCT
from ..core.profiling import (StageTiming, build_stage_timings,
                              stage_timings_from_result)
from ..core.streaming import execute_pipeline_request
from ..resilience.coordinator import ResilienceCoordinator, protocol_config_for
from ..resilience.policy import ReplicationPolicy
from ..scp.process_backend import ProcessBackend
from ..scp.registry import BackendContext, BackendSpec, create_backend
from ..scp.runtime import Application, Backend, RunResult
from ..scp.sim_backend import SimBackend
from ..scp.wallclock import WallClockBackend
from .request import FusionReport, FusionRequest

if TYPE_CHECKING:
    from .session import FusionSession


@runtime_checkable
class FusionEngine(Protocol):
    """What every engine implements."""

    #: Table name (the key of :data:`_ENGINES`).
    name: str
    #: Backend a one-shot run uses when the request names none; ``None``
    #: means the engine executes inline and accepts no backend.
    default_backend: Optional[str]
    #: Cubes a session stream keeps in flight unless the request's
    #: ``max_inflight`` says otherwise (1: the engine runs serially).
    max_inflight: int
    #: Whether runs execute as stage tasks on the session's stage executor.
    stage_tasks: bool

    def validate(self, request: FusionRequest) -> None:
        """Raise an actionable :class:`ValueError` for options this engine
        cannot honour on the requested backend.

        The session calls it when it opens (on a probe request without a
        cube) and before every run, ahead of copying the cube into shared
        memory, so a bad option costs nothing.
        """
        ...

    def slots_needed(self, config: FusionConfig) -> int:
        """Worker processes one run of ``config`` occupies on a process
        pool (backend-using engines only; sessions pre-spawn this many)."""
        ...

    def run(self, request: FusionRequest,
            session: "FusionSession") -> FusionReport:
        """Execute a validated, placed ``request`` and return the report,
        on what ``session`` holds: its worker pool, stage executor, output
        placements."""
        ...


def engine_names() -> List[str]:
    """Sorted names of every engine."""
    return sorted(_ENGINES)


def get_engine(name: str) -> FusionEngine:
    """Instantiate the engine named ``name``.

    Raises a :class:`ValueError` listing the engine names when ``name`` is
    unknown, so a typo in ``repro.fuse(cube, engine="...")`` is a one-line
    fix.
    """
    try:
        engine = _ENGINES[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown engine {name!r}; registered engines: "
                         f"{', '.join(engine_names())}") from None
    return cast(FusionEngine, engine())


def _reject_resilience_options(request: FusionRequest, engine: str) -> None:
    """Actionable error when resiliency knobs reach a non-resilient engine."""
    for option in ("replication", "attack", "camouflage_period"):
        if getattr(request, option) is not None:
            raise ValueError(
                f"engine {engine!r} does not support the {option!r} option; "
                f"use engine='resilient' for replication, attacks and camouflage")


def _backend_stage_timings(request: FusionRequest, result: FusionResult,
                           metrics: RunMetrics) -> Dict[str, StageTiming]:
    """Stage timings of a manager/worker run, from the backend's metrics.

    Every SCP backend charges :class:`~repro.scp.effects.Compute` effects
    into ``metrics.phase_seconds`` (virtual seconds on the simulated
    backend, measured wall clock on the local/process backends).  Rows and
    the FLOP estimates come from the problem shape and the step cost models;
    the ``transform`` phase fuses steps 7 and 8, so its estimate is the sum
    of both.  With replica execution enabled the phase seconds aggregate
    every replica's work, so the derived rates are cluster-wide, not
    per-node.
    """
    cube = request.cube
    estimator = SpectralScreeningPCT(request.resolved_config(),
                                     n_components=request.n_components)
    estimates = estimator.estimate_phase_flops(cube, result.unique_set_size)
    flops = {"screening": estimates["screening"],
             "mean": estimates["mean"],
             "covariance": estimates["covariance"],
             "eigendecomposition": estimates["eigendecomposition"],
             "transform": estimates["projection"] + estimates["colormap"]}
    rows = {"screening": cube.pixels, "mean": result.unique_set_size,
            "covariance": result.unique_set_size, "transform": cube.pixels}
    return build_stage_timings(metrics.phase_seconds,
                               phase_invocations=metrics.phase_invocations,
                               phase_rows=rows, phase_flops=flops)


def _reject_pipeline_options(request: FusionRequest, engine: str) -> None:
    """Actionable error when streaming knobs reach a batch engine."""
    if request.tile_rows is not None:
        raise ValueError(
            f"engine {engine!r} runs the steps as one batch and has no "
            f"streaming tiles; use engine='pipeline' for tile_rows")
    if request.max_inflight is not None:
        raise ValueError(
            f"engine {engine!r} runs its batches serially; max_inflight "
            f"applies to session streams -- use "
            f"repro.open_session(engine='pipeline', max_inflight=...)")


class SequentialEngine:
    """The single-process reference pipeline, timed on the host.

    It always executes inline, so a request that names a backend is a
    mistake (the caller believes they selected parallel execution) and is
    rejected with a pointer at the backend-using engines.
    """

    name = "sequential"
    default_backend: Optional[str] = None
    max_inflight = 1
    stage_tasks = False

    def validate(self, request: FusionRequest) -> None:
        _reject_resilience_options(request, self.name)
        _reject_pipeline_options(request, self.name)
        if request.backend is not None:
            raise ValueError(
                "engine 'sequential' executes inline and accepts no backend; "
                "use engine='distributed' or engine='resilient' to run on a "
                "registered backend, or omit backend=")

    def run(self, request: FusionRequest,
            session: "FusionSession") -> FusionReport:
        config = request.resolved_config()
        pipeline = SpectralScreeningPCT(config, n_components=request.n_components)
        start = time.perf_counter()
        result = pipeline.fuse(request.cube)
        elapsed = time.perf_counter() - start
        metrics = RunMetrics(elapsed_seconds=elapsed, backend="sequential",
                             workers=1,
                             subcubes=min(config.partition.effective_subcubes,
                                          request.cube.rows))
        return FusionReport(result=result, metrics=metrics,
                            engine=self.name, backend="inline",
                            stage_timings=stage_timings_from_result(result))


class DistributedEngine:
    """Manager/worker fusion on any SCP backend.

    The engine *is* the implementation: :meth:`run` resolves the config,
    builds the one :class:`~repro.scp.registry.BackendContext`, takes the
    backend (the session's pool, the request's instance, or
    :func:`~repro.scp.registry.create_backend`'s build of its spec),
    assembles the manager/worker application
    (:func:`~repro.core.distributed.build_application`), runs it and packages
    the :class:`FusionReport`.  :class:`ResilientEngine` overrides only the
    three facts that differ: :meth:`_worker_replicas`, :meth:`_context` and
    :meth:`_execute`.
    """

    name = "distributed"
    default_backend: Optional[str] = "sim"
    max_inflight = 1
    stage_tasks = False

    def __init__(self) -> None:
        self._run_lock = threading.Lock()

    def validate(self, request: FusionRequest) -> None:
        _reject_resilience_options(request, self.name)
        self._reject_streaming(request)

    def _reject_streaming(self, request: FusionRequest) -> None:
        """What no batch engine runs: streaming knobs, and a ``socket`` spec
        (stage-task workers with no SCP program runtime --
        :func:`create_backend` raises the actionable error)."""
        _reject_pipeline_options(request, self.name)
        choice = request.backend_choice()
        if isinstance(choice, BackendSpec) and choice.name == "socket":
            create_backend(choice)

    def _worker_replicas(self, config: FusionConfig) -> int:
        """Replication level applied to every worker thread."""
        return 1

    def slots_needed(self, config: FusionConfig) -> int:
        """Processes one run of ``config`` occupies on the process backend:
        every worker replica plus the (never replicated) manager."""
        return config.partition.workers * self._worker_replicas(config) + 1

    def _context(self, request: FusionRequest,
                 config: FusionConfig) -> BackendContext:
        return BackendContext(workers=config.partition.workers,
                              cluster=request.cluster, manager=MANAGER_NAME)

    def _execute(self, backend: Backend, app: Application,
                 request: FusionRequest, config: FusionConfig,
                 cluster: Optional[Cluster]
                 ) -> Tuple[RunResult, Optional[Dict[str, object]]]:
        """Run ``app``; returns the raw run and the resiliency report (if
        any).  The simulated backend's virtual-time results depend on the
        exact call shape, so it is called with no options here."""
        if isinstance(backend, WallClockBackend):
            return backend.run(app, until_thread=MANAGER_NAME), None
        return backend.run(app), None

    def run(self, request: FusionRequest,
            session: "FusionSession") -> FusionReport:
        config = request.resolved_config()
        context = self._context(request, config)
        # Runs are serialised (a session owns its engine instance) even when
        # submit() drivers and direct fuse() callers overlap: two at once
        # would grow the pool past the session's slot budget, forking from
        # one thread while another's inbox feeders hold locks.
        with self._run_lock:
            # A process session's pool serves every run; otherwise
            # create_backend passes the request's instance through or builds
            # its spec (the sim factory writes the preset cluster it sized
            # back into the context, where the resiliency layer reads it).
            backend = (ProcessBackend(session._pool) if session._pool is not None
                       else create_backend(request.backend_choice(), context))
            app = build_application(
                request.cube, config, n_components=request.n_components,
                prefetch=request.prefetch,
                reassign_timeout=request.reassign_timeout,
                worker_replicas=self._worker_replicas(config))
            run, resilience = self._execute(backend, app, request, config,
                                            context.cluster)
        result = run.return_of(MANAGER_NAME)
        if not isinstance(result, FusionResult):
            raise TypeError(f"manager returned {type(result).__name__}, "
                            f"expected FusionResult")
        metrics = run.metrics
        metrics.workers = config.partition.workers
        # What the manager actually decomposed into (clamped to the rows).
        metrics.subcubes = int(result.metadata["subcubes"])
        if resilience is not None:
            metrics.replication_level = self._worker_replicas(config)
            result.metadata["resilience"] = resilience
            result.metadata["mode"] = self.name
        return FusionReport(result=result, metrics=metrics, engine=self.name,
                            backend=request.backend_label(), run=run,
                            resilience=resilience,
                            stage_timings=_backend_stage_timings(
                                request, result, metrics))


def _resilience_of(config: FusionConfig) -> ResilienceConfig:
    """``config.resilience``, or the paper's defaults (level 2)."""
    return config.resilience or ResilienceConfig()


class ResilientEngine(DistributedEngine):
    """Distributed fusion with computational resiliency armed.

    The configuration the paper actually evaluates: every worker thread is
    replicated (``request.replication`` overrides the level, paper default
    2), the manager -- the sensor -- is not, failure detection and dynamic
    regeneration are armed, and the more expensive group-communication
    protocols are charged by the simulated backend.  On the wall-clock
    backends (``local``, ``process``) detection relies on immediate death
    notifications -- a killed thread, a SIGKILLed or OOM-killed worker
    process observed by the parent -- and regeneration spawns genuine
    replacements.  ``request.attack`` and ``request.camouflage_period``
    layer scripted failures and camouflage migration on top without
    touching the algorithm, exactly as in the paper's Section 4
    experiments; both are scheduled on the simulated backend's virtual
    clock and are rejected elsewhere.

    The fusion output of a resilient run is identical to the plain
    distributed run and to the sequential reference -- resiliency only
    changes *how long* the run takes and *what it survives*, which is
    exactly what the paper's Figure 4 measures.
    """

    name = "resilient"

    def validate(self, request: FusionRequest) -> None:
        self._reject_streaming(request)
        choice = request.backend_choice()
        if isinstance(choice, Backend):
            on_sim, label = isinstance(choice, SimBackend), choice.kind
        else:
            on_sim, label = choice.name == "sim", str(choice)
        for option in ("attack", "camouflage_period"):
            if not on_sim and getattr(request, option) is not None:
                raise ValueError(
                    f"{option}= is scheduled on the simulated backend's "
                    f"virtual clock and backend {label!r} runs on the wall "
                    f"clock; use backend='sim' for scripted attacks and "
                    f"camouflage (real deaths -- SIGKILL, OOM, kill_thread "
                    f"-- are detected and regenerated on every backend)")

    def _worker_replicas(self, config: FusionConfig) -> int:
        return _resilience_of(config).replication_level

    def _context(self, request: FusionRequest,
                 config: FusionConfig) -> BackendContext:
        # The base engine's context, with the resiliency protocol's cost
        # model charged on the simulated backend.
        resilience = _resilience_of(config)
        context = super()._context(request, config)
        context.protocol = protocol_config_for(resilience)
        context.share_replica_results = not resilience.execute_replicas
        return context

    def _execute(self, backend: Backend, app: Application,
                 request: FusionRequest, config: FusionConfig,
                 cluster: Optional[Cluster]
                 ) -> Tuple[RunResult, Optional[Dict[str, object]]]:
        resilience = _resilience_of(config)
        pinned = ({MANAGER_NAME: "manager"}
                  if cluster is not None and "manager" in cluster.node_names
                  else {})
        coordinator = ResilienceCoordinator(
            backend, cluster, resilience,
            policy=ReplicationPolicy.from_config(resilience), pinned=pinned)
        placement = coordinator.attach(app)
        if request.attack is not None:
            coordinator.arm_attack(request.attack)
        if request.camouflage_period is not None:
            coordinator.enable_camouflage(
                period=request.camouflage_period,
                logical_threads=[worker_name(i)
                                 for i in range(config.partition.workers)],
                seed=config.seed)
        if isinstance(backend, SimBackend):
            run = backend.run(app, placement=placement,
                              until_thread=MANAGER_NAME)
        else:
            run, _ = super()._execute(backend, app, request, config, cluster)
        return run, coordinator.report()


class PipelineEngine:
    """Streaming tile-pipelined fusion (:mod:`repro.core.streaming`).

    Every run submits its stage tasks to the session's one stage executor
    and borrows its output placements, so concurrent runs of a session
    stream: they overlap on one bounded slot budget.
    """

    name = "pipeline"
    default_backend: Optional[str] = "process"
    #: The default stream window of a session (``max_inflight``).
    max_inflight = 4
    stage_tasks = True

    def validate(self, request: FusionRequest) -> None:
        _reject_resilience_options(request, self.name)
        if isinstance(request.backend, Backend):
            raise ValueError(
                "engine 'pipeline' executes stage tasks, not SCP programs; "
                "pass a backend spec string such as 'process:8', not a "
                "backend instance")

    def slots_needed(self, config: FusionConfig) -> int:
        """One pool slot per worker (stage slots carry no manager)."""
        return config.partition.workers

    def run(self, request: FusionRequest,
            session: "FusionSession") -> FusionReport:
        return execute_pipeline_request(
            request, session.stage_executor(), backend_label=session.backend,
            output_pool=session._segments)


#: ``name -> engine class``: every engine :func:`get_engine` can build.
_ENGINES: Dict[str, Type[object]] = {
    "sequential": SequentialEngine,
    "distributed": DistributedEngine,
    "resilient": ResilientEngine,
    "pipeline": PipelineEngine,
}


__all__ = ["FusionEngine", "engine_names", "get_engine",
           "SequentialEngine", "DistributedEngine", "ResilientEngine",
           "PipelineEngine"]
