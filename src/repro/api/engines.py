"""Engine registry: named fusion engines behind one protocol.

An *engine* decides how the eight algorithm steps are orchestrated
(sequentially in-process, manager/worker on an SCP backend, manager/worker
with computational resiliency); a *backend* decides where the orchestrated
threads execute (simulated cluster, host threads, real processes).  Engines
are registered by name with :func:`register_engine` and looked up with
:func:`get_engine`; :func:`repro.fuse` and :class:`repro.api.session.
FusionSession` drive everything through the common :class:`FusionEngine`
protocol, so adding an engine is one decorated class -- no CLI or
experiment-harness surgery.

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
it through this registry.
"""

from __future__ import annotations

import time
from typing import (Callable, Dict, List, Optional, Protocol, Type, TypeVar,
                    cast, runtime_checkable)

from ..cluster.metrics import RunMetrics
from ..core.distributed import _DistributedPCT
from ..core.pipeline import FusionResult, SpectralScreeningPCT
from ..core.profiling import (StageTiming, build_stage_timings,
                              stage_timings_from_result)
from ..core.resilient import _ResilientPCT
from ..registry import Registry
from ..scp.runtime import Backend
from .request import FusionReport, FusionRequest


@runtime_checkable
class FusionEngine(Protocol):
    """What every registered engine implements."""

    #: Registered name (filled in by :func:`register_engine`).
    name: str
    #: Whether the engine executes on an SCP backend (``False`` = inline).
    uses_backend: bool

    def run(self, request: FusionRequest,
            backend: Optional[Backend] = None) -> FusionReport:
        """Execute ``request`` and return the unified report.

        ``backend`` optionally injects an already-built backend instance
        (sessions use this to hand engines their pooled backend); when it is
        ``None`` the engine resolves ``request.backend`` via the registry.
        """
        ...


_ENGINES: Registry[Type[object]] = Registry("engine")

#: The decorated engine class passes through :func:`register_engine` unchanged.
_EngineClass = TypeVar("_EngineClass", bound=Type[object])


def register_engine(name: str) -> Callable[[_EngineClass], _EngineClass]:
    """Class decorator registering a :class:`FusionEngine` under ``name``."""
    def decorator(cls: _EngineClass) -> _EngineClass:
        _ENGINES.add(name, cls)
        cls.name = name
        return cls
    return decorator


def engine_names() -> List[str]:
    """Sorted names of every registered engine."""
    return _ENGINES.names()


def get_engine(name: str) -> FusionEngine:
    """Instantiate the engine registered under ``name``.

    Raises a :class:`ValueError` listing the registered names when ``name``
    is unknown, so a typo in ``repro.fuse(cube, engine="...")`` is a
    one-line fix.
    """
    return cast(FusionEngine, _ENGINES.get(name)())


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
                                     n_components=request.n_components,
                                     full_projection=request.full_projection)
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


@register_engine("sequential")
class SequentialEngine:
    """The single-process reference pipeline, timed on the host.

    It always executes inline, so a request that names a backend is a
    mistake (the caller believes they selected parallel execution) and is
    rejected with a pointer at the backend-using engines.
    """

    uses_backend = False

    def run(self, request: FusionRequest,
            backend: Optional[Backend] = None) -> FusionReport:
        _reject_resilience_options(request, self.name)
        _reject_pipeline_options(request, self.name)
        if request.backend is not None or backend is not None:
            raise ValueError(
                "engine 'sequential' executes inline and accepts no backend; "
                "use engine='distributed' or engine='resilient' to run on a "
                "registered backend, or omit backend=")
        config = request.resolved_config()
        pipeline = SpectralScreeningPCT(config, n_components=request.n_components,
                                        full_projection=request.full_projection)
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


@register_engine("distributed")
class DistributedEngine:
    """Manager/worker fusion on any registered SCP backend."""

    uses_backend = True

    def run(self, request: FusionRequest,
            backend: Optional[Backend] = None) -> FusionReport:
        _reject_resilience_options(request, self.name)
        _reject_pipeline_options(request, self.name)
        impl = _DistributedPCT(
            request.resolved_config(), cluster=request.cluster,
            backend=backend if backend is not None else request.backend_choice(),
            n_components=request.n_components,
            full_projection=request.full_projection,
            prefetch=request.prefetch,
            reassign_timeout=request.reassign_timeout)
        outcome = impl.fuse(request.cube)
        label = backend.kind if backend is not None else request.backend_label()
        return FusionReport(result=outcome.result, metrics=outcome.metrics,
                            engine=self.name, backend=label, run=outcome.run,
                            stage_timings=_backend_stage_timings(
                                request, outcome.result, outcome.metrics))


@register_engine("resilient")
class ResilientEngine:
    """Distributed fusion with computational resiliency armed.

    ``request.replication`` overrides the replication level (paper default
    2); ``request.attack`` and ``request.camouflage_period`` layer scripted
    failures and camouflage migration on top without touching the
    algorithm, exactly as in the paper's Section 4 experiments.
    """

    uses_backend = True

    def run(self, request: FusionRequest,
            backend: Optional[Backend] = None) -> FusionReport:
        _reject_pipeline_options(request, self.name)
        impl = _ResilientPCT(
            request.resolved_config(), cluster=request.cluster,
            backend=backend if backend is not None else request.backend_choice(),
            n_components=request.n_components,
            full_projection=request.full_projection,
            prefetch=request.prefetch,
            reassign_timeout=request.reassign_timeout,
            attack=request.attack,
            camouflage_period=request.camouflage_period)
        outcome = impl.fuse(request.cube)
        label = backend.kind if backend is not None else request.backend_label()
        return FusionReport(result=outcome.result, metrics=outcome.metrics,
                            engine=self.name, backend=label, run=outcome.run,
                            resilience=outcome.resilience_report,
                            stage_timings=_backend_stage_timings(
                                request, outcome.result, outcome.metrics))


# Registered at the bottom: the streaming module must see register_engine
# (defined above) while this module is still initialising.
from ..core.streaming import PipelineEngine  # noqa: E402

register_engine("pipeline")(PipelineEngine)


__all__ = ["FusionEngine", "register_engine", "engine_names", "get_engine",
           "SequentialEngine", "DistributedEngine", "ResilientEngine",
           "PipelineEngine"]
