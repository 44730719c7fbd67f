"""Normalised inputs and outputs of the unified fusion API.

:class:`FusionRequest` is the single value object every fusion engine
consumes: it carries the cube, the engine and backend choices, and every
tuning knob the three engines collectively expose, with one normalisation
path (:meth:`FusionRequest.resolved_config`) replacing the ad-hoc
``FusionConfig`` assembly that used to be duplicated across the CLI, the
experiments and the benchmarks.

:class:`FusionReport` is the single result object every engine returns:
the :class:`~repro.core.pipeline.FusionResult`, the run metrics and -- where
an SCP backend or the resiliency layer was involved -- the raw run and the
resiliency report, so callers stop caring which engine produced their
composite.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

import numpy as np

from ..cluster.machine import Cluster
from ..cluster.metrics import RunMetrics
from ..config import FusionConfig, PartitionConfig, ResilienceConfig
from ..core.pipeline import FusionResult
from ..core.profiling import StageTiming, stage_timings_table
from ..data.cube import HyperspectralCube
from ..resilience.attack import AttackScenario
from ..scp.registry import BackendSpec
from ..scp.runtime import Backend, RunResult


@dataclass
class FusionRequest:
    """Everything a fusion run needs, in normalised form.

    Only ``cube`` is required.  ``engine`` names a registered engine
    (:func:`repro.engine_names` lists them) and ``backend`` a registered
    backend spec (string such as ``"process:8"``, parsed
    :class:`~repro.scp.registry.BackendSpec`, or an already-built
    :class:`~repro.scp.runtime.Backend` instance).  ``workers``/``subcubes``
    are conveniences that override the partition section of ``config``;
    engine-specific options (``replication``, ``attack``,
    ``camouflage_period`` for the resilient engine) are rejected with an
    actionable error by engines that do not support them.
    """

    cube: HyperspectralCube
    engine: str = "sequential"
    backend: Union[str, BackendSpec, Backend, None] = None
    workers: Optional[int] = None
    subcubes: Optional[int] = None
    config: Optional[FusionConfig] = None
    n_components: int = 3
    prefetch: int = 2
    reassign_timeout: Optional[float] = None
    cluster: Optional[Cluster] = None
    #: Resilient engine only: worker replication level (paper default 2).
    replication: Optional[int] = None
    #: Resilient engine only: scripted attack injected during the run.
    attack: Optional[AttackScenario] = None
    #: Resilient engine only: periodic camouflage migration period (seconds).
    camouflage_period: Optional[float] = None
    #: Pipeline engine only: rows per streaming tile in the projection /
    #: colour-map stage.  ``None`` picks one tile per worker.  Tiling never
    #: changes the composite (the eigendecomposition barrier pins one global
    #: basis), only the streaming granularity.
    tile_rows: Optional[int] = None
    #: Batch scheduling only: concurrent cubes a session's
    #: :meth:`~repro.api.session.FusionSession.fuse_stream` /
    #: :meth:`~repro.api.session.FusionSession.submit` keep in flight
    #: (pipeline engine; other engines run their batches serially).
    max_inflight: Optional[int] = None
    #: Arithmetic precision of the step-7 projection: ``"float64"``
    #: (default, bit-identical to the seed arithmetic) or ``"float32"`` (the
    #: documented fast mode; screening stays float64-exact).  ``None``
    #: keeps whatever ``config`` says.
    compute_dtype: Optional[str] = None
    #: Compute backend of the hot kernels (:func:`repro.compute_names` lists
    #: them; ``"numpy"``, the reference, is the only one).
    #: Bit-identical in float64 on every engine and transport.  ``None``
    #: keeps whatever ``config`` says.
    compute: Optional[str] = None

    # ---------------------------------------------------------- normalisation
    def backend_choice(self, default: str = "sim") -> Union[BackendSpec, Backend]:
        """The validated backend selection (spec parsed, instances passed through)."""
        backend = self.backend if self.backend is not None else default
        if isinstance(backend, Backend):
            return backend
        return BackendSpec.parse(backend)

    def backend_label(self) -> str:
        """Human-readable backend name recorded in the report."""
        choice = self.backend_choice()
        return choice.kind if isinstance(choice, Backend) else str(choice)

    def resolved_config(self) -> FusionConfig:
        """Merge ``config`` with the ``workers``/``subcubes``/``replication``
        conveniences (and any worker-count hint in the backend spec, e.g.
        ``"process:8"``) into the final :class:`FusionConfig`."""
        base = self.config if self.config is not None else FusionConfig()
        workers = self.workers
        if workers is None and isinstance(self.backend, (str, BackendSpec)):
            workers = BackendSpec.parse(self.backend).workers
        if workers is not None or self.subcubes is not None:
            partition = base.partition
            new_workers = workers if workers is not None else partition.workers
            new_subcubes = self.subcubes if self.subcubes is not None else (
                partition.subcubes if self.config is not None
                and (partition.subcubes is None or partition.subcubes >= new_workers)
                else None)
            partition = PartitionConfig(workers=new_workers, subcubes=new_subcubes)
            base = dataclasses.replace(base, partition=partition)
        if self.replication is not None:
            resilience = base.resilience if base.resilience is not None else ResilienceConfig()
            base = base.with_resilience(
                dataclasses.replace(resilience, replication_level=self.replication))
        if self.compute_dtype is not None:
            # FusionConfig.__post_init__ validates the dtype (its
            # ConfigurationError is a ValueError, message included).
            base = dataclasses.replace(base, compute_dtype=self.compute_dtype)
        if self.compute is not None:
            # Validated the same way, against repro.compute_names().
            base = dataclasses.replace(base, compute=self.compute)
        return base

    def replace(self, **changes: Any) -> "FusionRequest":
        """A copy of this request with ``changes`` applied."""
        return dataclasses.replace(self, **changes)


@dataclass
class FusionReport:
    """Unified output of any fusion engine on any backend.

    Attributes
    ----------
    result:
        The :class:`~repro.core.pipeline.FusionResult` (composite,
        components, PCT basis, unique-set size, provenance metadata).
    metrics:
        :class:`~repro.cluster.metrics.RunMetrics` of the run.  Virtual time
        for the simulated backend, measured wall clock elsewhere; the
        sequential engine records its measured wall clock here too, so
        ``report.elapsed_seconds`` is always meaningful.
    engine / backend:
        Registered engine name and backend label the run used
        (``backend`` is ``"inline"`` for the sequential engine).
    run:
        The raw backend :class:`~repro.scp.runtime.RunResult` (per-replica
        outcomes), when an SCP backend was involved.
    resilience:
        The resiliency coordinator's report (recoveries, attacks,
        reconfigurations), when the resilient engine ran.
    stage_timings:
        Per-stage :class:`~repro.core.profiling.StageTiming` records
        (seconds, invocations, rows/s, effective GFLOP/s), populated by
        every engine; ``repro-fusion fuse --profile`` renders them via
        :meth:`profile_table`.  Seconds are virtual on the simulated
        backend, measured wall clock everywhere else.
    """

    result: FusionResult
    metrics: RunMetrics
    engine: str
    backend: str
    run: Optional[RunResult] = None
    resilience: Optional[Dict[str, object]] = None
    stage_timings: Dict[str, StageTiming] = field(default_factory=dict)

    # ------------------------------------------------------------- shortcuts
    @property
    def composite(self) -> "np.ndarray[Any, Any]":
        """``(rows, cols, 3)`` colour composite in [0, 1]."""
        return self.result.composite

    @property
    def components(self) -> "np.ndarray[Any, Any]":
        return self.result.components

    @property
    def unique_set_size(self) -> int:
        return self.result.unique_set_size

    @property
    def elapsed_seconds(self) -> float:
        return self.metrics.elapsed_seconds

    @property
    def replicas_regenerated(self) -> int:
        return int(self.metrics.replicas_regenerated)

    @property
    def failures_injected(self) -> int:
        return int(self.metrics.failures_injected)

    def summary(self) -> Dict[str, object]:
        """Flat run summary used by the CLI and the examples."""
        info: Dict[str, object] = {
            "engine": self.engine,
            "backend": self.backend,
            "unique_set_size": self.unique_set_size,
            "composite_shape": str(self.composite.shape),
            "elapsed_seconds": round(self.elapsed_seconds, 4),
        }
        if self.resilience is not None:
            info["failures_injected"] = self.failures_injected
            info["replicas_regenerated"] = self.replicas_regenerated
        return info

    def profile_table(self) -> str:
        """The per-stage profile as a fixed-width table (``--profile``).

        Each stage is labelled with the compute backend the run used and a
        ``%peak`` column relates its effective GFLOP/s to the one-shot
        measured host GEMM rate (:func:`~repro.core.profiling.
        measured_gemm_peak_gflops`), so "is this stage BLAS-bound or
        overhead-bound?" reads straight off the table.
        """
        from ..core.profiling import measured_gemm_peak_gflops

        clock = ("virtual" if self.backend.startswith("sim") and
                 self.engine in ("distributed", "resilient") else "wall")
        return stage_timings_table(
            self.stage_timings,
            title=f"per-stage profile ({self.engine} on {self.backend}, "
                  f"{clock} clock)",
            compute=str(self.result.metadata.get("compute", "numpy")),
            peak_gflops=measured_gemm_peak_gflops())


__all__ = ["FusionRequest", "FusionReport"]
