"""Distributed (manager/worker) spectral-screening PCT.

The engine behind ``repro.fuse(cube, engine="distributed")`` assembles the
manager and worker thread programs into an SCP
:class:`~repro.scp.runtime.Application`, runs it on a chosen backend and
returns both the fusion output and the run metrics.  Three backends are
supported out of the box:

``backend="sim"``
    The deterministic discrete-event simulation of a workstation LAN
    (default: the paper's 16-node Sun/100BaseT preset).  This is the backend
    the performance figures are regenerated with.

``backend="local"``
    Real Python threads on the host; used by the integration tests to
    exercise genuine concurrency and fault injection.

``backend="process"``
    Real operating-system processes (one interpreter per replica) with the
    cube placed in shared memory.  This is the backend that delivers actual
    wall-clock speed-up on multi-core hosts; its measured per-phase timings
    feed the same :class:`~repro.cluster.metrics.RunMetrics` record, so
    Figure-4-style curves can be produced from measured rather than modelled
    times (see :mod:`repro.experiments.measured`).

The composite produced is identical across backends and identical to the
sequential :class:`~repro.core.pipeline.SpectralScreeningPCT` reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from ..cluster.machine import Cluster
from ..cluster.metrics import RunMetrics
from ..config import FusionConfig
from ..data.cube import HyperspectralCube
from ..scp.registry import BackendContext, BackendSpec, create_backend
from ..scp.runtime import Application, Backend, RunResult
from ..scp.sim_backend import ProtocolConfig, SimBackend
from ..scp.wallclock import WallClockBackend
from .manager import manager_program
from .pipeline import FusionResult
from .worker import worker_program

MANAGER_NAME = "manager"
WORKER_PREFIX = "worker"


def worker_name(index: int) -> str:
    """Logical name of the ``index``-th worker thread."""
    return f"{WORKER_PREFIX}.{index}"


@dataclass
class DistributedRunOutcome:
    """Everything a distributed fusion run produces.

    Attributes
    ----------
    result:
        The :class:`~repro.core.pipeline.FusionResult` returned by the manager.
    metrics:
        Run metrics (elapsed virtual/wall time, traffic, per-phase compute).
    run:
        The raw backend :class:`~repro.scp.runtime.RunResult` for detailed
        inspection (per-replica outcomes and so on).
    """

    result: FusionResult
    metrics: RunMetrics
    run: RunResult

    @property
    def elapsed_seconds(self) -> float:
        return self.metrics.elapsed_seconds


class _DistributedPCT:
    """Manager/worker fusion engine on the SCP runtime.

    Parameters
    ----------
    config:
        Fusion configuration; ``config.partition.workers`` sets the number of
        worker threads and ``config.partition.subcubes`` the decomposition
        granularity.
    cluster:
        Optional explicit cluster model for the simulated backend; defaults
        to :func:`~repro.cluster.presets.sun_ultra_lan` sized to the worker
        count (plus a dedicated manager node).
    backend:
        A registry spec string (``"sim"``, ``"local"``, ``"process"``, or a
        parameterised form such as ``"process:fork"`` / ``"sim:switched"``),
        a parsed :class:`~repro.scp.registry.BackendSpec`, or an
        already-constructed :class:`~repro.scp.runtime.Backend` instance.
    n_components:
        Principal components retained (>= 3).
    prefetch:
        Outstanding tasks per worker (communication/computation overlap).
    reassign_timeout:
        Optional manager-side timeout after which outstanding tasks are
        redistributed; ``None`` (default) relies purely on the resiliency
        layer for recovery.
    protocol:
        Optional :class:`~repro.scp.sim_backend.ProtocolConfig` for the
        simulated backend (used by the resilient wrapper to charge protocol
        overheads).
    """

    def __init__(self, config: Optional[FusionConfig] = None, *,
                 cluster: Optional[Cluster] = None,
                 backend: Union[str, BackendSpec, Backend] = "sim",
                 n_components: int = 3,
                 full_projection: bool = True,
                 prefetch: int = 2,
                 reassign_timeout: Optional[float] = None,
                 protocol: Optional[ProtocolConfig] = None,
                 share_replica_results: bool = True) -> None:
        self.config = config or FusionConfig()
        self.cluster = cluster
        self.backend_choice = backend
        self.n_components = n_components
        self.full_projection = full_projection
        self.prefetch = prefetch
        self.reassign_timeout = reassign_timeout
        self.protocol = protocol
        self.share_replica_results = share_replica_results

    # ----------------------------------------------------------- application
    @property
    def workers(self) -> int:
        return self.config.partition.workers

    def worker_names(self) -> list:
        return [worker_name(i) for i in range(self.workers)]

    def build_application(self, cube: HyperspectralCube, *,
                          worker_replicas: int = 1) -> Application:
        """Construct the SCP application for ``cube``.

        ``worker_replicas`` is the replication level applied to every worker
        thread (the manager is never replicated, as in the paper).
        """
        app = Application(name="spectral-screening-pct")
        app.add_thread(
            MANAGER_NAME, manager_program,
            params={
                "cube": cube,
                "config": self.config,
                "worker_names": self.worker_names(),
                "n_components": self.n_components,
                "full_projection": self.full_projection,
                "prefetch": self.prefetch,
                "reassign_timeout": self.reassign_timeout,
            },
            critical=False,
            memory_bytes=cube.nbytes_estimate(),
        )
        worker_memory = cube.nbytes_estimate() // max(self.workers, 1)
        for name in self.worker_names():
            app.add_thread(
                name, worker_program,
                params={"manager": MANAGER_NAME, "config": self.config},
                replicas=worker_replicas,
                critical=True,
                memory_bytes=worker_memory,
            )
        return app

    # --------------------------------------------------------------- backend
    def make_backend(self) -> Backend:
        """Instantiate the execution backend chosen at construction time.

        Spec strings are resolved through the backend registry
        (:mod:`repro.scp.registry`); already-built :class:`Backend`
        instances pass through unchanged.
        """
        if isinstance(self.backend_choice, Backend):
            return self.backend_choice
        context = BackendContext(workers=self.workers, cluster=self.cluster,
                                 protocol=self.protocol,
                                 share_replica_results=self.share_replica_results,
                                 manager=MANAGER_NAME)
        backend = create_backend(self.backend_choice, context)
        # The sim factory resolves the preset cluster; remember it so repeated
        # fuse() calls and the resiliency layer see the same model.
        self.cluster = context.cluster
        return backend

    # ------------------------------------------------------------------ fuse
    def fuse(self, cube: HyperspectralCube, *,
             backend: Optional[Backend] = None) -> "DistributedRunOutcome":
        """Run the distributed fusion and return result plus metrics."""
        backend = backend or self.make_backend()
        app = self.build_application(cube)
        return self._package(self._execute(backend, app))

    def _execute(self, backend: Backend, app: Application,
                 **sim_options) -> RunResult:
        """Run ``app``; ``sim_options`` reach only the simulated backend
        (whose virtual-time results depend on the exact call shape)."""
        if isinstance(backend, SimBackend):
            return backend.run(app, **sim_options)
        if isinstance(backend, WallClockBackend):
            return backend.run(app, until_thread=MANAGER_NAME)
        return backend.run(app)

    def _package(self, run: RunResult) -> "DistributedRunOutcome":
        result = run.return_of(MANAGER_NAME)
        if not isinstance(result, FusionResult):
            raise TypeError(f"manager returned {type(result).__name__}, expected FusionResult")
        metrics = run.metrics
        metrics.workers = self.workers
        # What the manager actually decomposed into (clamped to the rows).
        metrics.subcubes = int(result.metadata["subcubes"])
        return DistributedRunOutcome(result=result, metrics=metrics, run=run)


__all__ = ["DistributedRunOutcome", "worker_name", "MANAGER_NAME", "WORKER_PREFIX"]
