"""The manager/worker SCP application of the spectral-screening PCT.

:func:`build_application` assembles the manager and worker thread programs
into an SCP :class:`~repro.scp.runtime.Application`.  The ``distributed``
and ``resilient`` engines (:mod:`repro.api.engines`) run it on whichever
backend the request names:

``backend="sim"``
    The deterministic discrete-event simulation of a workstation LAN
    (default: the paper's 16-node Sun/100BaseT preset).  This is the backend
    the performance figures are regenerated with.

``backend="local"``
    Real Python threads on the host; used by the integration tests to
    exercise genuine concurrency and fault injection.

``backend="process"``
    Real operating-system processes (one interpreter per replica) with the
    cube placed in shared memory; messages carry no bulk data either, since
    a sub-cube task names rows of that placement.  This is the backend that
    delivers actual wall-clock speed-up on multi-core hosts; its measured
    per-phase timings feed the same :class:`~repro.cluster.metrics.RunMetrics`
    record, so Figure-4-style curves can be produced from measured rather
    than modelled times (see :mod:`repro.experiments.measured`).

The composite produced is identical across backends and identical to the
sequential :class:`~repro.core.pipeline.SpectralScreeningPCT` reference.
"""

from __future__ import annotations

from typing import Optional

from ..config import FusionConfig
from ..data.cube import HyperspectralCube
from ..scp.runtime import Application
from .manager import manager_program
from .worker import worker_program

MANAGER_NAME = "manager"
WORKER_PREFIX = "worker"


def worker_name(index: int) -> str:
    """Logical name of the ``index``-th worker thread."""
    return f"{WORKER_PREFIX}.{index}"


def build_application(cube: HyperspectralCube, config: FusionConfig, *,
                      n_components: int = 3,
                      prefetch: int = 2,
                      reassign_timeout: Optional[float] = None,
                      worker_replicas: int = 1) -> Application:
    """Construct the SCP application fusing ``cube``.

    Parameters
    ----------
    config:
        Fusion configuration; ``config.partition.workers`` sets the number of
        worker threads and ``config.partition.subcubes`` the decomposition
        granularity.
    n_components:
        Principal components retained (>= 3).
    prefetch:
        Outstanding tasks per worker (communication/computation overlap).
    reassign_timeout:
        Optional manager-side timeout after which outstanding tasks are
        redistributed; ``None`` (default) relies purely on the resiliency
        layer for recovery.
    worker_replicas:
        Replication level applied to every worker thread (the manager is
        never replicated, as in the paper).
    """
    workers = config.partition.workers
    worker_names = [worker_name(i) for i in range(workers)]
    app = Application(name="spectral-screening-pct")
    app.add_thread(
        MANAGER_NAME, manager_program,
        params={
            "cube": cube,
            "config": config,
            "worker_names": worker_names,
            "n_components": n_components,
            "prefetch": prefetch,
            "reassign_timeout": reassign_timeout,
        },
        critical=False,
        memory_bytes=cube.nbytes_estimate(),
    )
    worker_memory = cube.nbytes_estimate() // max(workers, 1)
    for name in worker_names:
        app.add_thread(
            name, worker_program,
            params={"manager": MANAGER_NAME, "config": config},
            replicas=worker_replicas,
            critical=True,
            memory_bytes=worker_memory,
        )
    return app


__all__ = ["build_application", "worker_name", "MANAGER_NAME", "WORKER_PREFIX"]
