"""Resilient Image Fusion: reproduction of Achalakul, Lee & Taylor (ICPP 2000).

Quick start -- everything goes through one facade::

    import repro

    cube = repro.HydiceGenerator.quicklook_cube()
    report = repro.fuse(cube)                                   # sequential
    report = repro.fuse(cube, engine="distributed", workers=8)  # simulated LAN
    report = repro.fuse(cube, engine="distributed", backend="process:4")
    print(report.composite.shape, report.unique_set_size, report.elapsed_seconds)

For repeated workloads, a session keeps the worker-process pool and the
shared-memory cube placement alive between calls; on the streaming
``pipeline`` engine it also overlaps independent cubes on the shared
worker slots::

    with repro.open_session(backend="process", workers=4) as session:
        reports = session.fuse_many(cubes)

    with repro.open_session(engine="pipeline", backend="process:4") as session:
        for report in session.fuse_stream(cubes):
            ...

Engines (``repro.engine_names()``) orchestrate the algorithm -- sequential
reference, manager/worker distribution, distribution plus computational
resiliency, streaming tile-pipelined dataflow -- and backends
(``repro.backend_names()``) decide where the threads execute: a
discrete-event simulated cluster (``"sim"``, virtual
time), host threads (``"local"``) or real processes with shared-memory data
placement (``"process"``, measured wall-clock speed-up) or node-agent
workers over TCP (``"socket"``, pipeline engine).  Both are closed tables
in their own modules: a new engine or backend is one class plus one table
entry, and is available everywhere, CLI included.

The library layers underneath (the "Layout" section of README.md has the
full inventory):

* :mod:`repro.data`        -- synthetic HYDICE-like hyper-spectral scenes,
* :mod:`repro.scp`         -- the SCPlib-like message-passing runtime and
  its backends, plus the persistent worker pool (:mod:`repro.scp.pool`),
* :mod:`repro.resilience`  -- replication, detection, regeneration,
  reconfiguration, attacks, camouflage,
* :mod:`repro.core`        -- the spectral-screening PCT fusion algorithm,
* :mod:`repro.api`         -- the unified facade, engine table and sessions.
"""

from .api import (BackendContext, BackendSpec, FusionReport, FusionRequest,
                  FusionSession, backend_names, create_backend, engine_names,
                  fuse, get_engine, open_session, run_request)
from .config import (COMPUTE_DTYPES, FusionConfig, PAPER_SETUP, PaperSetup,
                     PartitionConfig, ResilienceConfig, ScreeningConfig)
from .core import FusionResult, SpectralScreeningPCT
from .core.kernels import compute_names
from .core.profiling import StageTiming
from .data import HydiceConfig, HydiceGenerator, HyperspectralCube, generate_cube

__version__ = "1.28.0"

__all__ = [
    # Unified fusion API
    "fuse",
    "open_session",
    "run_request",
    "FusionRequest",
    "FusionReport",
    "FusionSession",
    "BackendContext",
    "BackendSpec",
    "backend_names",
    "create_backend",
    "engine_names",
    "get_engine",
    # Compute-kernel tier
    "compute_names",
    # Profiling
    "StageTiming",
    # Configuration
    "COMPUTE_DTYPES",
    "FusionConfig",
    "PAPER_SETUP",
    "PaperSetup",
    "PartitionConfig",
    "ResilienceConfig",
    "ScreeningConfig",
    # The algorithm-level result and the sequential reference pipeline
    "FusionResult",
    "SpectralScreeningPCT",
    # Data
    "HydiceConfig",
    "HydiceGenerator",
    "HyperspectralCube",
    "generate_cube",
    "__version__",
]
