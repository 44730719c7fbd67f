"""The paper's primary contribution: the spectral-screening PCT fusion engine.

Every engine shares one algorithm implementation:

* :class:`~repro.core.pipeline.SpectralScreeningPCT` -- sequential reference,
* :mod:`~repro.core.distributed` -- the manager/worker application on the
  SCP runtime (simulated cluster, real threads or real processes), run
  plain by the ``distributed`` engine and with computational resiliency
  (replication, detection, regeneration) by the ``resilient`` engine,
* :mod:`~repro.core.streaming` -- the streaming tile pipeline.

The engines are reached through :func:`repro.fuse` /
:func:`repro.open_session` and the engine registry (:mod:`repro.api.engines`).
"""

from .distributed import (MANAGER_NAME, WORKER_PREFIX, build_application,
                          worker_name)
from .manager import manager_program
from .messages import (ALL_PHASES, PHASE_COVARIANCE, PHASE_SCREEN,
                       PHASE_TRANSFORM, PORT_HELLO, PORT_RESULT, PORT_TASK,
                       StopWork, TaskAssignment, TaskResult, WorkerHello)
from .partition import (SubcubeSpec, decompose, extract_subcube,
                        reassemble_composite, subcube_pixel_matrix)
from .pipeline import FusionResult, SpectralScreeningPCT
from .worker import worker_program

__all__ = [
    "MANAGER_NAME",
    "WORKER_PREFIX",
    "build_application",
    "worker_name",
    "manager_program",
    "worker_program",
    "ALL_PHASES",
    "PHASE_COVARIANCE",
    "PHASE_SCREEN",
    "PHASE_TRANSFORM",
    "PORT_HELLO",
    "PORT_RESULT",
    "PORT_TASK",
    "StopWork",
    "TaskAssignment",
    "TaskResult",
    "WorkerHello",
    "SubcubeSpec",
    "decompose",
    "extract_subcube",
    "reassemble_composite",
    "subcube_pixel_matrix",
    "FusionResult",
    "SpectralScreeningPCT",
]
