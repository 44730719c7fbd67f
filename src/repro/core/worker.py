"""Worker thread program of the distributed spectral-screening PCT.

A worker participates in the three distributed phases of the algorithm:

* ``screen``      -- step 1: spectral-angle screening of a sub-cube,
* ``covariance``  -- step 4: covariance sum of a slice of the unique set,
* ``transform``   -- steps 7-8: projection and colour mapping of a sub-cube.

A sub-cube task carries the manager's cube and the block's row range; the
worker screens the block's rows in place and copies a transform block out
of the cube just before computing it.

The worker is deliberately stateless between tasks: it announces itself to
the manager, then loops receiving a task, computing it, and returning the
result.  Idempotent duplicate-suppression keys on both tasks and results make
the protocol safe under replication (every replica of a worker receives and
computes every task, but the manager keeps only one copy of each result) and
under regeneration (a replica that rejoins after a failure simply announces
itself again; the manager re-sends whatever is outstanding).

The paper's communication/computation overlap (Section 3: "a worker overlaps
the request for its next sub-problem with the calculation associated with the
current sub-problem") arises naturally: the manager keeps ``prefetch`` tasks
outstanding per worker, so while a worker computes one sub-cube the next is
already in flight or waiting in its mailbox.
"""

from __future__ import annotations

from typing import Dict, Generator, Optional

import numpy as np

from ..config import FusionConfig
from ..scp.effects import Compute, Recv, Send
from ..scp.runtime import Context
from .messages import (PHASE_COVARIANCE, PHASE_SCREEN, PHASE_TRANSFORM,
                       PORT_HELLO, PORT_RESULT, PORT_TASK, StopWork,
                       TaskAssignment, TaskResult, WorkerHello)
from .kernels import kernel_covariance_sum, kernel_project_and_map
from .partition import extract_subcube, subcube_pixel_matrix
from .steps.colormap import color_map_flops
from .steps.screening import screen_unique_set, screening_flops
from .steps.statistics import covariance_sum_flops
from .steps.transform import projection_flops


def _compute_screen(block: np.ndarray, config: FusionConfig) -> Compute:
    """Build the Compute effect for screening one sub-cube block (a view)."""
    pixels = subcube_pixel_matrix(block)
    n_pixels, bands = pixels.shape
    screening = config.screening

    def flops_of(result: np.ndarray, n=n_pixels, b=bands) -> float:
        return screening_flops(n, result.shape[0], b)

    return Compute(fn=screen_unique_set,
                   args=(pixels, screening.angle_threshold),
                   kwargs={"max_unique": screening.max_unique,
                           "sample_stride": screening.sample_stride,
                           "compute": config.compute},
                   flops=flops_of, phase="screening")


def _compute_covariance(task: TaskAssignment, config: FusionConfig) -> Compute:
    """Build the Compute effect for a covariance-sum task."""
    pixels = task.data["pixels"]
    mean = task.data["mean"]
    return Compute(fn=kernel_covariance_sum, args=(pixels, mean),
                   kwargs={"compute": config.compute},
                   flops=covariance_sum_flops(pixels.shape[0], pixels.shape[1]),
                   phase="covariance")


def _transform_and_map(block: np.ndarray, basis, stretch_mean, stretch_std,
                       keep_components: int, normalize: bool = True,
                       compute_dtype: str = "float64",
                       compute: str = "numpy") -> Dict[str, np.ndarray]:
    """Steps 7-8 fused into one call: project a sub-cube and colour-map it.

    The projection multiplies only the leading ``keep_components``
    eigenvectors of ``basis`` (the ones that reach an output; the basis may
    carry all of them, which the simulated cost charges for) and only those
    planes are sent back to the manager.
    The named compute kernel does the fusing, so forked and socket workers
    pick it by name rather than by a pickled function.
    """
    components, rgb = kernel_project_and_map(
        block, basis, n_components=keep_components, normalize=normalize,
        stretch_mean=stretch_mean, stretch_std=stretch_std,
        compute_dtype=compute_dtype, compute=compute)
    return {"components": components, "rgb": rgb}


def _compute_transform(task: TaskAssignment, block: np.ndarray,
                       config: FusionConfig) -> Compute:
    """Build the Compute effect for a transform + colour-map task on ``block``."""
    basis = task.data["basis"]
    stretch_mean = task.data["stretch_mean"]
    stretch_std = task.data["stretch_std"]
    keep = int(task.data.get("keep_components", 3))
    n_pixels = block.shape[1] * block.shape[2]
    flops = (projection_flops(n_pixels, basis.bands, basis.n_components)
             + color_map_flops(n_pixels))
    return Compute(fn=_transform_and_map,
                   args=(block, basis, stretch_mean, stretch_std, keep,
                         config.colormap.normalize_components,
                         config.compute_dtype, config.compute),
                   flops=flops, phase="transform")


def worker_program(ctx: Context, *, manager: str = "manager",
                   config: Optional[FusionConfig] = None) -> Generator:
    """Generator program executed by every worker replica.

    Parameters
    ----------
    ctx:
        Backend-provided context (identity, replica index, incarnation).
    manager:
        Logical name of the manager thread.
    config:
        Fusion configuration (screening thresholds, colour-map
        normalisation and the compute policy are the parts used).
    """
    config = config or FusionConfig()
    tasks_completed = 0

    # Announce availability.  Regenerated replicas carry a new incarnation
    # number so the announcement is not suppressed as a duplicate and the
    # manager knows to re-send outstanding work.
    hello = WorkerHello(worker=ctx.name, incarnation=ctx.incarnation)
    yield Send(dst=manager, port=PORT_HELLO, payload=hello, key=hello.dedup_key())

    while True:
        envelope = yield Recv(port=PORT_TASK)
        message = envelope.payload

        if isinstance(message, StopWork):
            return {"worker": ctx.name, "replica": ctx.replica,
                    "tasks_completed": tasks_completed, "reason": message.reason}

        if not isinstance(message, TaskAssignment):
            # Unknown control traffic is ignored rather than crashing the
            # worker; the manager's accounting is authoritative.
            continue

        task = message
        if task.phase == PHASE_SCREEN:
            spec = task.spec
            block = task.data["cube"].data[:, spec.row_start:spec.row_stop]
            unique = yield _compute_screen(block, config)
            result_data = {"unique": unique,
                           "pixels_screened": int(block.shape[1] * block.shape[2])}
        elif task.phase == PHASE_COVARIANCE:
            cov = yield _compute_covariance(task, config)
            result_data = {"cov_sum": cov, "count": int(task.data["pixels"].shape[0])}
        elif task.phase == PHASE_TRANSFORM:
            block = extract_subcube(task.data["cube"], task.spec)
            block_result = yield _compute_transform(task, block, config)
            result_data = {"rgb": block_result["rgb"],
                           "components": block_result["components"],
                           "spec": task.spec}
        else:
            # Unknown phase: report an empty result so the manager does not
            # wait forever on a protocol mismatch.
            result_data = {"error": f"unknown phase {task.phase!r}"}

        result = TaskResult(phase=task.phase, task_id=task.task_id,
                            worker=ctx.name, data=result_data)
        yield Send(dst=manager, port=PORT_RESULT, payload=result, key=result.dedup_key())
        tasks_completed += 1


__all__ = ["worker_program"]
