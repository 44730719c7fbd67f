"""Manager thread program of the distributed spectral-screening PCT.

The manager implements the paper's manager/worker decomposition (Section 3):
it partitions the problem into sub-cubes, distributes them to workers, merges
the per-partition results, executes the inherently sequential steps (unique
set merging, mean vector, covariance combination, eigen-decomposition), and
finally assembles the colour composite from the workers' transformed blocks.
A sub-cube task names its block by reference (see
:class:`~repro.core.messages.TaskAssignment`), never carries a copy of it.

The distribution protocol is *result driven with prefetch*: the manager keeps
up to ``prefetch`` tasks outstanding per worker; every incoming result
triggers the assignment of the next pending task to the worker that produced
it.  This creates the computation/communication overlap studied in Figure 5
whenever the number of sub-cubes exceeds the number of workers.

Fault-tolerance of the protocol itself comes from idempotence: task and
result messages carry duplicate-suppression keys, so re-sent tasks and
duplicate results (from replicated workers, regenerated replicas or timeout
reassignments) are harmless.  A worker replica that rejoins after
regeneration announces itself with a new incarnation number and the manager
re-sends whatever that worker still owes.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Generator, List, Optional, Sequence

from ..config import FusionConfig
from ..data.cube import HyperspectralCube
from ..scp.effects import Checkpoint, Compute, Recv, Send
from ..scp.errors import ReceiveTimeout
from ..scp.runtime import Context
from .messages import (PHASE_COVARIANCE, PHASE_SCREEN, PHASE_TRANSFORM,
                       PORT_TASK, StopWork, TaskAssignment, TaskResult,
                       WorkerHello)
from .partition import decompose, reassemble_composite
from .pipeline import FusionResult
from .steps.colormap import component_statistics
from .steps.screening import merge_flops, merge_unique_sets
from .steps.statistics import (covariance_combine_flops, covariance_matrix,
                               mean_flops, mean_vector, partition_pixel_matrix)
from .steps.transform import (eigendecomposition_flops, project,
                              projection_flops, transformation_matrix)


def _phase_runner(ctx: Context, tasks: Sequence[TaskAssignment], phase: str,
                  worker_names: Sequence[str], prefetch: int,
                  reassign_timeout: Optional[float]) -> Generator:
    """Distribute ``tasks`` to workers and collect every result (sub-generator).

    Returns a dict ``task_id -> TaskResult``.  Implements prefetching,
    rejoin handling and (optionally) timeout-driven reassignment.
    """
    pending = deque(tasks)
    results: Dict[int, TaskResult] = {}
    assigned: Dict[str, List[TaskAssignment]] = {w: [] for w in worker_names}

    def assign_to(worker: str) -> Generator:
        while pending and len(assigned[worker]) < prefetch:
            task = pending.popleft()
            assigned[worker].append(task)
            yield Send(dst=worker, port=PORT_TASK, payload=task, key=task.dedup_key())

    # Initial push, round-robin one task per worker per round so that when the
    # decomposition is coarse (#sub-cubes close to #workers) every worker
    # receives work before any worker receives its prefetch backlog.
    for _ in range(max(prefetch, 1)):
        for worker in worker_names:
            if not pending:
                break
            if len(assigned[worker]) >= prefetch:
                continue
            task = pending.popleft()
            assigned[worker].append(task)
            yield Send(dst=worker, port=PORT_TASK, payload=task, key=task.dedup_key())

    while len(results) < len(tasks):
        try:
            envelope = yield Recv(port=None, timeout=reassign_timeout)
        except ReceiveTimeout:
            # Reassignment path: redistribute everything not yet completed to
            # the workers with the least outstanding work.  Duplicate results
            # that eventually arrive are suppressed by their keys.
            outstanding = [t for worker in worker_names for t in assigned[worker]
                           if t.task_id not in results]
            for task in outstanding:
                target = min(worker_names, key=lambda w: len(assigned[w]))
                if task not in assigned[target]:
                    assigned[target].append(task)
                yield Send(dst=target, port=PORT_TASK, payload=task, key=task.dedup_key())
            continue

        message = envelope.payload
        if isinstance(message, WorkerHello):
            worker = message.worker
            if worker not in assigned:
                assigned[worker] = []
            if message.incarnation > 0:
                # A regenerated replica: re-send everything this logical
                # worker still owes so no assignment is lost with the failure.
                for task in assigned[worker]:
                    if task.task_id not in results:
                        yield Send(dst=worker, port=PORT_TASK, payload=task,
                                   key=task.dedup_key())
            yield from assign_to(worker)
            continue

        if isinstance(message, TaskResult):
            if message.phase != phase or message.task_id in results:
                continue
            results[message.task_id] = message
            worker = message.worker
            if worker in assigned:
                assigned[worker] = [t for t in assigned[worker]
                                    if t.task_id != message.task_id]
                yield from assign_to(worker)
            continue
        # Anything else (late control traffic) is ignored.

    return results


def manager_program(ctx: Context, *, cube: HyperspectralCube,
                    config: Optional[FusionConfig] = None,
                    worker_names: Sequence[str] = (),
                    n_components: int = 3,
                    prefetch: int = 2,
                    reassign_timeout: Optional[float] = None) -> Generator:
    """Generator program executed by the manager thread.

    Parameters
    ----------
    ctx:
        Backend-provided context.
    cube:
        The hyper-spectral cube to fuse (the manager "represents the sensor
        itself" in the paper, so it owns the data).
    config:
        Fusion configuration; ``config.partition`` controls the sub-cube
        decomposition and therefore the granularity experiment.
    worker_names:
        Logical names of the worker threads.
    n_components:
        Principal components retained in the output (>= 3 for colour
        mapping).  The basis keeps the full eigenvector matrix (the paper's
        formulation); the workers' kernel multiplies only the retained
        components.
    prefetch:
        Maximum number of tasks kept outstanding per worker; 2 or more
        enables the computation/communication overlap of Section 3.
    reassign_timeout:
        Optional seconds after which the manager re-distributes outstanding
        work.  Left ``None`` in resilient runs so recovery is demonstrated by
        the resiliency library rather than masked by the application.
    """
    config = config or FusionConfig()
    if not worker_names:
        raise ValueError("manager_program needs at least one worker name")
    if n_components < 3:
        raise ValueError("n_components must be >= 3")
    worker_names = list(worker_names)
    screening = config.screening
    # Clamped like the sequential and pipeline engines: a cube with fewer
    # rows than sub-cubes decomposes into one-row blocks, some workers idle.
    subcubes = min(max(config.partition.effective_subcubes, len(worker_names)),
                   cube.rows)
    subcube_specs = decompose(cube.rows, subcubes)
    bands = cube.bands

    # ------------------------------------------------------------- phase 1-2
    screen_tasks = [
        TaskAssignment(phase=PHASE_SCREEN, task_id=spec.task_id,
                       data={"cube": cube}, spec=spec)
        for spec in subcube_specs
    ]
    screen_results = yield from _phase_runner(ctx, screen_tasks, PHASE_SCREEN,
                                              worker_names, prefetch, reassign_timeout)
    unique_sets = [screen_results[i].data["unique"] for i in sorted(screen_results)]
    total_members = int(sum(u.shape[0] for u in unique_sets))

    unique = yield Compute(fn=merge_unique_sets,
                           args=(unique_sets, screening.angle_threshold),
                           kwargs={"max_unique": screening.max_unique,
                                   "rescreen": screening.rescreen_merge,
                                   "compute": config.compute},
                           flops=lambda merged, n=total_members, b=bands,
                               r=screening.rescreen_merge:
                               merge_flops(n, merged.shape[0], b, rescreen=r),
                           phase="merge")
    yield Checkpoint({"stage": "screened", "unique_size": int(unique.shape[0])})

    # --------------------------------------------------------------- phase 3
    mean = yield Compute(fn=mean_vector, args=(unique,),
                         flops=mean_flops(unique.shape[0], bands), phase="mean")

    # ------------------------------------------------------------- phase 4-5
    covariance_parts = partition_pixel_matrix(unique, len(worker_names))
    covariance_tasks = [
        TaskAssignment(phase=PHASE_COVARIANCE, task_id=index,
                       data={"pixels": part, "mean": mean})
        for index, part in enumerate(covariance_parts)
    ]
    covariance_results = yield from _phase_runner(ctx, covariance_tasks, PHASE_COVARIANCE,
                                                  worker_names, prefetch, reassign_timeout)
    partial_sums = [covariance_results[i].data["cov_sum"]
                    for i in sorted(covariance_results)]
    covariance = yield Compute(fn=covariance_matrix,
                               args=(partial_sums, unique.shape[0]),
                               flops=covariance_combine_flops(len(partial_sums), bands),
                               phase="covariance_combine")

    # --------------------------------------------------------------- phase 6
    basis = yield Compute(fn=transformation_matrix, args=(covariance, mean),
                          kwargs={"n_components": bands},
                          flops=eigendecomposition_flops(bands),
                          phase="eigendecomposition")

    # Global colour-stretch statistics from the screened unique set, so every
    # worker normalises its block with identical constants.  Only the three
    # components used by the colour mapping are needed, so the manager
    # projects onto a truncated basis -- this keeps the extra sequential work
    # negligible (it is not part of the paper's algorithm).
    stats_basis = basis.leading(3)
    unique_components = yield Compute(fn=project, args=(unique, stats_basis),
                                      flops=projection_flops(unique.shape[0], bands, 3),
                                      phase="component_stats")
    stretch_mean, stretch_std = component_statistics(unique_components)
    yield Checkpoint({"stage": "basis", "unique_size": int(unique.shape[0])})

    # ------------------------------------------------------------- phase 7-8
    transform_tasks = [
        TaskAssignment(phase=PHASE_TRANSFORM, task_id=spec.task_id,
                       data={"cube": cube, "basis": basis,
                             "stretch_mean": stretch_mean, "stretch_std": stretch_std,
                             "keep_components": n_components},
                       spec=spec)
        for spec in subcube_specs
    ]
    transform_results = yield from _phase_runner(ctx, transform_tasks, PHASE_TRANSFORM,
                                                 worker_names, prefetch, reassign_timeout)

    rgb_blocks = [(transform_results[i].data["spec"], transform_results[i].data["rgb"])
                  for i in sorted(transform_results)]
    component_blocks = [(transform_results[i].data["spec"],
                         transform_results[i].data["components"])
                        for i in sorted(transform_results)]
    composite = reassemble_composite(rgb_blocks, cube.rows, cube.cols, channels=3)
    components = reassemble_composite(component_blocks, cube.rows, cube.cols,
                                      channels=n_components)

    # --------------------------------------------------------------- shutdown
    stop = StopWork()
    for worker in worker_names:
        yield Send(dst=worker, port=PORT_TASK, payload=stop, key=stop.dedup_key())

    metadata = {
        "mode": "distributed",
        "workers": len(worker_names),
        "subcubes": subcubes,
        "prefetch": prefetch,
        "bands": bands,
        "rows": cube.rows,
        "cols": cube.cols,
        "stretch_mean": stretch_mean,
        "stretch_std": stretch_std,
        "compute_dtype": config.compute_dtype,
        "compute": config.compute,
    }
    return FusionResult(composite=composite, components=components, basis=basis,
                        unique_set_size=int(unique.shape[0]), phase_flops={},
                        metadata=metadata)


__all__ = ["manager_program"]
