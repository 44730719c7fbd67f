"""The four benchmark workloads and the closed loop that drives them.

All four are *closed* loops: a caller of ``fuse()`` waits for its composite
before asking for the next one, so a slower system simply receives less load.
That is how the library is used (a monitoring loop, a parameter sweep, a
stream consumer); arrival-schedule studies stay with ``repro-fusion
simulate``.  One generator thread drives every workload, on ``workers=2``
(the build host has two cores), float64, ``compute="numpy"``.

Each workload exists to put the weight on a different layer, so that a
change to one layer has a workload that exercises it and one that bypasses
it -- see ``README.md`` for the full table and ``WORKLOADS[...].why``.
"""

from __future__ import annotations

import hashlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

import repro
from repro.api.request import FusionRequest
from repro.data.hydice import HydiceConfig, HydiceGenerator
from repro.data.shared import owned_segment_names

from .trace import TraceRecorder

#: Stage names the kill storm rotates through (the executor's stage labels).
KILL_STAGES = ("screen", "covariance", "project")

#: Options every workload's session is opened with.
COMMON_OPTIONS: Mapping[str, Any] = {"compute_dtype": "float64", "compute": "numpy"}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: what runs, on what, and why it exists."""

    name: str
    why: str
    engine: str
    backend: str
    rows: int
    cols: int
    bands: int
    cubes: int
    #: Requests the single generator thread keeps outstanding (1 = a plain
    #: ``session.fuse`` loop; more = ``session.submit`` futures).
    outstanding: int = 1
    #: ``inject_kill`` before every n-th request (0 = no chaos).
    kill_every: int = 0
    options: Mapping[str, Any] = field(default_factory=dict)

    def session_options(self) -> Dict[str, Any]:
        return {"engine": self.engine, "backend": self.backend,
                **COMMON_OPTIONS, **self.options}

    def resolved_config(self, cube: Any) -> Any:
        """The config the session resolves for ``cube`` -- what the
        sequential reference must run with for bit-identity to be meaningful
        (the unique-set union follows the partition)."""
        return FusionRequest(cube=cube, **self.session_options()).resolved_config()


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="pipe_acceptance",
        why="256x256x64 acceptance scene on pipeline x process:2, 4 cached cubes, 1 client: "
            "kernels and hop waits both matter, so a kernel gain and a transport gain both show",
        engine="pipeline", backend="process:2", rows=256, cols=256, bands=64, cubes=4),
    Workload(
        name="pipe_small_overlap",
        why="64x64x32 on pipeline x process:2, 12 cubes churning an 8-entry placement cache, "
            "4 outstanding submits: kernels ~2%, executor/transport/session dominate",
        engine="pipeline", backend="process:2", rows=64, cols=64, bands=32, cubes=12,
        outstanding=4, options={"max_inflight": 4}),
    Workload(
        name="socket_killstorm",
        why="128x128x64 on pipeline x socket:2 with a SIGKILL before every 4th request, "
            "rotating stages: second transport plus recovery path, p80 is recovery latency",
        engine="pipeline", backend="socket:2", rows=128, cols=128, bands=64, cubes=4,
        kill_every=4),
    Workload(
        name="resilient_repl2",
        why="128x128x64 on resilient x process:2 at replication 2: the paper's cost-of-resilience "
            "cell on the SCP Backend substrate, bypassing scp.stages and scp.transport",
        engine="resilient", backend="process:2", rows=128, cols=128, bands=64, cubes=4,
        options={"replication": 2}),
)}


# ---------------------------------------------------------------------------
# Inputs: seeded scenes, their digests, and the sequential references
# ---------------------------------------------------------------------------

def generate_cubes(workload: Workload, seed: int) -> List[Any]:
    """The workload's scenes; the same ``seed`` gives the same cubes."""
    return [HydiceGenerator(HydiceConfig(bands=workload.bands, rows=workload.rows,
                                         cols=workload.cols,
                                         seed=seed * 1000 + index)).generate()
            for index in range(workload.cubes)]


def cube_digest(cube: Any) -> str:
    """sha256 of a cube's samples and wavelengths: a change to
    ``data.hydice`` that alters the workload shows up here."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(cube.data).tobytes())
    digest.update(np.ascontiguousarray(cube.wavelengths_nm).tobytes())
    return digest.hexdigest()


def sequential_reference(workload: Workload, cube: Any) -> Tuple[np.ndarray, float, int]:
    """``(composite, seconds, unique_set_size)`` of the plain single-process
    run of the same problem at the same resolved config."""
    config = workload.resolved_config(cube)
    t0 = time.perf_counter()
    report = repro.fuse(cube, engine="sequential", config=config)
    return report.composite, time.perf_counter() - t0, report.unique_set_size


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

@dataclass
class RequestRecord:
    """What the loop keeps of one request (reports themselves are dropped:
    a 256x256 report holds tens of MiB of components)."""

    latency: float
    #: Completion instant, seconds since the window started.
    done: float
    ok: bool
    stage_seconds: Dict[str, float]
    stage_invocations: Dict[str, int]
    stage_tasks: int
    tiles: int
    counters: Dict[str, float]


@dataclass
class WindowResult:
    """Everything one measured window produced."""

    records: List[RequestRecord]
    elapsed: float
    errors: List[str]
    retries: int = 0
    kills_requested: Dict[str, int] = field(default_factory=dict)
    kills_delivered: Dict[str, int] = field(default_factory=dict)
    kills_cancelled: int = 0
    segments_created: int = 0

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(1 for record in self.records if not record.ok)

    @property
    def latencies(self) -> List[float]:
        """Latencies of the requests that produced a verified composite; a
        failed request has no latency to report (it counts as missing)."""
        return [record.latency for record in self.records if record.ok]


def _record(report: Any, latency: float, done: float, reference: np.ndarray) -> RequestRecord:
    metadata = report.result.metadata
    metrics = report.metrics
    return RequestRecord(
        latency=latency,
        done=done,
        ok=bool(np.array_equal(report.composite, reference)),
        stage_seconds={name: timing.seconds
                       for name, timing in report.stage_timings.items()},
        stage_invocations={name: timing.invocations
                           for name, timing in report.stage_timings.items()},
        stage_tasks=int(metadata.get("stage_tasks", 0)),
        tiles=int(metadata.get("tiles", 0)),
        counters={"messages": float(metrics.messages),
                  "bytes_sent": float(metrics.bytes_sent),
                  "duplicates_suppressed": float(metrics.duplicate_messages_suppressed),
                  "replicas_regenerated": float(metrics.replicas_regenerated)})


def _failed(done: float) -> RequestRecord:
    return RequestRecord(latency=0.0, done=done, ok=False, stage_seconds={},
                         stage_invocations={}, stage_tasks=0, tiles=0, counters={})


def drive(session: Any, workload: Workload, cubes: Sequence[Any],
          references: Sequence[np.ndarray], *, seconds: float,
          first_request: int = 0, min_requests: int = 0,
          recorder: Optional[TraceRecorder] = None,
          watch_segments: bool = False) -> WindowResult:
    """Run the workload's closed loop for ``seconds`` (and at least
    ``min_requests`` requests); verify every composite as it arrives.

    ``first_request`` is how many requests the session has served before
    this window: the cube cycle and the kill schedule continue from there,
    so a window never starts on cubes the previous one left in the cache.

    Latency is submit -> report.  With several requests outstanding the
    completion instant is stamped by a done-callback on the resolving
    thread, so time the generator spends verifying an earlier composite is
    not charged to a later request.  ``elapsed`` runs to the last
    completion, so throughput is not quantised by the window edge.
    """
    recorder = recorder if recorder is not None else TraceRecorder(enabled=False)
    executor = session.stage_executor() if workload.kill_every else None
    retries_before = executor.retries if executor is not None else 0
    kills_before = dict(executor.kills_delivered) if executor is not None else {}
    known_segments = set(owned_segment_names()) if watch_segments else set()
    segments_created = 0

    records: List[RequestRecord] = []
    errors: List[str] = []
    kills_requested: Dict[str, int] = {}
    submitted = 0
    start = time.perf_counter()
    deadline = start + seconds
    last_done = start

    def more() -> bool:
        return submitted < min_requests or time.perf_counter() < deadline

    def finish(index: int, t0: float, t1: float, report: Any,
               error: Optional[BaseException]) -> None:
        nonlocal segments_created, last_done
        last_done = max(last_done, t1)
        if error is not None:
            errors.append(f"request {index}: {error!r}")
            records.append(_failed(t1 - start))
            recorder.add("request", "workload", t0, t1, request=index, failed=True)
            return
        record = _record(report, t1 - t0, t1 - start, references[index % len(cubes)])
        records.append(record)
        if not record.ok:
            errors.append(f"request {index}: composite differs from the sequential reference")
        root = recorder.add("request", "workload", t0, t1, request=index,
                            cube=index % len(cubes), ok=record.ok)
        recorder.add_stage_children(root, index, t0, list(record.stage_seconds.items()),
                                    layer=f"core.{workload.engine}")
        if watch_segments:
            owned = set(owned_segment_names())
            segments_created += len(owned - known_segments)
            known_segments.update(owned)

    def before_submit(index: int) -> None:
        if executor is not None and index % workload.kill_every == workload.kill_every - 1:
            stage = KILL_STAGES[(index // workload.kill_every) % len(KILL_STAGES)]
            executor.inject_kill(stage)
            kills_requested[stage] = kills_requested.get(stage, 0) + 1

    if workload.outstanding == 1:
        while more():
            index = first_request + submitted
            submitted += 1
            before_submit(index)
            t0 = time.perf_counter()
            try:
                report, error = session.fuse(cubes[index % len(cubes)]), None
            except Exception as err:  # noqa: BLE001 - a failed request is a data point
                report, error = None, err
            finish(index, t0, time.perf_counter(), report, error)
    else:
        window: Deque[Tuple[int, float, Any, List[float]]] = deque()
        while True:
            while len(window) < workload.outstanding and more():
                index = first_request + submitted
                submitted += 1
                before_submit(index)
                done_at: List[float] = []
                t0 = time.perf_counter()
                future = session.submit(cubes[index % len(cubes)])
                future.add_done_callback(
                    lambda _f, stamp=done_at: stamp.append(time.perf_counter()))
                window.append((index, t0, future, done_at))
            if not window:
                break
            index, t0, future, done_at = window.popleft()
            try:
                report, error = future.result(), None
            except Exception as err:  # noqa: BLE001 - a failed request is a data point
                report, error = None, err
            finish(index, t0, done_at[0] if done_at else time.perf_counter(), report, error)

    result = WindowResult(records=records, elapsed=last_done - start, errors=errors,
                          segments_created=segments_created)
    if executor is not None:
        # A reused executor must never carry a kill into the next window.
        result.kills_requested = kills_requested
        result.kills_cancelled = int(sum(executor.cancel_kills().values()))
        result.retries = executor.retries - retries_before
        result.kills_delivered = {
            stage: count - kills_before.get(stage, 0)
            for stage, count in executor.kills_delivered.items()
            if count - kills_before.get(stage, 0) > 0}
    return result
