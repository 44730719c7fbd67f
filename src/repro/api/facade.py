"""`repro.fuse`: the one-shot front door of the library.

Every engine x backend combination is reachable through this single
function; the CLI, the experiments and the benchmarks are all thin layers
over it.  A one-shot call is a :class:`~repro.api.session.FusionSession` of
one request, closed on return; for repeated workloads,
:func:`repro.open_session` keeps that setup alive between calls.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Union

from ..config import FusionConfig
from ..data.cube import HyperspectralCube
from ..scp.registry import BackendSpec
from ..scp.runtime import Backend
from .engines import get_engine
from .request import FusionReport, FusionRequest
from .session import FusionSession


def run_request(request: FusionRequest) -> FusionReport:
    """Execute an already-built :class:`FusionRequest` on a session of its
    own: nothing pre-spawned, one placement, everything released on return.
    """
    if request.max_inflight is not None:
        raise ValueError(
            "max_inflight schedules concurrent cubes across a session "
            "stream, which a one-shot run does not have; use "
            "repro.open_session(engine='pipeline', "
            "max_inflight=...).fuse_stream(cubes)")
    options = {field.name: getattr(request, field.name)
               for field in dataclasses.fields(request)
               if field.name not in ("cube", "engine", "backend")}
    backend = request.backend
    if backend is None:
        backend = get_engine(request.engine).default_backend
    with FusionSession(engine=request.engine, backend=backend, warm=False,
                       max_placements=1, **options) as session:
        return session.fuse(request.cube)


def fuse(cube: HyperspectralCube, *,
         engine: str = "sequential",
         backend: Union[str, BackendSpec, Backend, None] = None,
         workers: Optional[int] = None,
         subcubes: Optional[int] = None,
         config: Optional[FusionConfig] = None,
         **options: Any) -> FusionReport:
    """Fuse ``cube`` into a colour composite with one call.

    Parameters
    ----------
    cube:
        The hyper-spectral cube to fuse.
    engine:
        Registered engine name: ``"sequential"`` (default, the in-process
        reference), ``"distributed"``, ``"resilient"`` or ``"pipeline"``
        (streaming tiles on a stage executor).
        :func:`repro.engine_names` lists what is registered.
    backend:
        Backend spec for backend-using engines -- ``"sim"`` (default),
        ``"local"``, ``"process"``, or a parameterised spec such as
        ``"process:8"`` (worker-count hint), ``"process:fork"`` (start
        method), ``"sim:switched"`` (cluster preset) or ``"socket:4"``
        (workers behind a localhost node agent; pipeline engine only).
        Already-built :class:`~repro.scp.runtime.Backend` instances are
        accepted too by the batch engines.
        :func:`repro.backend_names` lists what is registered.
    workers / subcubes:
        Partition overrides (defaults: 4 workers, ``subcubes == workers``).
    config:
        Full :class:`~repro.config.FusionConfig` when the shorthand knobs
        are not enough.
    options:
        Any further :class:`~repro.api.request.FusionRequest` field --
        ``n_components``, ``prefetch``, ``cluster``, ``compute``,
        ``compute_dtype``; for the resilient engine ``replication``,
        ``attack``, ``camouflage_period``; for the pipeline engine
        ``tile_rows``.

    Returns
    -------
    FusionReport
        Unified result: ``report.composite``, ``report.metrics``,
        ``report.elapsed_seconds``, plus the raw run and resiliency report
        where applicable.

    Examples
    --------
    >>> report = repro.fuse(cube)                                   # sequential
    >>> report = repro.fuse(cube, engine="distributed", workers=8)  # simulated
    >>> report = repro.fuse(cube, engine="distributed", backend="process:4")
    >>> report = repro.fuse(cube, engine="resilient", attack=scenario)
    >>> report = repro.fuse(cube, engine="pipeline", backend="socket:4")
    """
    unknown = set(options) - set(FusionRequest.__dataclass_fields__)
    if unknown:
        valid = sorted(set(FusionRequest.__dataclass_fields__) - {"cube"})
        raise ValueError(f"unknown fuse option(s) {sorted(unknown)}; "
                         f"valid options: {', '.join(valid)}")
    request = FusionRequest(cube=cube, engine=engine, backend=backend,
                            workers=workers, subcubes=subcubes, config=config,
                            **options)
    return run_request(request)


__all__ = ["fuse", "run_request"]
