"""Unified fusion API: one facade over named engines and backends.

This package is the stable surface of the library:

* :func:`repro.fuse` -- one-shot fusion of a cube on any engine
  (``sequential`` / ``distributed`` / ``resilient`` / ``pipeline``) and
  backend (``sim`` / ``local`` / ``process`` / ``socket``),
* :func:`repro.open_session` -- a context-managed session that keeps the
  worker-process pool and shared-memory cube placement alive across
  repeated :meth:`~repro.api.session.FusionSession.fuse` calls,
* :func:`get_engine` / :func:`create_backend` -- name lookups in the closed
  engine and backend tables (:mod:`repro.api.engines`,
  :mod:`repro.scp.registry`); a new engine or backend is one class or
  factory plus one table entry, and the CLI lists it at once.

See the package README for the engine x backend support matrix.
"""

from ..scp.registry import (BackendContext, BackendSpec, backend_names,
                            create_backend)
from .engines import FusionEngine, engine_names, get_engine
from .facade import fuse, run_request
from .request import FusionReport, FusionRequest
from .session import FusionSession, open_session

__all__ = [
    "BackendContext",
    "BackendSpec",
    "backend_names",
    "create_backend",
    "FusionEngine",
    "engine_names",
    "get_engine",
    "fuse",
    "run_request",
    "FusionReport",
    "FusionRequest",
    "FusionSession",
    "open_session",
]
