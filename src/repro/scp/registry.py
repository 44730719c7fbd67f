"""Backend table: named execution backends with spec parsing.

Every caller that wants an execution backend (the distributed and resilient
engines, the CLI) resolves it through one closed table instead of its own
``if backend == "sim": ... elif ...`` ladder:

* :class:`BackendSpec` -- parsed form of a spec string such as
  ``"process"``, ``"process:8"``, ``"process:fork"`` or ``"sim:sun-ultra"``,
* :class:`BackendContext` -- run-scoped information a factory may need
  (worker count, explicit cluster model, protocol cost model, manager name),
* :func:`create_backend` -- spec + context -> :class:`~repro.scp.runtime.
  Backend` instance.

Spec grammar
------------
``<name>[:<token>...]`` where each colon-separated token is either an
integer (a *worker-count hint*, e.g. ``"process:8"``; picked up by callers
such as :func:`repro.fuse` to size the partition) or a *variant* keyword:

=========  =======================================  =====================
backend    variants                                 meaning
=========  =======================================  =====================
sim        sun-ultra (default), switched, smp       simulated cluster preset
local      --                                       host threads (GIL-bound)
process    spawn (default), fork, forkserver        multiprocessing start method
socket     --                                       node-agent workers over TCP
                                                    (pipeline engine only)
=========  =======================================  =====================

Unknown backend names and variants raise :class:`ValueError` messages that
list the valid ones, so a typo is a one-line fix rather than a dig through
the source.  Adding a backend is one factory plus one :data:`_BACKENDS` line.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..cluster.machine import Cluster
from ..cluster.presets import shared_memory_smp, sun_ultra_lan, switched_lan
from .local_backend import LocalBackend
from .process_backend import ProcessBackend
from .runtime import Backend
from .sim_backend import ProtocolConfig, SimBackend

#: Simulated-cluster presets addressable as ``"sim:<variant>"``.
SIM_PRESETS: Dict[str, Callable[[int], Cluster]] = {
    "sun-ultra": sun_ultra_lan,
    "switched": switched_lan,
    "smp": shared_memory_smp,
}


@dataclass
class BackendContext:
    """Run-scoped inputs a backend factory may consult.

    The context is deliberately mutable: the ``sim`` factory writes the
    cluster it resolved (preset sized to the worker count) back into
    ``cluster`` so the caller -- e.g. the resilient engine, which needs the
    cluster model for placement and camouflage -- can read it afterwards.
    """

    #: Worker-thread count of the run (sizes simulated cluster presets).
    workers: int = 4
    #: Explicit cluster model; when ``None`` the sim factory resolves a preset.
    cluster: Optional[Cluster] = None
    #: Resiliency protocol cost model charged by the simulated backend.
    protocol: Optional[ProtocolConfig] = None
    #: Whether replica results may be shared instead of recomputed (sim).
    share_replica_results: bool = True
    #: Logical name of the manager thread, pinned to the ``"manager"`` node
    #: when the resolved cluster has one.
    manager: Optional[str] = None


#: A backend factory builds a Backend from a parsed spec and a context.
BackendFactory = Callable[["BackendSpec", BackendContext], Backend]


def backend_names() -> List[str]:
    """Sorted names of every backend."""
    return sorted(_BACKENDS)


def _backend_entry(name: str) -> Tuple[Tuple[str, ...], Optional[BackendFactory]]:
    """``(variants, factory)`` of backend ``name``; an unknown (or
    unhashable) name raises a :class:`ValueError` listing the backends."""
    try:
        return _BACKENDS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown backend {name!r}; registered backends: "
                         f"{', '.join(backend_names())}") from None


@dataclass(frozen=True)
class BackendSpec:
    """Parsed form of a backend spec string.

    Attributes
    ----------
    name:
        Backend name (``"sim"``, ``"local"``, ``"process"``, ``"socket"``).
    variant:
        Optional variant keyword (simulated-cluster preset, process start
        method); ``None`` selects the backend's default.
    workers:
        Optional worker-count hint from an integer token (``"process:8"``).
        The table itself never sizes thread counts; the hint is consumed
        by higher layers (:func:`repro.fuse` partition sizing).
    """

    name: str
    variant: Optional[str] = None
    workers: Optional[int] = None

    @classmethod
    def parse(cls, spec: Union[str, "BackendSpec"]) -> "BackendSpec":
        """Parse ``"name[:token...]"`` into a validated :class:`BackendSpec`."""
        if isinstance(spec, BackendSpec):
            _backend_entry(spec.name)  # unknown names raise, listing the table
            return spec
        if not isinstance(spec, str) or not spec.strip():
            raise ValueError(f"backend spec must be a non-empty string or BackendSpec, "
                             f"got {spec!r}; registered backends: "
                             f"{', '.join(backend_names())}")
        tokens = [token.strip() for token in spec.split(":")]
        name = tokens[0]
        allowed, _ = _backend_entry(name)
        variant: Optional[str] = None
        workers: Optional[int] = None
        for token in tokens[1:]:
            if not token:
                # An empty or whitespace-only token is a malformed spec, not
                # a separator to skip: "process::8" is most likely a typo'd
                # variant, and silently ignoring it would accept it.
                raise ValueError(
                    f"backend spec {spec!r} contains an empty token; write "
                    f"'name[:variant][:workers]' without empty segments")
            if token.isdigit():
                if workers is not None:
                    raise ValueError(f"backend spec {spec!r} gives two worker counts")
                workers = int(token)
                if workers < 1:
                    raise ValueError(f"backend spec {spec!r}: worker count must be >= 1")
            else:
                if variant is not None:
                    raise ValueError(f"backend spec {spec!r} gives two variants")
                variant = token
        if variant is not None and variant not in allowed:
            raise ValueError(f"backend {name!r} has no variant {variant!r}; "
                             f"allowed variants: {', '.join(allowed) or 'none'}")
        return cls(name=name, variant=variant, workers=workers)

    def __str__(self) -> str:
        tokens = [self.name]
        if self.variant is not None:
            tokens.append(self.variant)
        if self.workers is not None:
            tokens.append(str(self.workers))
        return ":".join(tokens)


def create_backend(spec: Union[str, BackendSpec, Backend],
                   context: Optional[BackendContext] = None) -> Backend:
    """Build a :class:`Backend` from ``spec``.

    Already-constructed :class:`Backend` instances pass through unchanged,
    so call sites can accept "spec or instance" uniformly.
    """
    if isinstance(spec, Backend):
        return spec
    parsed = BackendSpec.parse(spec)
    _, factory = _backend_entry(parsed.name)
    if factory is None:  # socket
        raise ValueError(
            "backend 'socket' provides stage-task workers for the streaming "
            "pipeline engine only and has no SCP program runtime; use "
            "engine='pipeline' (e.g. backend='socket:4'), or pick 'sim', "
            "'local' or 'process' for the batch engines")
    return factory(parsed, context if context is not None else BackendContext())


def _make_sim_backend(spec: BackendSpec, context: BackendContext) -> SimBackend:
    if context.cluster is None:
        preset = SIM_PRESETS[spec.variant or "sun-ultra"]
        context.cluster = preset(max(spec.workers or context.workers, 1))
    pinned = ({context.manager: "manager"}
              if context.manager and "manager" in context.cluster.node_names else None)
    return SimBackend(context.cluster, pinned=pinned, protocol=context.protocol,
                      share_replica_results=context.share_replica_results)


def _make_local_backend(spec: BackendSpec, context: BackendContext) -> LocalBackend:
    return LocalBackend()


def _make_process_backend(spec: BackendSpec, context: BackendContext) -> ProcessBackend:
    method = spec.variant or "spawn"
    if method not in multiprocessing.get_all_start_methods():
        raise ValueError(f"start method {method!r} is not available on this platform; "
                         f"available: {', '.join(multiprocessing.get_all_start_methods())}")
    return ProcessBackend(start_method=method)


#: ``name -> (allowed variant keywords, factory)``.  ``socket`` has no
#: factory: its node-agent workers run stage tasks, not SCP programs, and the
#: pipeline engine reaches them through
#: :func:`repro.scp.transport.transport_for_spec`.
_BACKENDS: Dict[str, Tuple[Tuple[str, ...], Optional[BackendFactory]]] = {
    "sim": (tuple(SIM_PRESETS), _make_sim_backend),
    "local": ((), _make_local_backend),
    "process": (("spawn", "fork", "forkserver"), _make_process_backend),
    "socket": ((), None),
}


__all__ = [
    "SIM_PRESETS",
    "BackendContext",
    "BackendSpec",
    "backend_names",
    "create_backend",
]
