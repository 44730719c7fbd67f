"""Backend registry: named execution backends with spec parsing.

Every caller that wants an execution backend (the distributed and resilient
engines, the CLI) resolves it through a single registry
instead of its own ``if backend == "sim": ... elif ...`` ladder:

* :func:`register_backend` -- decorator adding a named backend factory,
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
list what *is* registered, so a typo is a one-line fix rather than a dig
through the source.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from ..cluster.machine import Cluster
from ..cluster.presets import shared_memory_smp, sun_ultra_lan, switched_lan
from ..registry import Registry
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


@dataclass(frozen=True)
class _BackendEntry:
    factory: BackendFactory
    #: Allowed variant keywords; ``None`` means any, ``()`` means none.
    variants: Optional[Tuple[str, ...]]
    description: str


_BACKENDS: Registry[_BackendEntry] = Registry("backend")


def register_backend(name: str, *, variants: Optional[Tuple[str, ...]] = (),
                     description: str = "") -> Callable[[BackendFactory], BackendFactory]:
    """Register ``factory`` under ``name`` (decorator).

    ``variants`` lists the keywords accepted after the colon in a spec
    string; the empty tuple (default) rejects any variant and ``None``
    accepts all.
    """
    def decorator(factory: BackendFactory) -> BackendFactory:
        _BACKENDS.add(name, _BackendEntry(factory=factory, variants=variants,
                                          description=description))
        return factory
    return decorator


def backend_names() -> List[str]:
    """Sorted names of every registered backend."""
    return _BACKENDS.names()


def describe_backends() -> Dict[str, str]:
    """``name -> one-line description`` for help text and docs."""
    return {name: _BACKENDS.get(name).description for name in backend_names()}


@dataclass(frozen=True)
class BackendSpec:
    """Parsed form of a backend spec string.

    Attributes
    ----------
    name:
        Registered backend name (``"sim"``, ``"local"``, ``"process"``, ...).
    variant:
        Optional variant keyword (simulated-cluster preset, process start
        method); ``None`` selects the backend's default.
    workers:
        Optional worker-count hint from an integer token (``"process:8"``).
        The registry itself never sizes thread counts; the hint is consumed
        by higher layers (:func:`repro.fuse` partition sizing).
    """

    name: str
    variant: Optional[str] = None
    workers: Optional[int] = None

    @classmethod
    def parse(cls, spec: Union[str, "BackendSpec"]) -> "BackendSpec":
        """Parse ``"name[:token...]"`` into a validated :class:`BackendSpec`."""
        if isinstance(spec, BackendSpec):
            _BACKENDS.get(spec.name)  # unknown names raise, listing the registry
            return spec
        if not isinstance(spec, str) or not spec.strip():
            raise ValueError(f"backend spec must be a non-empty string or BackendSpec, "
                             f"got {spec!r}; registered backends: "
                             f"{', '.join(backend_names())}")
        tokens = [token.strip() for token in spec.split(":")]
        name = tokens[0]
        entry = _BACKENDS.get(name)
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
        if variant is not None and entry.variants is not None:
            if variant not in entry.variants:
                allowed = ", ".join(entry.variants) if entry.variants else "none"
                raise ValueError(f"backend {name!r} has no variant {variant!r}; "
                                 f"allowed variants: {allowed}")
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
    context = context if context is not None else BackendContext()
    return _BACKENDS.get(parsed.name).factory(parsed, context)


# ---------------------------------------------------------------------------
# Built-in backends
# ---------------------------------------------------------------------------

@register_backend("sim", variants=tuple(SIM_PRESETS),
                  description="discrete-event simulated cluster (virtual time); "
                              "variants: " + ", ".join(SIM_PRESETS))
def _make_sim_backend(spec: BackendSpec, context: BackendContext) -> SimBackend:
    if context.cluster is None:
        preset = SIM_PRESETS[spec.variant or "sun-ultra"]
        context.cluster = preset(max(spec.workers or context.workers, 1))
    pinned = ({context.manager: "manager"}
              if context.manager and "manager" in context.cluster.node_names else None)
    return SimBackend(context.cluster, pinned=pinned, protocol=context.protocol,
                      share_replica_results=context.share_replica_results)


@register_backend("local", variants=(),
                  description="real host threads (genuine concurrency, GIL-bound compute)")
def _make_local_backend(spec: BackendSpec, context: BackendContext) -> LocalBackend:
    return LocalBackend()


@register_backend("process", variants=("spawn", "fork", "forkserver"),
                  description="real OS processes with shared-memory cube placement; "
                              "variants: spawn, fork, forkserver")
def _make_process_backend(spec: BackendSpec, context: BackendContext) -> ProcessBackend:
    method = spec.variant or "spawn"
    if method not in multiprocessing.get_all_start_methods():
        raise ValueError(f"start method {method!r} is not available on this platform; "
                         f"available: {', '.join(multiprocessing.get_all_start_methods())}")
    return ProcessBackend(start_method=method)


@register_backend("socket", variants=(),
                  description="localhost node-agent worker processes over TCP "
                              "(streaming pipeline engine only); the stepping "
                              "stone toward multi-host cluster specs")
def _make_socket_backend(spec: BackendSpec, context: BackendContext) -> Backend:
    # The socket transport provides *stage-task* workers, not an SCP program
    # runtime: there is no mailbox routing for manager/worker generator
    # programs behind it.  The pipeline engine resolves "socket:N" through
    # repro.scp.transport.transport_for_spec; a batch engine asking the
    # registry for it is a configuration error worth a precise message.
    raise ValueError(
        "backend 'socket' provides stage-task workers for the streaming "
        "pipeline engine only and has no SCP program runtime; use "
        "engine='pipeline' (e.g. backend='socket:4'), or pick 'sim', "
        "'local' or 'process' for the batch engines")


__all__ = [
    "SIM_PRESETS",
    "BackendContext",
    "BackendSpec",
    "backend_names",
    "create_backend",
    "describe_backends",
    "register_backend",
]
