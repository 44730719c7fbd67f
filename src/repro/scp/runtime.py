"""Backend-independent runtime facade.

This module defines the objects shared by the local and simulated backends:

* :class:`Context` -- what a thread program sees (its identity, parameters
  and any state restored after regeneration),
* :class:`Application` -- the declarative bundle of thread specifications,
* :class:`RunResult` -- return values, per-thread outcomes and run metrics,
* :class:`Backend` -- the abstract execution interface, and
* :func:`plan_placement` -- the default round-robin placement of replicas on
  compute nodes, which mirrors the paper's testbed where replication level 2
  puts two worker processes on every workstation.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from ..cluster.metrics import RunMetrics
from .errors import PlacementError, RuntimeStateError
from .thread import ThreadSpec, physical_name


@dataclass
class Context:
    """Identity and environment handed to a thread program.

    Attributes
    ----------
    name:
        Logical thread name (shared by all replicas).
    replica:
        Replica index of this physical thread (0 for the primary copy).
    physical_id:
        ``"<name>#<replica>"``.
    node:
        Name of the node hosting this replica (informational).
    params:
        The keyword parameters declared in the :class:`ThreadSpec`.
    restored:
        The most recent :class:`~repro.scp.effects.Checkpoint` state of the
        replica group, or ``None`` for a fresh start.  Regenerated replicas
        use this to resume instead of recomputing from scratch.
    incarnation:
        0 for initially spawned replicas, incremented on every regeneration.
    """

    name: str
    replica: int
    physical_id: str
    node: Optional[str] = None
    params: Dict[str, Any] = field(default_factory=dict)
    restored: Any = None
    incarnation: int = 0


@dataclass
class ThreadOutcome:
    """Terminal state of one physical thread."""

    physical_id: str
    logical: str
    replica: int
    status: str  # "finished" | "crashed" | "killed" | "running"
    result: Any = None
    error: Optional[str] = None


@dataclass
class RunResult:
    """Everything returned by a backend run."""

    #: Logical thread name -> return value of the first replica to finish.
    returns: Dict[str, Any] = field(default_factory=dict)
    #: Per-physical-thread outcomes, including crashed and killed replicas.
    outcomes: Dict[str, ThreadOutcome] = field(default_factory=dict)
    #: Aggregated run metrics (elapsed time, traffic, phases, resiliency).
    metrics: RunMetrics = field(default_factory=RunMetrics)
    #: Elapsed seconds (virtual for the simulated backend, wall-clock locally).
    elapsed_seconds: float = 0.0

    def return_of(self, logical: str) -> Any:
        if logical not in self.returns:
            raise KeyError(f"no finished replica of {logical!r}; outcomes: "
                           f"{sorted(self.outcomes)}")
        return self.returns[logical]

    def crashed_threads(self) -> List[str]:
        return sorted(pid for pid, o in self.outcomes.items() if o.status == "crashed")

    def killed_threads(self) -> List[str]:
        return sorted(pid for pid, o in self.outcomes.items() if o.status == "killed")


class Application:
    """A named set of thread specifications."""

    def __init__(self, *, name: str = "app") -> None:
        self.name = name
        self._specs: Dict[str, ThreadSpec] = {}

    # ----------------------------------------------------------------- specs
    def add(self, spec: ThreadSpec) -> ThreadSpec:
        if spec.name in self._specs:
            raise RuntimeStateError(f"thread {spec.name!r} declared twice")
        self._specs[spec.name] = spec
        return spec

    def add_thread(self, name: str, program, *, replicas: int = 1, params: Optional[dict] = None,
                   placement: Optional[Sequence[str]] = None, memory_bytes: int = 0,
                   critical: bool = True, daemon: bool = False) -> ThreadSpec:
        """Convenience wrapper building and registering a :class:`ThreadSpec`."""
        spec = ThreadSpec(name=name, program=program, params=dict(params or {}),
                          replicas=replicas, placement=placement,
                          memory_bytes=memory_bytes, critical=critical, daemon=daemon)
        return self.add(spec)

    @property
    def specs(self) -> List[ThreadSpec]:
        return list(self._specs.values())

    def spec(self, name: str) -> ThreadSpec:
        try:
            return self._specs[name]
        except KeyError:
            raise RuntimeStateError(f"unknown thread {name!r}") from None

    def validate(self) -> None:
        if not self._specs:
            raise RuntimeStateError("application declares no threads")


def plan_placement(specs: Iterable[ThreadSpec], worker_nodes: Sequence[str],
                   *, pinned: Optional[Mapping[str, str]] = None) -> Dict[str, str]:
    """Assign every physical replica to a node.

    The default strategy reproduces the paper's experiment: replica 0 of the
    i-th critical thread goes to worker node ``i mod N`` and replica ``r`` is
    shifted by ``r`` positions, so at replication level 2 every node hosts two
    replicas (of different logical threads) and compute per node doubles.

    Parameters
    ----------
    specs:
        Thread specifications to place.
    worker_nodes:
        Ordered list of candidate node names.
    pinned:
        Optional explicit ``logical name -> node`` pinning (e.g. the manager
        on the ``"manager"`` node).

    Returns
    -------
    dict
        ``physical_id -> node name``.
    """
    worker_nodes = list(worker_nodes)
    if not worker_nodes:
        raise PlacementError("no worker nodes available for placement")
    pinned = dict(pinned or {})
    placement: Dict[str, str] = {}
    critical_index = 0
    for spec in specs:
        explicit = list(spec.placement) if spec.placement is not None else None
        for replica in range(spec.replicas):
            pid = physical_name(spec.name, replica)
            if explicit is not None:
                placement[pid] = explicit[replica]
            elif spec.name in pinned:
                placement[pid] = pinned[spec.name]
            else:
                index = (critical_index + replica) % len(worker_nodes)
                placement[pid] = worker_nodes[index]
        if spec.placement is None and spec.name not in pinned:
            critical_index += 1
    return placement


class Backend(abc.ABC):
    """Abstract execution backend."""

    #: Human-readable backend kind recorded in run metrics.
    kind: str = "abstract"

    @abc.abstractmethod
    def run(self, app: Application, **kwargs: Any) -> RunResult:
        """Execute ``app`` to completion and return its result."""

    # Control interface used by the resiliency layer ------------------------
    def spawn_thread(self, spec: ThreadSpec, *, replica: int, node: Optional[str] = None,
                     restored: Any = None, incarnation: int = 1) -> str:
        """Create an additional physical replica while a run is in progress."""
        raise NotImplementedError(f"{type(self).__name__} does not support dynamic spawning")

    def kill_thread(self, physical_id: str, reason: str = "killed") -> bool:
        """Forcefully terminate a physical replica.

        ``reason="killed"`` (the default) is fault injection: it is counted
        and announced to death subscribers; backends pass other reasons
        (``"shutdown"``, ``"timeout"``) for their own silent terminations.
        """
        raise NotImplementedError(f"{type(self).__name__} does not support kill_thread")


__all__ = [
    "Context",
    "ThreadOutcome",
    "RunResult",
    "Application",
    "Backend",
    "plan_placement",
]
