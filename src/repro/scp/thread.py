"""Thread specifications and physical naming.

A *logical thread* is what the application declares: the manager, worker 3,
the attack monitor.  A *physical thread* (or replica) is one executing copy
of a logical thread, hosted on a particular node.  The resiliency layer may
create several physical replicas per logical thread (the paper's "shadow
threads", Figure 1) and regenerate them after failures, so the two notions
are kept strictly separate throughout the runtime.

Physical identifiers have the form ``"<logical>#<replica>"`` (for example
``"worker.3#1"``); :func:`physical_name` and :func:`parse_physical` convert
between the two representations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, Optional, Sequence, Tuple

#: Type of a thread program: a generator function taking the backend context.
ThreadProgram = Callable[..., Generator]

_SEPARATOR = "#"


def physical_name(logical: str, replica: int) -> str:
    """Return the physical identifier of ``replica`` of ``logical``."""
    if _SEPARATOR in logical:
        raise ValueError(f"logical thread names may not contain {_SEPARATOR!r}: {logical!r}")
    if replica < 0:
        raise ValueError("replica index must be non-negative")
    return f"{logical}{_SEPARATOR}{replica}"


def parse_physical(physical_id: str) -> Tuple[str, int]:
    """Split a physical identifier into ``(logical, replica)``."""
    if _SEPARATOR not in physical_id:
        # Unreplicated identifiers are accepted for convenience.
        return physical_id, 0
    logical, _, replica = physical_id.rpartition(_SEPARATOR)
    try:
        return logical, int(replica)
    except ValueError:
        raise ValueError(f"malformed physical thread id {physical_id!r}") from None


@dataclass
class ThreadSpec:
    """Declaration of one logical thread of an application.

    Attributes
    ----------
    name:
        Logical name, unique within the application.
    program:
        Generator function implementing the thread; called as
        ``program(ctx, **params)``.
    params:
        Keyword arguments passed to the program (problem data, configuration).
    replicas:
        Number of physical replicas to create initially (resiliency level).
    placement:
        Optional sequence of node names, one per replica.  ``None`` lets the
        backend/resource manager choose.
    memory_bytes:
        Estimated resident size of the thread's state; used by node memory
        accounting and placement.
    critical:
        Whether this thread is mission critical, i.e. eligible for replication
        and regeneration.  The paper never replicates the manager ("the
        sensor itself"), so the fusion application marks it non-critical.
    daemon:
        Daemon threads (failure detectors, monitors) do not keep the run
        alive: the run finishes when every non-daemon thread has returned.
    """

    name: str
    program: ThreadProgram
    params: Dict[str, Any] = field(default_factory=dict)
    replicas: int = 1
    placement: Optional[Sequence[str]] = None
    memory_bytes: int = 0
    critical: bool = True
    daemon: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("thread name must be non-empty")
        if _SEPARATOR in self.name:
            raise ValueError(f"thread names may not contain {_SEPARATOR!r}")
        if self.replicas < 1:
            raise ValueError("replicas must be >= 1")
        if self.placement is not None and len(self.placement) < self.replicas:
            raise ValueError(
                f"placement for {self.name!r} lists {len(self.placement)} nodes "
                f"but {self.replicas} replicas were requested")

    def physical_ids(self) -> Tuple[str, ...]:
        """Physical identifiers of the initially created replicas."""
        return tuple(physical_name(self.name, r) for r in range(self.replicas))


__all__ = ["ThreadSpec", "ThreadProgram", "physical_name", "parse_physical"]
