"""Workstation (compute node) model.

The paper's testbed is sixteen 300 MHz Sun Solaris workstations.  For the
purpose of regenerating the evaluation figures what matters about a node is

* how fast it retires floating-point work (``flops`` per second),
* how much memory it has (the paper could not run the 210-band, 1024x1024
  cube "due to memory constraints in our available network"),
* how many threads it is currently hosting (replicas consume the same
  processor, which is the dominant cost of replication), and
* whether it is up or has been taken out by a failure/attack.

The node model therefore tracks hosted threads, charges compute time
proportionally to the number of runnable threads sharing the processor
(processor-sharing discipline), and exposes memory accounting hooks used by
the resource manager when it places regenerated replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Set

from ..logging_utils import get_logger

_LOG = get_logger("cluster.node")


class NodeError(RuntimeError):
    """Raised on inconsistent node operations (e.g. hosting on a dead node)."""


@dataclass(frozen=True)
class NodeSpec:
    """Static description of a workstation.

    Attributes
    ----------
    name:
        Unique node name, e.g. ``"sun04"``.
    flops:
        Sustained floating-point rate in FLOP/s.  A 300 MHz UltraSPARC of the
        paper's era sustains roughly 6e7 FLOP/s on the dense kernels used
        here (well below peak, accounting for memory traffic).
    memory_bytes:
        Physical memory available to application threads.
    cores:
        Number of processors; >1 models the paper's "multi-processor PCs".
    """

    name: str
    flops: float = 6.0e7
    memory_bytes: int = 256 * 1024 * 1024
    cores: int = 1

    def __post_init__(self) -> None:
        if self.flops <= 0:
            raise ValueError("flops must be positive")
        if self.memory_bytes <= 0:
            raise ValueError("memory_bytes must be positive")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")


@dataclass
class HostedThread:
    """Book-keeping record for one thread placed on a node."""

    thread_id: str
    memory_bytes: int = 0


class Node:
    """Dynamic state of a workstation in the simulated cluster."""

    def __init__(self, spec: NodeSpec) -> None:
        self.spec = spec
        self._alive = True
        self._hosted: Dict[str, HostedThread] = {}
        self._busy_time = 0.0

    # ----------------------------------------------------------------- state
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def alive(self) -> bool:
        return self._alive

    @property
    def load(self) -> int:
        """Number of threads currently placed on this node."""
        return len(self._hosted)

    @property
    def busy_time(self) -> float:
        """Accumulated compute seconds charged to this node."""
        return self._busy_time

    @property
    def memory_used(self) -> int:
        return sum(h.memory_bytes for h in self._hosted.values())

    @property
    def memory_free(self) -> int:
        return self.spec.memory_bytes - self.memory_used

    # ------------------------------------------------------------- placement
    def host(self, thread_id: str, memory_bytes: int = 0) -> None:
        """Place a thread on this node.

        Raises
        ------
        NodeError
            If the node is down, already hosts the thread, or the thread's
            state does not fit in the remaining memory.
        """
        if not self._alive:
            raise NodeError(f"cannot host {thread_id!r} on failed node {self.name!r}")
        if thread_id in self._hosted:
            raise NodeError(f"node {self.name!r} already hosts {thread_id!r}")
        if memory_bytes > self.memory_free:
            raise NodeError(
                f"node {self.name!r} has {self.memory_free} bytes free, "
                f"cannot host {thread_id!r} needing {memory_bytes}")
        self._hosted[thread_id] = HostedThread(thread_id, memory_bytes)

    def evict(self, thread_id: str) -> None:
        """Remove a thread from this node (it migrated, finished, or died)."""
        self._hosted.pop(thread_id, None)

    def hosts(self, thread_id: str) -> bool:
        return thread_id in self._hosted

    # --------------------------------------------------------------- compute
    def compute_seconds(self, flop: float, concurrent_threads: Optional[int] = None) -> float:
        """Return the virtual seconds needed to retire ``flop`` operations.

        ``concurrent_threads`` is the number of runnable threads sharing the
        node's processors at the time of the computation; under processor
        sharing each thread receives ``cores / concurrent`` of the machine
        (never more than 1 processor per thread).
        """
        if flop < 0:
            raise ValueError("flop must be non-negative")
        concurrent = concurrent_threads if concurrent_threads is not None else max(1, self.load)
        concurrent = max(1, concurrent)
        share = min(1.0, self.spec.cores / concurrent)
        return flop / (self.spec.flops * share)

    def charge_compute(self, seconds: float) -> None:
        """Record compute seconds actually charged against this node."""
        self._busy_time += seconds

    # --------------------------------------------------------------- failure
    def fail(self) -> Set[str]:
        """Mark the node as failed.

        Returns the set of thread ids that were hosted at the instant of the
        failure; the resiliency layer uses this to know which replicas died.
        """
        self._alive = False
        victims = set(self._hosted)
        self._hosted.clear()
        _LOG.debug("node %s failed, killing threads %s", self.name, sorted(victims))
        return victims

    def recover(self) -> None:
        """Bring a failed node back online (empty, as after a reboot)."""
        self._alive = True
        self._hosted.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self._alive else "DOWN"
        return f"<Node {self.name} {state} load={self.load}>"


__all__ = ["Node", "NodeSpec", "NodeError", "HostedThread"]
