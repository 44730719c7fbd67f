"""Cluster model: a named set of nodes plus an interconnect.

The :class:`Cluster` object is the hardware substrate on which the simulated
SCP backend places threads, charges compute time, and routes messages.  It is
deliberately passive -- it owns no event loop of its own -- so that the same
object can also be interrogated by the resource manager (placement decisions)
and by the metrics layer after a run.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..logging_utils import get_logger
from .network import BaseInterconnect, SharedEthernet
from .node import Node, NodeSpec

_LOG = get_logger("cluster.machine")


class ClusterError(RuntimeError):
    """Raised on inconsistent cluster-level operations."""


class Cluster:
    """A collection of :class:`Node` objects joined by an interconnect."""

    def __init__(self, nodes: Sequence[NodeSpec], interconnect: Optional[BaseInterconnect] = None,
                 name: str = "cluster") -> None:
        if not nodes:
            raise ClusterError("a cluster needs at least one node")
        names = [spec.name for spec in nodes]
        if len(set(names)) != len(names):
            raise ClusterError(f"duplicate node names in {names}")
        self.name = name
        self._nodes: Dict[str, Node] = {spec.name: Node(spec) for spec in nodes}
        self._order: List[str] = list(names)
        self.interconnect = interconnect if interconnect is not None else SharedEthernet()
        #: thread_id -> node name
        self._placement: Dict[str, str] = {}

    # ----------------------------------------------------------------- nodes
    @property
    def node_names(self) -> List[str]:
        return list(self._order)

    @property
    def size(self) -> int:
        return len(self._order)

    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise ClusterError(f"unknown node {name!r}; cluster has {self._order}") from None

    def nodes(self) -> List[Node]:
        return [self._nodes[n] for n in self._order]

    def alive_nodes(self) -> List[Node]:
        return [node for node in self.nodes() if node.alive]

    # ------------------------------------------------------------- placement
    def place(self, thread_id: str, node_name: str, memory_bytes: int = 0) -> None:
        """Place a logical thread on a node, updating both directions of the map."""
        if thread_id in self._placement:
            raise ClusterError(f"thread {thread_id!r} is already placed on "
                               f"{self._placement[thread_id]!r}")
        self.node(node_name).host(thread_id, memory_bytes)
        self._placement[thread_id] = node_name

    def unplace(self, thread_id: str) -> None:
        node_name = self._placement.pop(thread_id, None)
        if node_name is not None and node_name in self._nodes:
            self._nodes[node_name].evict(thread_id)

    def location_of(self, thread_id: str) -> Optional[str]:
        """Return the node name hosting ``thread_id`` or None if unplaced/dead."""
        return self._placement.get(thread_id)

    # --------------------------------------------------------------- compute
    def compute_seconds(self, thread_id: str, flop: float) -> float:
        """Virtual seconds for ``thread_id`` to retire ``flop`` operations.

        The cost reflects processor sharing: a node hosting two replicas (the
        paper's replication level 2 halves the available processors) takes
        twice as long per replica.
        """
        node_name = self._placement.get(thread_id)
        if node_name is None:
            raise ClusterError(f"thread {thread_id!r} is not placed on any node")
        node = self.node(node_name)
        seconds = node.compute_seconds(flop)
        node.charge_compute(seconds)
        return seconds

    # ----------------------------------------------------------------- comms
    def transfer_window(self, src_thread: str, dst_thread: str, nbytes: int,
                        earliest: float) -> Tuple[float, float]:
        """Route a message between two placed threads through the interconnect."""
        src = self._placement.get(src_thread)
        dst = self._placement.get(dst_thread)
        if src is None or dst is None:
            raise ClusterError(
                f"cannot route {src_thread!r} -> {dst_thread!r}: unplaced endpoint")
        return self.interconnect.transfer_window(src, dst, nbytes, earliest)

    # --------------------------------------------------------------- failure
    def fail_node(self, node_name: str) -> Set[str]:
        """Fail a node; returns the ids of threads that were running on it."""
        node = self.node(node_name)
        victims = node.fail()
        for tid in victims:
            self._placement.pop(tid, None)
        return victims

    # ------------------------------------------------------------- selection
    def least_loaded_nodes(self, exclude: Iterable[str] = (), alive_only: bool = True
                           ) -> List[str]:
        """Node names sorted by (load, declaration order); used for placement."""
        excluded = set(exclude)
        candidates = [
            node for node in self.nodes()
            if node.name not in excluded and (node.alive or not alive_only)
        ]
        order_index = {name: i for i, name in enumerate(self._order)}
        candidates.sort(key=lambda n: (n.load, order_index[n.name]))
        return [node.name for node in candidates]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        up = sum(1 for n in self.nodes() if n.alive)
        return f"<Cluster {self.name!r} nodes={self.size} up={up}>"


__all__ = ["Cluster", "ClusterError"]
