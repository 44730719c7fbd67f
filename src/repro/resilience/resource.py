"""Resource management: where to place regenerated replicas.

The paper notes that "to dynamically recover, replication requires the
ability to recreate a thread with the appropriate communication structure at
some other location in the network", and that placement must respect memory
disparities and granularity.  The :class:`ResourceManager` encapsulates that
decision for the simulated cluster: it prefers live nodes that

1. do not already host a replica of the same logical thread (a shadow
   sharing a node with its sibling would not improve fault independence),
2. have enough free memory for the thread's state, and
3. carry the least load (fewest hosted threads), breaking ties by node
   declaration order for determinism.

It also exposes the granularity advice used by the manager/benchmarks
(Watts & Taylor 1998 style merge/split suggestions) so decomposition
decisions and placement decisions live behind one interface.
"""

from __future__ import annotations

from typing import Iterable, List

from ..cluster.machine import Cluster
from ..logging_utils import get_logger
from ..scp.errors import PlacementError

_LOG = get_logger("resilience.resource")


class ResourceManager:
    """Placement and granularity decisions over a cluster model."""

    def __init__(self, cluster: Cluster) -> None:
        self.cluster = cluster

    # -------------------------------------------------------------- placement
    def nodes_hosting_group(self, group_members: Iterable[str]) -> List[str]:
        """Nodes currently hosting any of the given physical replicas."""
        nodes = []
        for physical_id in group_members:
            location = self.cluster.location_of(physical_id)
            if location is not None:
                nodes.append(location)
        return nodes

    def select_node(self, *, memory_bytes: int = 0,
                    group_members: Iterable[str] = ()) -> str:
        """Choose the node on which to regenerate a replica.

        Raises
        ------
        PlacementError
            If no live node satisfies the constraints (the paper's "subject
            only to the constraints imposed by the total available
            resources" boundary).
        """
        avoid = self.nodes_hosting_group(group_members)
        # First pass: respect all constraints.
        candidates = self._candidates(memory_bytes, avoid)
        if candidates:
            return candidates[0]
        # Second pass: relax co-location avoidance (better a co-located
        # replica than none at all), keep memory and liveness constraints.
        candidates = self._candidates(memory_bytes, ())
        if candidates:
            _LOG.info("placement relaxed co-location constraint; using %s", candidates[0])
            return candidates[0]
        raise PlacementError(
            "no live node with sufficient memory is available for regeneration")

    def _candidates(self, memory_bytes: int, avoid: Iterable[str]) -> List[str]:
        avoid = set(avoid)
        names = self.cluster.least_loaded_nodes(exclude=avoid, alive_only=True)
        return [name for name in names
                if self.cluster.node(name).memory_free >= memory_bytes]

    # ------------------------------------------------------------ granularity
    @staticmethod
    def suggest_subcubes(workers: int, *, multiplier: int = 2, cap: int = 32) -> int:
        """Granularity advice matching the paper's Figure 5 conclusion:
        decompose into 2-3x more sub-cubes than workers, but not beyond the
        point (~32 for the studied problem size) where per-message overhead
        dominates."""
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if multiplier < 1:
            raise ValueError("multiplier must be >= 1")
        return min(workers * multiplier, max(cap, workers))


__all__ = ["ResourceManager"]
