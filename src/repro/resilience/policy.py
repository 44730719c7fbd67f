"""Replication policies.

"In any realistic system, there will never be sufficient resources to
replicate all resources, therefore some policy-based methods for controlling
replication are required" (Section 2).  A :class:`ReplicationPolicy` captures
those decisions declaratively: which logical threads are mission critical,
what replication level they receive, and how replicas are spread over nodes.

The default policy reproduces the paper's experiment: every worker thread is
replicated to level 2, the manager (the sensor) is not replicated, and the
replicas of a logical thread are placed on distinct nodes shifted round-robin
so that each workstation ends up hosting replicas of two different workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from ..config import ResilienceConfig
from ..scp.thread import ThreadSpec, physical_name


@dataclass(frozen=True)
class ReplicationPolicy:
    """Declarative description of what gets replicated and where.

    Attributes
    ----------
    level:
        Replication level applied to critical threads (1 = no shadows).
    is_critical:
        Predicate selecting the mission-critical threads; defaults to the
        :attr:`~repro.scp.thread.ThreadSpec.critical` flag on the spec.
    spread_replicas:
        When True, replicas of the same logical thread are placed on distinct
        nodes (a shadow on the same node would share the fate of its primary,
        defeating the purpose of replication).
    """

    level: int = 2
    is_critical: Optional[Callable[[ThreadSpec], bool]] = None
    spread_replicas: bool = True

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("replication level must be >= 1")

    # ------------------------------------------------------------ selection
    def critical(self, spec: ThreadSpec) -> bool:
        if self.is_critical is not None:
            return bool(self.is_critical(spec))
        return spec.critical

    def replicas_for(self, spec: ThreadSpec) -> int:
        """Replication level applied to ``spec``."""
        return self.level if self.critical(spec) else 1

    # ------------------------------------------------------------- placement
    def plan_placement(self, specs: Sequence[ThreadSpec], worker_nodes: Sequence[str],
                       *, pinned: Optional[Dict[str, str]] = None) -> Dict[str, str]:
        """Place every replica of every spec on a node.

        Replica ``r`` of the i-th critical thread lands on node
        ``(i + r) mod N`` so that, at level 2 on N nodes with N workers, each
        node hosts exactly two replicas belonging to different logical
        threads -- the configuration whose cost the paper analyses ("the
        replicated processes require both memory and processor resources").
        """
        worker_nodes = list(worker_nodes)
        if not worker_nodes:
            raise ValueError("no worker nodes available")
        pinned = dict(pinned or {})
        placement: Dict[str, str] = {}
        critical_index = 0
        for spec in specs:
            replicas = self.replicas_for(spec)
            for replica in range(replicas):
                pid = physical_name(spec.name, replica)
                if spec.name in pinned:
                    placement[pid] = pinned[spec.name]
                    continue
                if self.spread_replicas:
                    node_index = (critical_index + replica) % len(worker_nodes)
                else:
                    node_index = critical_index % len(worker_nodes)
                placement[pid] = worker_nodes[node_index]
            if spec.name not in pinned:
                critical_index += 1
        return placement

    # -------------------------------------------------------------- factory
    @classmethod
    def from_config(cls, config: ResilienceConfig) -> "ReplicationPolicy":
        """Build the policy corresponding to a :class:`ResilienceConfig`."""
        return cls(level=config.replication_level)


__all__ = ["ReplicationPolicy"]
