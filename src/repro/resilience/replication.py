"""Replica-group bookkeeping.

The resiliency layer needs to know, for every logical thread, which physical
replicas currently exist, which replica indices and incarnation numbers have
been used, and what the most recent recoverable state is.  That bookkeeping
lives here, separate from the policy (what *should* be replicated) and from
the recovery service (what to *do* when a replica dies).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from ..scp.thread import ThreadSpec, parse_physical, physical_name


@dataclass
class ReplicaGroup:
    """Live-replica view of one logical thread.

    Attributes
    ----------
    spec:
        The thread specification replicas are created from.
    target_level:
        Desired number of live replicas (the policy's replication level).
    members:
        Physical ids of currently live replicas.
    next_replica_index:
        Monotonic counter so regenerated replicas never reuse an id.
    incarnation:
        Incremented every time a replica is regenerated; carried in the new
        replica's context so the application can distinguish rejoin
        announcements from initial ones.
    lost / regenerated:
        Cumulative counters for reporting.
    """

    spec: ThreadSpec
    target_level: int
    members: Set[str] = field(default_factory=set)
    next_replica_index: int = 0
    incarnation: int = 0
    lost: int = 0
    regenerated: int = 0

    @property
    def logical(self) -> str:
        return self.spec.name

    @property
    def live_count(self) -> int:
        return len(self.members)

    @property
    def deficit(self) -> int:
        """How many replicas are missing relative to the target level."""
        return max(0, self.target_level - self.live_count)

    def allocate_replica_index(self) -> int:
        index = self.next_replica_index
        self.next_replica_index += 1
        return index

    def add_member(self, physical_id: str) -> None:
        self.members.add(physical_id)

    def remove_member(self, physical_id: str) -> bool:
        if physical_id in self.members:
            self.members.remove(physical_id)
            self.lost += 1
            return True
        return False


class ReplicationManager:
    """Tracks every replica group of an application."""

    def __init__(self) -> None:
        self._groups: Dict[str, ReplicaGroup] = {}

    # ---------------------------------------------------------------- groups
    def add_group(self, spec: ThreadSpec, target_level: int) -> ReplicaGroup:
        """Create the group record for ``spec`` (idempotent)."""
        if spec.name in self._groups:
            return self._groups[spec.name]
        group = ReplicaGroup(spec=spec, target_level=max(1, target_level))
        for replica in range(spec.replicas):
            group.add_member(physical_name(spec.name, replica))
            group.next_replica_index = max(group.next_replica_index, replica + 1)
        self._groups[spec.name] = group
        return group

    def group(self, logical: str) -> ReplicaGroup:
        try:
            return self._groups[logical]
        except KeyError:
            raise KeyError(f"no replica group registered for {logical!r}") from None

    def has_group(self, logical: str) -> bool:
        return logical in self._groups

    # ------------------------------------------------------------ membership
    def record_death(self, physical_id: str) -> Optional[ReplicaGroup]:
        """Mark a physical replica as dead.

        Returns the group only when ``physical_id`` was one of its *current*
        members; stale or duplicate notifications (a suspicion arriving after
        the replica has already been replaced) return ``None`` so callers do
        not trigger spurious regenerations.
        """
        logical, _ = parse_physical(physical_id)
        group = self._groups.get(logical)
        if group is None:
            return None
        if not group.remove_member(physical_id):
            return None
        return group

    def record_regeneration(self, logical: str, physical_id: str) -> ReplicaGroup:
        group = self.group(logical)
        group.add_member(physical_id)
        group.incarnation += 1
        group.regenerated += 1
        return group

    # --------------------------------------------------------------- reports
    def summary(self) -> Dict[str, Dict[str, int]]:
        """Per-group counters for reports and tests."""
        return {
            g.logical: {
                "live": g.live_count,
                "target": g.target_level,
                "lost": g.lost,
                "regenerated": g.regenerated,
                "incarnation": g.incarnation,
            }
            for g in self._groups.values()
        }


__all__ = ["ReplicaGroup", "ReplicationManager"]
