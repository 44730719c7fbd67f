"""Dynamic regeneration of failed replicas.

This module implements the heart of computational resiliency as the paper
defines it: rather than merely degrading gracefully when replicas are lost,
"dynamically recreate the level of replication in the face of attack ... so
as to assure that operational readiness is eventually restored, subject only
to the constraints imposed by the total available resources".

The :class:`RecoveryService` reacts to suspicions raised by the failure
detector (or to direct death notifications):

1. record the loss in the replica group,
2. choose a new node via the :class:`~repro.resilience.resource.ResourceManager`,
3. spawn a fresh replica through the backend's control interface, restoring
   the group's most recent checkpointed state and bumping the incarnation
   number so the application can recognise the rejoin,
4. drive the :class:`~repro.resilience.reconfigure.ReconfigurationProtocol`
   so routing, dead-letter replay and the audit trail stay consistent.

Regeneration cost is modelled explicitly: the virtual delay before the new
replica starts includes both process start-up and the transfer of the
restored state from a surviving replica's node (size / link bandwidth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..logging_utils import get_logger
from ..scp.errors import PlacementError
from ..scp.serialization import payload_nbytes
from .reconfigure import ReconfigurationProtocol
from .replication import ReplicationManager
from .resource import ResourceManager

_LOG = get_logger("resilience.recovery")


@dataclass
class RecoveryEvent:
    """Outcome of one recovery attempt."""

    time: float
    logical: str
    failed_physical: str
    replacement_physical: Optional[str]
    node: Optional[str]
    succeeded: bool
    reason: str = ""


class RecoveryService:
    """Regenerates replicas of degraded groups."""

    def __init__(self, *, backend, replication: ReplicationManager,
                 resources: ResourceManager,
                 reconfiguration: Optional[ReconfigurationProtocol] = None,
                 regenerate: bool = True,
                 max_regenerations_per_group: int = 64,
                 state_transfer: bool = True) -> None:
        """Create a recovery service.

        Parameters
        ----------
        backend:
            Execution backend exposing ``spawn_thread`` / ``checkpoint_of``
            (both SCP backends do).
        replication:
            Replica-group bookkeeping.
        resources:
            Placement decisions.
        reconfiguration:
            Audit/ordering protocol; a fresh one is created if omitted.
        regenerate:
            When False the service only records losses -- this is the static
            replication (fault-tolerance-only) baseline of the paper's
            argument, used by :mod:`repro.baselines.static_replication`.
        max_regenerations_per_group:
            Safety valve against regeneration storms under sustained attack.
        state_transfer:
            Whether to charge the transfer of the restored state to the new
            replica's start-up delay (simulated backend only).
        """
        self.backend = backend
        self.replication = replication
        self.resources = resources
        self.reconfiguration = reconfiguration or ReconfigurationProtocol()
        self.regenerate = regenerate
        self.max_regenerations_per_group = max_regenerations_per_group
        self.state_transfer = state_transfer
        self._events: List[RecoveryEvent] = []

    # ------------------------------------------------------------------ hook
    def on_replica_lost(self, physical_id: str, reason: str = "failure") -> Optional[RecoveryEvent]:
        """Handle the loss of a physical replica (detector or death callback)."""
        group = self.replication.record_death(physical_id)
        now = getattr(self.backend, "now", 0.0)
        if group is None:
            _LOG.debug("loss of untracked thread %s ignored", physical_id)
            return None
        if not self.regenerate:
            event = RecoveryEvent(time=now, logical=group.logical,
                                  failed_physical=physical_id, replacement_physical=None,
                                  node=None, succeeded=False,
                                  reason="regeneration disabled (static replication)")
            self._events.append(event)
            return event
        if group.regenerated >= self.max_regenerations_per_group:
            event = RecoveryEvent(time=now, logical=group.logical,
                                  failed_physical=physical_id, replacement_physical=None,
                                  node=None, succeeded=False,
                                  reason="regeneration budget exhausted")
            self._events.append(event)
            return event
        return self._regenerate(group.logical, physical_id, reason)

    # ------------------------------------------------------------ regenerate
    def _regenerate(self, logical: str, failed_physical: str, reason: str) -> RecoveryEvent:
        group = self.replication.group(logical)
        now = getattr(self.backend, "now", 0.0)
        record = self.reconfiguration.begin(time=now, logical=logical,
                                            failed_physical=failed_physical, reason=reason)
        try:
            node = self.resources.select_node(memory_bytes=group.spec.memory_bytes,
                                              group_members=group.members)
        except PlacementError as err:
            self.reconfiguration.abort(record, str(err))
            event = RecoveryEvent(time=now, logical=logical, failed_physical=failed_physical,
                                  replacement_physical=None, node=None, succeeded=False,
                                  reason=str(err))
            self._events.append(event)
            return event

        restored = None
        checkpoint_getter = getattr(self.backend, "checkpoint_of", None)
        if callable(checkpoint_getter):
            restored = checkpoint_getter(logical)
        extra_delay = 0.0
        if self.state_transfer and restored is not None:
            extra_delay = self._state_transfer_delay(restored)

        replica_index = group.allocate_replica_index()
        incarnation = group.incarnation + 1
        spawn_kwargs: Dict[str, Any] = dict(replica=replica_index, node=node,
                                            restored=restored, incarnation=incarnation)
        if extra_delay > 0 and hasattr(self.backend, "spawn_cost_s"):
            spawn_kwargs["extra_delay"] = extra_delay
        new_physical = self.backend.spawn_thread(group.spec, **spawn_kwargs)

        self.replication.record_regeneration(logical, new_physical)
        self.reconfiguration.complete(record, replacement_physical=new_physical, node=node)
        event = RecoveryEvent(time=now, logical=logical, failed_physical=failed_physical,
                              replacement_physical=new_physical, node=node, succeeded=True,
                              reason=reason)
        self._events.append(event)
        _LOG.info("regenerated %s as %s on %s (reason: %s)", logical, new_physical, node, reason)
        return event

    def _state_transfer_delay(self, restored: Any) -> float:
        """Virtual seconds needed to ship the restored state to the new node."""
        cluster = getattr(self.resources, "cluster", None)
        if cluster is None:
            return 0.0
        nbytes = payload_nbytes(restored)
        link = cluster.interconnect.link
        return link.message_cost(nbytes)

    # --------------------------------------------------------------- reports
    @property
    def events(self) -> List[RecoveryEvent]:
        return list(self._events)

    def successful_recoveries(self) -> List[RecoveryEvent]:
        return [e for e in self._events if e.succeeded]

    def failed_recoveries(self) -> List[RecoveryEvent]:
        return [e for e in self._events if not e.succeeded]


__all__ = ["RecoveryService", "RecoveryEvent"]
