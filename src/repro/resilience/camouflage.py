"""Camouflage: placement obfuscation through periodic migration.

Section 2's analogy ends with roaches that "adopt techniques for camouflage
as a form of protection and disinformation" -- in system terms, mission
critical threads should not sit still long enough for an adversary to map
the computation onto the network.  The paper leaves camouflage as a concept;
this module provides a concrete, testable realisation on top of the same
machinery regeneration uses:

* every ``period`` seconds the :class:`CamouflagePolicy` picks one replica of
  a randomly chosen critical thread,
* spawns a fresh replica of that thread on a different node (through the
  coordinator's :meth:`~repro.resilience.coordinator.ResilienceCoordinator.regenerate`,
  so checkpoints, routing and the event log are handled identically to
  failure recovery), and
* retires the old replica once the new one is live.

Because migration reuses the regeneration path, enabling camouflage does not
change application code at all -- reinforcing the paper's claim that the
resiliency concepts are "incorporated through library technology that is
application independent".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence

import numpy as np

from ..logging_utils import get_logger

if TYPE_CHECKING:
    from .coordinator import ResilienceCoordinator

_LOG = get_logger("resilience.camouflage")


@dataclass
class MigrationRecord:
    """One completed (or attempted) migration."""

    time: float
    logical: str
    from_physical: str
    to_physical: Optional[str]
    succeeded: bool


class CamouflagePolicy:
    """Periodic migration of critical replicas between nodes."""

    def __init__(self, coordinator: ResilienceCoordinator, *, period: float,
                 logical_threads: Sequence[str], seed: int = 0,
                 max_migrations: Optional[int] = None) -> None:
        """Create a camouflage policy.

        Parameters
        ----------
        coordinator:
            The coordinator that also recovers failures; its backend must
            expose ``schedule``/``kill_thread``/``live_replicas`` (the
            simulated backend does).
        period:
            Seconds between migrations.
        logical_threads:
            Names of the threads eligible for migration.
        seed:
            Seed of the migration-target selection.
        max_migrations:
            Optional cap on the number of migrations performed.
        """
        if period <= 0:
            raise ValueError("period must be positive")
        self.coordinator = coordinator
        self.backend = coordinator.backend
        self.period = period
        self.logical_threads = list(logical_threads)
        self.rng = np.random.default_rng(seed)
        self.max_migrations = max_migrations
        self.records: List[MigrationRecord] = []
        self._armed = False

    # ------------------------------------------------------------------- arm
    def arm(self) -> None:
        """Schedule the first migration tick on the backend's clock."""
        if self._armed:
            return
        self._armed = True
        self.backend.schedule(self.period, self._tick, label="camouflage:tick")

    def _tick(self) -> None:
        if self.max_migrations is not None and len(self.records) >= self.max_migrations:
            return
        self.migrate_one()
        # Keep going as long as the run is alive; the backend stops stepping
        # once the application threads finish, so this never prolongs a run.
        self.backend.schedule(self.period, self._tick, label="camouflage:tick")

    # --------------------------------------------------------------- migrate
    def migrate_one(self, logical: Optional[str] = None) -> MigrationRecord:
        """Migrate one replica of ``logical`` (or of a random eligible thread)."""
        now = getattr(self.backend, "now", 0.0)
        candidates = [name for name in self.logical_threads
                      if self.backend.live_replicas(name)]
        if logical is None:
            if not candidates:
                record = MigrationRecord(now, "<none>", "<none>", None, False)
                self.records.append(record)
                return record
            logical = str(self.rng.choice(candidates))
        live = self.backend.live_replicas(logical)
        if not live:
            record = MigrationRecord(now, logical, "<none>", None, False)
            self.records.append(record)
            return record
        victim = str(self.rng.choice(live))

        # Spawn-first, retire-after ordering: the group never drops below its
        # pre-migration replication level, so an attack landing mid-migration
        # finds at least as many replicas as before.
        event = self.coordinator.regenerate(logical, victim, reason="camouflage")
        if not event.succeeded:
            record = MigrationRecord(now, logical, victim, None, False)
            self.records.append(record)
            return record
        self.backend.kill_thread(victim)
        self.coordinator.record_loss(victim)
        record = MigrationRecord(now, logical, victim, event.replacement_physical, True)
        self.records.append(record)
        _LOG.info("camouflage migration of %s: %s -> %s", logical, victim,
                  event.replacement_physical)
        return record

    # --------------------------------------------------------------- reports
    def successful_migrations(self) -> int:
        return sum(1 for r in self.records if r.succeeded)


__all__ = ["CamouflagePolicy", "MigrationRecord"]
