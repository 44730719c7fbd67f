"""Communication reconfiguration protocol.

When a replica is regenerated on a new node the application's communication
structure must be rebound to the new physical location, and this must happen
without losing messages, without delivering duplicates to the application and
without racing against in-flight traffic (Section 2: "The protocols deal with
race conditions inherent in reconfiguration, ensure that no communication is
lost, that the integrity of the state is maintained, and that where possible
locality of communication is preserved").

In this reproduction the mechanics of delivery are owned by the SCP backends
(router fan-out, mailbox duplicate suppression, dead-letter retention and
in-flight retargeting).  The :class:`ReconfigurationProtocol` is the layer
that drives them in the right order and records an auditable log of every
reconfiguration, which the tests use to assert the "no message loss"
guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from ..logging_utils import get_logger

_LOG = get_logger("resilience.reconfigure")


@dataclass
class ReconfigurationRecord:
    """Audit record of one reconfiguration event."""

    time: float
    logical: str
    failed_physical: str
    replacement_physical: Optional[str]
    node: Optional[str]
    reason: str = "regeneration"


class ReconfigurationProtocol:
    """Orders the steps of a reconfiguration and keeps an audit trail."""

    def __init__(self) -> None:
        self._records: List[ReconfigurationRecord] = []

    # ----------------------------------------------------------------- steps
    def begin(self, *, time: float, logical: str, failed_physical: str,
              reason: str = "regeneration") -> ReconfigurationRecord:
        """Open a reconfiguration transaction for a failed replica."""
        record = ReconfigurationRecord(time=time, logical=logical,
                                       failed_physical=failed_physical,
                                       replacement_physical=None, node=None,
                                       reason=reason)
        self._records.append(record)
        return record

    def complete(self, record: ReconfigurationRecord, *, replacement_physical: str,
                 node: str) -> ReconfigurationRecord:
        """Close the transaction once the replacement replica is live."""
        record.replacement_physical = replacement_physical
        record.node = node
        _LOG.info("reconfigured %s: %s -> %s on %s", record.logical,
                  record.failed_physical, replacement_physical, node)
        return record

    def abort(self, record: ReconfigurationRecord, reason: str) -> None:
        """Record that a reconfiguration could not be completed."""
        record.reason = f"aborted: {reason}"
        _LOG.warning("reconfiguration of %s aborted: %s", record.logical, reason)

    # --------------------------------------------------------------- reports
    def completed(self) -> List[ReconfigurationRecord]:
        return [r for r in self._records if r.replacement_physical is not None]

    def aborted(self) -> List[ReconfigurationRecord]:
        return [r for r in self._records if r.reason.startswith("aborted")]

    def count(self) -> int:
        return len(self._records)

    def summary(self) -> Dict[str, Any]:
        return {
            "total": len(self._records),
            "completed": len(self.completed()),
            "aborted": len(self.aborted()),
            "by_logical": {
                logical: sum(1 for r in self._records if r.logical == logical)
                for logical in sorted({r.logical for r in self._records})
            },
        }


__all__ = ["ReconfigurationProtocol", "ReconfigurationRecord"]
