"""Logical-to-physical routing.

The :class:`Router` maintains the mapping from logical thread names to the
set of live physical replicas.  Every send is expanded through it: a message
addressed to ``"worker.3"`` is delivered to each live replica of worker 3,
and duplicate suppression at the receiving mailbox collapses replicated
*senders* back down to one copy.  The resiliency layer mutates the router
when replicas die or are regenerated; the application never sees physical
identifiers at all.
"""

from __future__ import annotations

from typing import Dict, List, Optional


class Router:
    """Mapping between logical thread names and live physical replicas."""

    def __init__(self) -> None:
        self._logical_to_physical: Dict[str, List[str]] = {}
        self._physical_to_logical: Dict[str, str] = {}

    # ---------------------------------------------------------- registration
    def register(self, logical: str, physical_id: str) -> None:
        """Register a live physical replica of ``logical``."""
        if physical_id in self._physical_to_logical:
            raise ValueError(f"physical thread {physical_id!r} is already registered")
        self._logical_to_physical.setdefault(logical, [])
        self._logical_to_physical[logical].append(physical_id)
        self._physical_to_logical[physical_id] = logical

    def unregister(self, physical_id: str) -> Optional[str]:
        """Remove a physical replica (it finished or died).

        Returns the logical name it belonged to, or None if it was unknown.
        """
        logical = self._physical_to_logical.pop(physical_id, None)
        if logical is not None:
            replicas = self._logical_to_physical.get(logical, [])
            if physical_id in replicas:
                replicas.remove(physical_id)
        return logical

    # --------------------------------------------------------------- queries
    def physical_targets(self, logical: str) -> List[str]:
        """Live physical replicas of ``logical`` (possibly empty)."""
        return list(self._logical_to_physical.get(logical, []))


__all__ = ["Router"]
