"""Typed messages exchanged between the fusion manager and its workers.

The manager/worker protocol uses a small set of message kinds, each carried
as the payload of an SCP envelope on a well-known port.  Keeping them as
dataclasses (rather than ad-hoc tuples) documents the protocol, lets the
duplicate-suppression keys be derived systematically, and gives the tests a
stable surface to assert against.

Ports
-----
``PORT_TASK``
    Manager -> worker: work assignments and stop notices.
``PORT_RESULT``
    Worker -> manager: completed sub-problem results.
``PORT_HELLO``
    Worker -> manager: join/rejoin announcements (sent at start-up and by
    regenerated replicas so outstanding work can be re-sent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from .partition import SubcubeSpec

PORT_TASK = "task"
PORT_RESULT = "result"
PORT_HELLO = "hello"

#: Phase identifiers, in execution order.
PHASE_SCREEN = "screen"
PHASE_COVARIANCE = "covariance"
PHASE_TRANSFORM = "transform"
ALL_PHASES = (PHASE_SCREEN, PHASE_COVARIANCE, PHASE_TRANSFORM)


@dataclass
class WorkerHello:
    """Join / rejoin announcement from a worker replica."""

    worker: str
    incarnation: int = 0

    def dedup_key(self) -> Tuple[Any, ...]:
        return ("hello", self.worker, self.incarnation)


@dataclass
class TaskAssignment:
    """One unit of work sent to a logical worker.

    Attributes
    ----------
    phase:
        One of :data:`ALL_PHASES`.
    task_id:
        Dense task index within the phase.
    data:
        Phase-specific payload:

        * screen: ``{"cube": HyperspectralCube}``
        * covariance: ``{"pixels": (m, bands) array, "mean": (bands,) array}``
        * transform: ``{"cube": HyperspectralCube, "basis": PCTBasis,
          "stretch_mean", "stretch_std": (3,) arrays, "keep_components": int}``

        A sub-cube task names its block by reference: the manager's whole
        cube plus ``spec``.  On the process backend the cube is a
        :class:`~repro.data.shared.SharedCube` and pickles as its handle.
    spec:
        The sub-cube this task corresponds to, when applicable.
    """

    phase: str
    task_id: int
    data: Dict[str, Any] = field(default_factory=dict)
    spec: Optional[SubcubeSpec] = None

    def dedup_key(self) -> Tuple[Any, ...]:
        return ("task", self.phase, self.task_id)

    def nbytes_estimate(self) -> int:
        """Modeled payload size: a cube counts as the rows ``spec`` names,
        the block a worker would receive on a distributed-memory LAN."""
        total = 256
        for key, value in self.data.items():
            if key == "cube":
                total += value.data[:, self.spec.row_start:self.spec.row_stop].nbytes
            elif isinstance(value, np.ndarray):
                total += value.nbytes
            elif hasattr(value, "nbytes_estimate"):
                total += int(value.nbytes_estimate())
        return total


@dataclass
class TaskResult:
    """Result of one completed task, sent back to the manager."""

    phase: str
    task_id: int
    worker: str
    data: Dict[str, Any] = field(default_factory=dict)

    def dedup_key(self) -> Tuple[Any, ...]:
        # The worker name is deliberately excluded: the same task computed by
        # two different workers (e.g. after a reassignment) must still be
        # recognised as a duplicate by the manager's mailbox.
        return ("result", self.phase, self.task_id)

    def nbytes_estimate(self) -> int:
        total = 256
        for value in self.data.values():
            if isinstance(value, np.ndarray):
                total += value.nbytes
        return total


@dataclass
class StopWork:
    """Terminal notice telling a worker the run is complete."""

    reason: str = "complete"

    def dedup_key(self) -> Tuple[Any, ...]:
        return ("stop", self.reason)


__all__ = [
    "PORT_TASK",
    "PORT_RESULT",
    "PORT_HELLO",
    "PHASE_SCREEN",
    "PHASE_COVARIANCE",
    "PHASE_TRANSFORM",
    "ALL_PHASES",
    "WorkerHello",
    "TaskAssignment",
    "TaskResult",
    "StopWork",
]
