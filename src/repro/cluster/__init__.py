"""Simulated distributed hardware substrate.

This subpackage models the paper's experimental platform -- a LAN of
workstations -- accurately enough to regenerate the shape of its performance
figures: a deterministic discrete-event engine (:mod:`.event`), workstation
models with processor-sharing and memory accounting (:mod:`.node`),
interconnect models for shared 100BaseT Ethernet, switched fabrics and
shared-memory machines (:mod:`.network`), the :class:`~repro.cluster.machine.Cluster`
container tying them together, per-run metrics (:mod:`.metrics`) and named
presets matching Section 4 of the paper (:mod:`.presets`).
"""

from .event import Event, EventEngine, SimulationError
from .machine import Cluster, ClusterError
from .metrics import MetricsCollector, RunMetrics
from .network import (BaseInterconnect, LinkSpec, SharedEthernet,
                      SharedMemoryInterconnect, SwitchedNetwork)
from .node import Node, NodeError, NodeSpec
from .presets import (HUNDRED_BASE_T, SUN_ULTRA_FLOPS, SUN_ULTRA_MEMORY,
                      shared_memory_smp, sun_ultra_lan, switched_lan)

__all__ = [
    "Event",
    "EventEngine",
    "SimulationError",
    "Cluster",
    "ClusterError",
    "MetricsCollector",
    "RunMetrics",
    "BaseInterconnect",
    "LinkSpec",
    "SharedEthernet",
    "SharedMemoryInterconnect",
    "SwitchedNetwork",
    "Node",
    "NodeError",
    "NodeSpec",
    "HUNDRED_BASE_T",
    "SUN_ULTRA_FLOPS",
    "SUN_ULTRA_MEMORY",
    "shared_memory_smp",
    "sun_ultra_lan",
    "switched_lan",
]
