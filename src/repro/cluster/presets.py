"""Cluster presets matching the paper's experimental platforms.

Three presets are provided:

``sun_ultra_lan(n)``
    The paper's testbed: up to sixteen 300 MHz Sun Solaris workstations on a
    shared 100BaseT segment.  Used to regenerate Figures 4 and 5.

``switched_lan(n)``
    The same workstations behind a full-duplex switch; useful as an ablation
    showing how much of the communication overhead is attributable to the
    shared medium.

``shared_memory_smp(n)``
    A single multi-processor machine; models the "within 5% of linear
    speed-up ... no communication overhead" shared-memory result quoted in
    Section 4.

The extra ``manager_nodes`` slot exists because the paper's manager ("the
sensor itself") is a distinct entity that is never replicated; giving it a
dedicated node mirrors the testbed where the data source was not one of the
16 compute workstations.
"""

from __future__ import annotations

from typing import List

from .machine import Cluster
from .network import (LinkSpec, SharedEthernet, SharedMemoryInterconnect,
                      SwitchedNetwork)
from .node import NodeSpec

#: Sustained FLOP rate of a 300 MHz UltraSPARC-class workstation on the fusion
#: kernels.  Peak is 600 MFLOPS, but the paper's implementation computes
#: spectral angles with scalar C loops and per-pair transcendental calls
#: through the SCPlib envelope layer; 15 MFLOPS of useful arithmetic is a
#: representative sustained rate for such code in 1999 and places the
#: single-workstation run time in the same range as Figure 4.
SUN_ULTRA_FLOPS = 1.5e7

#: 256 MB was a generously configured workstation in 1999 and explains the
#: paper's remark that the 210-band, 1024x1024 cube "could not be used due to
#: memory constraints".
SUN_ULTRA_MEMORY = 256 * 1024 * 1024

#: Application-level throughput of 100BaseT with TCP framing overhead.  The
#: per-message overhead models the SCPlib envelope handling and user-space
#: copies of a late-90s protocol stack; at a few milliseconds per message it
#: is negligible for coarse decompositions but becomes visible once the cube
#: is split into many tens of sub-cubes, which is what produces the
#: granularity tail-off the paper reports past ~32 sub-cubes.
HUNDRED_BASE_T = LinkSpec(bandwidth_bytes_per_s=11.0e6, latency_s=1.0e-3,
                          per_message_overhead_s=20.0e-3)


def _worker_specs(n: int, flops: float, memory: int) -> List[NodeSpec]:
    if n < 1:
        raise ValueError("need at least one worker node")
    return [NodeSpec(name=f"sun{i:02d}", flops=flops, memory_bytes=memory)
            for i in range(n)]


def sun_ultra_lan(workers: int = 16, *, manager_node: bool = True,
                  flops: float = SUN_ULTRA_FLOPS,
                  memory_bytes: int = SUN_ULTRA_MEMORY) -> Cluster:
    """Paper testbed: ``workers`` Sun workstations on shared 100BaseT.

    Parameters
    ----------
    workers:
        Number of compute workstations (the paper sweeps 1..16).
    manager_node:
        If True (default) an additional node ``"manager"`` hosts the manager
        thread, mirroring the paper where the manager represents the sensor.
    """
    specs = _worker_specs(workers, flops, memory_bytes)
    if manager_node:
        specs = [NodeSpec(name="manager", flops=flops, memory_bytes=memory_bytes)] + specs
    return Cluster(specs, interconnect=SharedEthernet(HUNDRED_BASE_T), name="sun-ultra-lan")


def switched_lan(workers: int = 16, *, manager_node: bool = True,
                 flops: float = SUN_ULTRA_FLOPS,
                 memory_bytes: int = SUN_ULTRA_MEMORY) -> Cluster:
    """Same workstations behind a full-duplex switch (contention ablation)."""
    specs = _worker_specs(workers, flops, memory_bytes)
    if manager_node:
        specs = [NodeSpec(name="manager", flops=flops, memory_bytes=memory_bytes)] + specs
    return Cluster(specs, interconnect=SwitchedNetwork(HUNDRED_BASE_T), name="switched-lan")


def shared_memory_smp(processors: int = 16, *, flops: float = SUN_ULTRA_FLOPS,
                      memory_bytes: int = 2 * 1024 * 1024 * 1024) -> Cluster:
    """A single shared-memory multiprocessor.

    Each processor is modelled as a separate "node" so placement and
    processor-sharing accounting keep working, but all of them communicate
    through :class:`SharedMemoryInterconnect`, whose per-message cost is a few
    microseconds of synchronisation regardless of size.  The manager runs on
    ``cpu00``.
    """
    specs = [NodeSpec(name=f"cpu{i:02d}", flops=flops,
                      memory_bytes=memory_bytes // max(processors, 1))
             for i in range(processors + 1)]
    return Cluster(specs, interconnect=SharedMemoryInterconnect(), name="shared-memory-smp")


__all__ = [
    "SUN_ULTRA_FLOPS",
    "SUN_ULTRA_MEMORY",
    "HUNDRED_BASE_T",
    "sun_ultra_lan",
    "switched_lan",
    "shared_memory_smp",
]
