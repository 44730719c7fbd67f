"""Network interconnect models.

The paper's workstations are connected by 100BaseT Ethernet.  At the message
sizes exchanged by the manager/worker decomposition (sub-cubes of hundreds of
kilobytes to a few megabytes) the dominant cost is serialisation onto the
wire -- bytes divided by bandwidth -- plus a fixed per-message software
overhead (protocol stack, SCPlib envelope handling).  Two interconnects are
modelled:

``SharedEthernet``
    A single collision domain (hub-based 100BaseT, as was typical in 1999):
    only one frame is on the wire at a time, so concurrent transfers queue up
    behind each other.  This is what makes communication overhead grow with
    the number of workers and is responsible for the speed-up roll-off in
    Figure 4.

``SwitchedNetwork``
    Full-duplex switched fabric: transfers on distinct (source, destination)
    pairs proceed independently; transfers sharing an endpoint serialise on
    that endpoint's link.

``SharedMemoryInterconnect``
    Used for the shared-memory ablation (Section 4): transfers cost only a
    small, size-independent synchronisation overhead, reflecting the paper's
    observation that "no communication overhead [is] involved" on an SMP.

All models expose the same interface: :meth:`transfer_window`, which given the
message size, the endpoints, and the earliest possible start time returns the
``(start, finish)`` pair of the transfer in virtual time, updating internal
channel-availability bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..logging_utils import get_logger

_LOG = get_logger("cluster.network")


@dataclass(frozen=True)
class LinkSpec:
    """Static parameters of a network technology.

    Attributes
    ----------
    bandwidth_bytes_per_s:
        Sustained application-level throughput.  100BaseT delivers roughly
        11 MB/s of user payload once framing and TCP overheads are accounted.
    latency_s:
        One-way propagation plus interrupt latency per message.
    per_message_overhead_s:
        Software cost of assembling/parsing an SCPlib message envelope.
    """

    bandwidth_bytes_per_s: float = 11.0e6
    latency_s: float = 1.0e-3
    per_message_overhead_s: float = 0.5e-3

    def __post_init__(self) -> None:
        if self.bandwidth_bytes_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        if self.latency_s < 0 or self.per_message_overhead_s < 0:
            raise ValueError("latencies must be non-negative")

    def wire_time(self, nbytes: int) -> float:
        """Time the payload occupies the shared medium."""
        return nbytes / self.bandwidth_bytes_per_s

    def message_cost(self, nbytes: int) -> float:
        """End-to-end cost of an uncontended message of ``nbytes``."""
        return self.latency_s + self.per_message_overhead_s + self.wire_time(nbytes)


class BaseInterconnect:
    """Common interface of the interconnect models."""

    def __init__(self, link: LinkSpec) -> None:
        self.link = link
        self._bytes_sent = 0
        self._messages_sent = 0
        self._busy_time = 0.0

    # ------------------------------------------------------------ accounting
    @property
    def bytes_sent(self) -> int:
        return self._bytes_sent

    @property
    def messages_sent(self) -> int:
        return self._messages_sent

    @property
    def busy_time(self) -> float:
        """Total time the fabric spent carrying payload (contention metric)."""
        return self._busy_time

    def _account(self, nbytes: int, wire_time: float) -> None:
        self._bytes_sent += nbytes
        self._messages_sent += 1
        self._busy_time += wire_time

    # --------------------------------------------------------------- routing
    def transfer_window(self, src: str, dst: str, nbytes: int, earliest: float
                        ) -> Tuple[float, float]:
        """Return ``(start, finish)`` virtual times for a transfer.

        ``earliest`` is the time the sender has the message ready.  The
        returned ``finish`` is when the last byte (plus latency) arrives at
        the receiver.  Implementations update their channel availability so a
        subsequent call sees the contention created by this transfer.
        """
        raise NotImplementedError

    def local_delivery_time(self) -> float:
        """Cost of a message between two threads on the same node."""
        return self.link.per_message_overhead_s

    def reset(self) -> None:
        self._bytes_sent = 0
        self._messages_sent = 0
        self._busy_time = 0.0


class SharedEthernet(BaseInterconnect):
    """Single-collision-domain Ethernet (hub-based 100BaseT)."""

    def __init__(self, link: LinkSpec | None = None) -> None:
        super().__init__(link or LinkSpec())
        self._medium_free_at = 0.0

    def transfer_window(self, src: str, dst: str, nbytes: int, earliest: float
                        ) -> Tuple[float, float]:
        if src == dst:
            finish = earliest + self.local_delivery_time()
            return earliest, finish
        wire = self.link.wire_time(nbytes)
        start = max(earliest + self.link.per_message_overhead_s, self._medium_free_at)
        finish = start + wire + self.link.latency_s
        self._medium_free_at = start + wire
        self._account(nbytes, wire)
        return start, finish

    def reset(self) -> None:
        super().reset()
        self._medium_free_at = 0.0


class SwitchedNetwork(BaseInterconnect):
    """Full-duplex switched network; contention only on shared endpoints."""

    def __init__(self, link: LinkSpec | None = None) -> None:
        super().__init__(link or LinkSpec())
        self._tx_free_at: Dict[str, float] = {}
        self._rx_free_at: Dict[str, float] = {}

    def transfer_window(self, src: str, dst: str, nbytes: int, earliest: float
                        ) -> Tuple[float, float]:
        if src == dst:
            finish = earliest + self.local_delivery_time()
            return earliest, finish
        wire = self.link.wire_time(nbytes)
        start = max(earliest + self.link.per_message_overhead_s,
                    self._tx_free_at.get(src, 0.0),
                    self._rx_free_at.get(dst, 0.0))
        finish = start + wire + self.link.latency_s
        self._tx_free_at[src] = start + wire
        self._rx_free_at[dst] = start + wire
        self._account(nbytes, wire)
        return start, finish


class SharedMemoryInterconnect(BaseInterconnect):
    """In-memory hand-off used by the shared-memory (SMP) ablation."""

    def __init__(self, sync_overhead_s: float = 5.0e-6) -> None:
        # Bandwidth is effectively memory bandwidth; messages are hand-offs of
        # references, so size plays essentially no role.
        super().__init__(LinkSpec(bandwidth_bytes_per_s=2.0e9, latency_s=0.0,
                                  per_message_overhead_s=sync_overhead_s))

    def transfer_window(self, src: str, dst: str, nbytes: int, earliest: float
                        ) -> Tuple[float, float]:
        start = earliest
        finish = earliest + self.link.per_message_overhead_s
        self._account(nbytes, 0.0)
        return start, finish


__all__ = [
    "LinkSpec",
    "BaseInterconnect",
    "SharedEthernet",
    "SwitchedNetwork",
    "SharedMemoryInterconnect",
]
