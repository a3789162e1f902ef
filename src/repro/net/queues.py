"""Drop-tail queues with byte-accurate occupancy tracking.

Queue occupancy is the statistic at the heart of the paper's first example
(micro-burst detection reads ``[Queue:QueueSize]``), so queues track bytes
exactly: a packet contributes its full wire size from the moment it is
admitted until the moment its last bit has been serialized onto the link.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Deque, Optional

from repro.net.packet import EthernetFrame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.port import Port


@dataclass
class QueueStats:
    """Running counters exported into the ``Queue:`` namespace (Table 2)."""

    bytes_enqueued: int = 0
    bytes_dropped: int = 0
    packets_enqueued: int = 0
    packets_dropped: int = 0
    peak_occupancy_bytes: int = 0


class DropTailQueue:
    """A FIFO byte-bounded queue.

    ``capacity_bytes`` bounds the sum of wire sizes of queued packets;
    arrivals that would exceed it are dropped (tail drop).  Occupancy
    includes the packet currently being transmitted — matching how an
    egress buffer behaves in the ASIC of Figure 3, where the memory manager
    tracks per-queue occupancy until the scheduler has drained the packet.

    The queue is state of the owning :class:`~repro.net.port.Port`: the
    port admits frames into :attr:`waiting`, moves the head onto the wire
    and keeps :attr:`backlog_bytes` exact; whether this queue's frame is
    still on the wire is read from the port's wire record.
    """

    def __init__(self, capacity_bytes: int = 512 * 1024,
                 port: Optional["Port"] = None) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.port = port
        self.stats = QueueStats()
        #: Frames admitted and not yet on the wire, head first.
        self.waiting: Deque[EthernetFrame] = deque()
        #: Bytes waiting behind the packet currently being transmitted.
        self.backlog_bytes = 0

    def __len__(self) -> int:
        return len(self.waiting)

    @property
    def occupancy_bytes(self) -> int:
        """Bytes buffered, including this queue's packet on the wire
        until its serialization ends."""
        port = self.port
        if (port is not None and port.wire_queue is self
                and port.sim.now_ns < port.wire_until_ns):
            return self.backlog_bytes + port.wire_frame.size_bytes
        return self.backlog_bytes
