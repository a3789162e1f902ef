"""Drop-tail queues with byte-accurate occupancy tracking.

Queue occupancy is the statistic at the heart of the paper's first example
(micro-burst detection reads ``[Queue:QueueSize]``), so queues track bytes
exactly: a packet contributes its full wire size from the moment it is
admitted until the moment its last bit has been serialized onto the link.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.net.packet import EthernetFrame


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
    includes the packet currently being transmitted — its bytes are released
    by :meth:`transmit_complete` — matching how an egress buffer behaves in
    the ASIC of Figure 3, where the memory manager tracks per-queue
    occupancy until the scheduler has drained the packet.
    """

    def __init__(self, capacity_bytes: int = 512 * 1024) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"capacity must be positive: {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.stats = QueueStats()
        self._packets: Deque[EthernetFrame] = deque()
        self._occupancy_bytes = 0
        self._in_flight_bytes = 0

    def __len__(self) -> int:
        return len(self._packets)

    @property
    def occupancy_bytes(self) -> int:
        """Bytes buffered, including the packet on the wire right now."""
        return self._occupancy_bytes + self._in_flight_bytes

    @property
    def backlog_bytes(self) -> int:
        """Bytes waiting behind the packet currently being transmitted."""
        return self._occupancy_bytes

    def offer(self, frame: EthernetFrame) -> bool:
        """Try to enqueue; returns ``False`` (and counts a drop) if full."""
        size = frame.size_bytes
        stats = self.stats
        # Compute the would-be occupancy once instead of going through the
        # occupancy_bytes property three times — this runs per admitted
        # frame on every hop.
        occupancy = self._occupancy_bytes + self._in_flight_bytes + size
        if occupancy > self.capacity_bytes:
            stats.bytes_dropped += size
            stats.packets_dropped += 1
            return False
        self._packets.append(frame)
        self._occupancy_bytes += size
        stats.bytes_enqueued += size
        stats.packets_enqueued += 1
        if occupancy > stats.peak_occupancy_bytes:
            stats.peak_occupancy_bytes = occupancy
        return True

    def begin_transmit(self) -> Optional[EthernetFrame]:
        """Dequeue the head packet for transmission.

        The packet's bytes stay in :attr:`occupancy_bytes` until
        :meth:`transmit_complete` is called with it.
        """
        if not self._packets:
            return None
        frame = self._packets.popleft()
        self._occupancy_bytes -= frame.size_bytes
        self._in_flight_bytes += frame.size_bytes
        return frame

    def transmit_complete(self, frame: EthernetFrame) -> None:
        """Release the bytes of a packet whose serialization finished."""
        self._in_flight_bytes -= frame.size_bytes
        if self._in_flight_bytes < 0:
            raise RuntimeError("transmit_complete without begin_transmit")
