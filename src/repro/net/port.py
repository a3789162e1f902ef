"""A device port: egress queue(s) draining onto a link, plus RX accounting.

The port implements store-and-forward output: frames wait in one or more
drop-tail queues; when the link goes idle the port serves the
lowest-indexed non-empty queue (FIFO for one queue, strict priority for
more — Figure 3's "egress queues and scheduling" block), whose head frame
occupies the wire for its serialization time and is then handed to the
link for propagation.  A frame that reaches an idle port goes straight
onto the wire: an idle port's queues are all empty.  All the per-port
statistics the paper's ``Link:`` namespace exposes (bytes
received/transmitted, drops — Table 2) are counted here; per-queue
occupancies live in the queues themselves and are what the ``Queue:``
namespace resolves to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro import units
from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.net.packet import EthernetFrame
from repro.net.queues import DropTailQueue
from repro.sim.simulator import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.device import Device


class Port:
    """One numbered port of a device."""

    def __init__(self, sim: Simulator, link: Link,
                 queue_capacity_bytes: int = 512 * 1024,
                 n_queues: int = 1) -> None:
        if n_queues < 1:
            raise ConfigurationError(f"need >= 1 queue, got {n_queues}")
        self.sim = sim
        self.link = link
        self.queues: List[DropTailQueue] = [
            DropTailQueue(queue_capacity_bytes) for _ in range(n_queues)
        ]
        self.device: Optional["Device"] = None
        self.index: int = -1
        self._transmitting = False
        # Counters (cumulative since t=0).
        self.tx_bytes = 0
        self.tx_frames = 0
        self.rx_bytes = 0
        self.rx_frames = 0

    @property
    def queue(self) -> DropTailQueue:
        """The default (highest-priority) queue — the single-queue view."""
        return self.queues[0]

    @property
    def rate_bps(self) -> int:
        """Line rate of the attached egress link."""
        return self.link.rate_bps

    def queue_for(self, queue_id: int) -> DropTailQueue:
        """The queue a packet classified to ``queue_id`` joins (clamped
        to the configured queue count, as ASICs do with bad classes)."""
        return self.queues[min(queue_id, len(self.queues) - 1)]

    def offered_bytes(self) -> int:
        """Cumulative bytes offered to this port's queues (admitted plus
        dropped) — y(t) in the RCP control equation."""
        return sum(queue.stats.bytes_enqueued + queue.stats.bytes_dropped
                   for queue in self.queues)

    def note_rx(self, frame: EthernetFrame) -> None:
        """Account a frame that arrived on this port (called by the device)."""
        self.rx_bytes += frame.size_bytes
        self.rx_frames += 1

    def enqueue(self, frame: EthernetFrame, queue_id: int = 0) -> bool:
        """Queue a frame for transmission; returns ``False`` on tail drop.

        Drop-tail admission, and on an idle port the start of the frame's
        transmission, happen here in one frame: this runs on every hop.
        """
        # Queue 0 (best effort, every single-queue port) needs no clamp.
        target = self.queue_for(queue_id) if queue_id else self.queues[0]
        size = frame.size_bytes
        stats = target.stats
        occupancy = target.backlog_bytes + target.in_flight_bytes + size
        accepted = occupancy <= target.capacity_bytes
        if not accepted:
            stats.bytes_dropped += size
            stats.packets_dropped += 1
        else:
            stats.bytes_enqueued += size
            stats.packets_enqueued += 1
            if occupancy > stats.peak_occupancy_bytes:
                stats.peak_occupancy_bytes = occupancy
            if self._transmitting:
                target.waiting.append(frame)
                target.backlog_bytes += size
            else:
                target.in_flight_bytes += size
                self._transmitting = True
                # The link's rate is read live.
                self.sim.schedule(
                    units.transmission_time_ns(size, self.link.rate_bps),
                    self._finish_transmission, frame, target)
        device = self.device
        if device is None:
            return accepted
        trace = device.trace
        if not accepted:
            if trace.wants("queue.drop"):
                trace.emit(
                    self.sim.now_ns, device.name, "queue.drop",
                    port=self.index, queue=queue_id, frame_uid=frame.uid,
                    size_bytes=size,
                )
        elif trace.firehose and trace.wants("queue.enqueue"):
            # DEBUG firehose: per-frame admission records for deep queue
            # forensics; one attribute read unless a run lowers the level.
            trace.emit(
                self.sim.now_ns, device.name, "queue.enqueue",
                port=self.index, queue=queue_id, frame_uid=frame.uid,
                size_bytes=size,
                occupancy_bytes=target.occupancy_bytes,
            )
        return accepted

    def _finish_transmission(self, frame: EthernetFrame,
                             queue: DropTailQueue) -> None:
        size = frame.size_bytes
        queue.in_flight_bytes -= size
        self.tx_bytes += size
        self.tx_frames += 1
        self.link.deliver_after_propagation(frame)
        # Strict priority: the lowest-indexed non-empty queue sends next
        # (FIFO when there is one queue).
        for queue in self.queues:
            waiting = queue.waiting
            if waiting:
                frame = waiting.popleft()
                size = frame.size_bytes
                queue.backlog_bytes -= size
                queue.in_flight_bytes += size
                self.sim.schedule(
                    units.transmission_time_ns(size, self.link.rate_bps),
                    self._finish_transmission, frame, queue)
                return
        self._transmitting = False
