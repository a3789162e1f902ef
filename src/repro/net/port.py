"""A device port: egress queue(s) draining onto a link, plus RX accounting.

The port implements store-and-forward output: frames wait in one or more
drop-tail queues; when the link is idle a scheduler (FIFO for one queue,
strict priority for more — Figure 3's "egress queues and scheduling"
block) picks the next queue, whose head frame
occupies the wire for its serialization time and is then handed to the
link for propagation.  All the per-port statistics the paper's ``Link:``
namespace exposes (bytes received/transmitted, drops — Table 2) are
counted here; per-queue occupancies live in the queues themselves and are
what the ``Queue:`` namespace resolves to.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro import units
from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.net.packet import EthernetFrame
from repro.net.queues import DropTailQueue
from repro.net.schedulers import (
    FifoScheduler,
    Scheduler,
    StrictPriorityScheduler,
)
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
        self.scheduler: Scheduler = (FifoScheduler() if n_queues == 1
                                     else StrictPriorityScheduler())
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
        """Queue a frame for transmission; returns ``False`` on tail drop."""
        # Queue 0 (best effort, every single-queue port) needs no clamp.
        target = self.queue_for(queue_id) if queue_id else self.queues[0]
        accepted = target.offer(frame)
        if accepted and not self._transmitting:
            self._begin_next_transmission()
        device = self.device
        if device is None:
            return accepted
        trace = device.trace
        if not accepted:
            if trace.wants("queue.drop"):
                trace.emit(
                    self.sim.now_ns, device.name, "queue.drop",
                    port=self.index, queue=queue_id, frame_uid=frame.uid,
                    size_bytes=frame.size_bytes,
                )
        elif trace.firehose and trace.wants("queue.enqueue"):
            # DEBUG firehose: per-frame admission records for deep queue
            # forensics; one attribute read unless a run lowers the level.
            trace.emit(
                self.sim.now_ns, device.name, "queue.enqueue",
                port=self.index, queue=queue_id, frame_uid=frame.uid,
                size_bytes=frame.size_bytes,
                occupancy_bytes=target.occupancy_bytes,
            )
        return accepted

    def _begin_next_transmission(self) -> None:
        queue_index = self.scheduler.select(self.queues)
        if queue_index is None:
            self._transmitting = False
            return
        frame = self.queues[queue_index].begin_transmit()
        assert frame is not None, "scheduler picked an empty queue"
        self._transmitting = True
        # The link's rate is read live.
        tx_time = units.transmission_time_ns(frame.size_bytes,
                                             self.link.rate_bps)
        self.sim.schedule(tx_time, self._finish_transmission, frame,
                          queue_index)

    def _finish_transmission(self, frame: EthernetFrame,
                             queue_index: int) -> None:
        self.queues[queue_index].transmit_complete(frame)
        self.tx_bytes += frame.size_bytes
        self.tx_frames += 1
        self.link.deliver_after_propagation(frame)
        # An idle port does not ask: every scheduler answers ``None`` for
        # all-empty queues without touching its state.
        if any(map(len, self.queues)):
            self._begin_next_transmission()
        else:
            self._transmitting = False
