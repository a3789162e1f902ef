"""A device port: egress queue(s) draining onto a link, plus RX accounting.

The port implements store-and-forward output: frames wait in one or more
drop-tail queues; when the wire frees the port serves the lowest-indexed
non-empty queue (FIFO for one queue, strict priority for more — Figure
3's "egress queues and scheduling" block), whose head frame occupies the
wire for its serialization time and then propagates to the peer.  A frame
that reaches an idle port goes straight onto the wire: an idle port's
queues are all empty.  All the per-port statistics the paper's ``Link:``
namespace exposes (bytes received/transmitted, drops — Table 2) are
counted here; per-queue occupancies live in the queues themselves and
are what the ``Queue:`` namespace resolves to.

No event marks the end of a serialization: the port's wire record says
whether a frame is still on the wire, and it counts as transmitted from
``wire_until_ns`` on.  A start event exists only while frames wait.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro import units
from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.net.packet import EthernetFrame
from repro.net.queues import DropTailQueue
from repro.sim.events import Event
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
        link.port = self
        self.queues: List[DropTailQueue] = [
            DropTailQueue(queue_capacity_bytes, self) for _ in range(n_queues)
        ]
        self.device: Optional["Device"] = None
        self.index: int = -1
        #: The wire record (read-only outside this class): the frame last
        #: put on the wire, the queue it left, the instant its
        #: serialization ends, and its scheduled arrival at the peer when
        #: the link took the direct path (``None`` otherwise).
        self.wire_frame: Optional[EthernetFrame] = None
        self.wire_queue: Optional[DropTailQueue] = None
        self.wire_until_ns = 0
        self.wire_arrival: Optional[Event] = None
        # A start event is pending exactly while some queue holds a frame.
        self._backlogged = False
        # Transmit counters including the frame on the wire; the public
        # ``tx_*`` views leave it out until its serialization ends.
        self._tx_bytes = 0
        self._tx_frames = 0
        # Counters (cumulative since t=0), kept by the owning device's
        # receive().
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

    @property
    def tx_bytes(self) -> int:
        """Bytes whose serialization has ended."""
        if self.sim.now_ns < self.wire_until_ns:
            return self._tx_bytes - self.wire_frame.size_bytes
        return self._tx_bytes

    @property
    def tx_frames(self) -> int:
        """Frames whose serialization has ended."""
        if self.sim.now_ns < self.wire_until_ns:
            return self._tx_frames - 1
        return self._tx_frames

    def queue_for(self, queue_id: int) -> DropTailQueue:
        """The queue a packet classified to ``queue_id`` joins (clamped
        to the configured queue count, as ASICs do with bad classes)."""
        return self.queues[min(queue_id, len(self.queues) - 1)]

    def offered_bytes(self) -> int:
        """Cumulative bytes offered to this port's queues (admitted plus
        dropped) — y(t) in the RCP control equation."""
        return sum(queue.stats.bytes_enqueued + queue.stats.bytes_dropped
                   for queue in self.queues)

    def enqueue(self, frame: EthernetFrame, queue_id: int = 0) -> bool:
        """Queue a frame for transmission; returns ``False`` on tail drop.

        Drop-tail admission, and on an idle port the start of the frame's
        transmission, happen here in one frame: this runs on every hop.
        """
        # Queue 0 (best effort, every single-queue port) needs no clamp.
        target = self.queue_for(queue_id) if queue_id else self.queues[0]
        size = frame.size_bytes
        stats = target.stats
        sim = self.sim
        now = sim.now_ns
        until = self.wire_until_ns
        occupancy = target.backlog_bytes + size
        if now < until and self.wire_queue is target:
            occupancy += self.wire_frame.size_bytes
        accepted = occupancy <= target.capacity_bytes
        if not accepted:
            stats.bytes_dropped += size
            stats.packets_dropped += 1
        else:
            stats.bytes_enqueued += size
            stats.packets_enqueued += 1
            if occupancy > stats.peak_occupancy_bytes:
                stats.peak_occupancy_bytes = occupancy
            if self._backlogged or now < until:
                target.waiting.append(frame)
                target.backlog_bytes += size
                if not self._backlogged:
                    self._backlogged = True
                    sim.schedule_at(until, self._start_next)
            else:
                # Onto the wire (``_start_next`` repeats these lines: this
                # runs on every hop).  The link's rate is read live.
                link = self.link
                until = now + units.transmission_time_ns(size, link.rate_bps)
                self.wire_frame = frame
                self.wire_queue = target
                self.wire_until_ns = until
                self._tx_bytes += size
                self._tx_frames += 1
                if link.direct:
                    arrival = until + link.delay_ns
                    self.wire_arrival = sim.schedule_at(
                        arrival, link._arrive, frame)
                    inbound = link._peer_inbound
                    if inbound is not None:
                        inbound[arrival] += 1
                else:
                    self.wire_arrival = None
                    sim.schedule_at(until, link.deliver_after_propagation,
                                    frame, sim.next_sequence)
        device = self.device
        if device is None:
            return accepted
        trace = device.trace
        if not accepted:
            if trace.wants("queue.drop"):
                trace.emit(
                    now, device.name, "queue.drop",
                    port=self.index, queue=queue_id, frame_uid=frame.uid,
                    size_bytes=size,
                )
        elif trace.firehose and trace.wants("queue.enqueue"):
            # DEBUG firehose: per-frame admission records for deep queue
            # forensics; one attribute read unless a run lowers the level.
            trace.emit(
                now, device.name, "queue.enqueue",
                port=self.index, queue=queue_id, frame_uid=frame.uid,
                size_bytes=size,
                occupancy_bytes=target.occupancy_bytes,
            )
        return accepted

    def _start_next(self) -> None:
        """The wire frees while frames wait: start the head of the
        lowest-indexed non-empty queue (strict priority; FIFO when there
        is one queue), and come back when it is serialized if any frame
        still waits."""
        for queue in self.queues:
            waiting = queue.waiting
            if waiting:
                break
        frame = waiting.popleft()
        size = frame.size_bytes
        queue.backlog_bytes -= size
        # ``enqueue``'s idle start, repeated.
        sim = self.sim
        link = self.link
        until = sim.now_ns + units.transmission_time_ns(size, link.rate_bps)
        self.wire_frame = frame
        self.wire_queue = queue
        self.wire_until_ns = until
        self._tx_bytes += size
        self._tx_frames += 1
        if link.direct:
            arrival = until + link.delay_ns
            self.wire_arrival = sim.schedule_at(arrival, link._arrive, frame)
            inbound = link._peer_inbound
            if inbound is not None:
                inbound[arrival] += 1
        else:
            self.wire_arrival = None
            sim.schedule_at(until, link.deliver_after_propagation, frame,
                            sim.next_sequence)
        for queue in self.queues:
            if queue.waiting:
                sim.schedule_at(until, self._start_next)
                return
        self._backlogged = False
