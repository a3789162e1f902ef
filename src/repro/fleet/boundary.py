"""Cross-region boundary links: message-passing instead of shared memory.

A sharded fleet partitions the topology into regions, each running on its
own :class:`~repro.sim.simulator.Simulator`.  Inside a region, links
deliver frames by scheduling events on the shared simulator; *between*
regions no object references may cross (regions can live in different
processes), so boundary traffic is carried as serialized messages:

- :class:`BoundaryLink` is the egress half.  It subclasses
  :class:`~repro.net.link.Link` so the owning
  :class:`~repro.net.port.Port` drives queueing and serialization exactly
  as for an in-region link, but at the instant serialization completes it
  appends a :class:`BoundaryMessage` — destination region, absolute
  arrival time, full wire bytes — to the region's outbox instead of
  scheduling a local event.
- :class:`BoundaryIngress` is the ingress half.  The fleet driver hands it
  the messages collected at a time barrier; it decodes the wire bytes and
  schedules the arrival at the recorded absolute instant, announcing the
  delivery in the receiving switch's ingress ledger exactly as
  ``Link._arrive`` would — so cross-shard frames still participate in
  same-instant TCPU batching.

Determinism contract
--------------------

The driver only injects messages at barriers, and a message emitted during
the window ``[T, T+Q)`` carries an arrival time ``>= T+Q`` whenever the
boundary propagation delay is at least the barrier quantum ``Q`` — the
bytes are still in flight when the barrier fires, so injecting them there
never back-dates an event.  Messages bound for one region are injected in
the canonical order :func:`injection_order` defines; the event queue is
FIFO at equal timestamps, so simultaneous arrivals replay identically
regardless of how many shards produced them.
"""

from __future__ import annotations

import random
from typing import Any, List, NamedTuple, Optional, Tuple

from repro.errors import ConfigurationError
from repro.net.link import Link
from repro.net.packet import EthernetFrame
from repro.net.port import Port
from repro.net.wire import decode_frame, encode_frame
from repro.sim.simulator import Simulator


class BoundaryMessage(NamedTuple):
    """One frame crossing a region boundary, as plain picklable data."""

    dst_region: int
    #: Absolute arrival instant in the destination region's clock (the
    #: regions' clocks are the same fleet-wide clock).
    arrival_ns: int
    #: Name of the emitting boundary link — part of the canonical
    #: injection sort key, so equal-time arrivals from different links
    #: have a total order that no shard layout can perturb.
    link_name: str
    #: Per-link emission counter (FIFO order within one link).
    seq: int
    #: Full wire encoding (``repro.net.wire``), FCS included.
    raw: bytes


def injection_order(messages: List[BoundaryMessage]) -> List[BoundaryMessage]:
    """The canonical order messages enter a region in.

    Sorted by ``(arrival_ns, link_name, seq)``: time first, then a total
    tie-break that depends only on the topology (link names) and each
    link's own FIFO order — never on which shard ran first.
    """
    return sorted(messages, key=lambda m: (m.arrival_ns, m.link_name, m.seq))


class BoundaryLink(Link):
    """The egress half of a cross-region wire.

    Owns no receiver: frames leave the region as messages.  Impairments
    are deliberately unsupported — the loss/corruption draws would have
    to be replayed identically on both sides of the boundary, and the
    fleet experiments keep their impairments on in-region links.
    """

    COUNTERS = Link.COUNTERS + ("frames_exported",)

    def __init__(self, sim: Simulator, rate_bps: int, delay_ns: int,
                 name: str, dst_region: int,
                 outbox: List[BoundaryMessage]) -> None:
        super().__init__(sim, rate_bps, delay_ns, name=name)
        self.dst_region = dst_region
        self.outbox = outbox
        self.frames_exported = 0
        self._seq = 0

    def set_impairments(self, loss_rate: float = 0.0,
                        corrupt_rate: float = 0.0,
                        duplicate_rate: float = 0.0,
                        rng: Optional[random.Random] = None) -> None:
        if loss_rate or corrupt_rate or duplicate_rate:
            raise ConfigurationError(
                f"boundary link {self.name!r} cannot be impaired; "
                "impair in-region links instead")

    def deliver_after_propagation(self, frame: EthernetFrame,
                                  order: Optional[float] = None) -> None:
        """Export the frame instead of scheduling a local arrival (the
        ingress side orders it; ``order`` is unused)."""
        if not self.up:
            self.frames_lost += 1
            return
        self.outbox.append(BoundaryMessage(
            dst_region=self.dst_region,
            arrival_ns=self.sim.now_ns + self.delay_ns,
            link_name=self.name,
            seq=self._seq,
            raw=encode_frame(frame)))
        self._seq += 1
        self.frames_exported += 1


class BoundaryIngress:
    """The ingress half: re-materializes messages inside a region.

    Bound to the gateway device and the port index the frames notionally
    arrive on.  :meth:`inject` mirrors ``Link._schedule_at_peer`` — the
    arrival is announced in the device's ``inbound_at`` ledger at
    scheduling time — and the private arrival callback mirrors
    ``Link._arrive``: retire the ledger entry, refresh ``inbound_now``,
    trace, then ``device.receive``.
    """

    COUNTERS = ("frames_injected", "bytes_injected")

    def __init__(self, sim: Simulator, device: Any, port_index: int,
                 name: str = "") -> None:
        self.sim = sim
        self.device = device
        self.port_index = port_index
        self.name = name or f"boundary->{device.name}"
        self._inbound = (device.inbound_at if device.batches_ingress
                         else None)
        self.frames_injected = 0
        self.bytes_injected = 0

    def inject(self, message: BoundaryMessage) -> None:
        """Schedule one message's arrival at its recorded instant.

        Must be called with ``message.arrival_ns`` not in the region's
        past — the driver's barrier quantum guarantees this.
        """
        frame = decode_frame(message.raw)
        event = self.sim.schedule_at(message.arrival_ns, self._arrive, frame)
        arrivals = self._inbound
        if arrivals is not None:
            arrivals[event.time_ns] += 1

    def _arrive(self, frame: EthernetFrame) -> None:
        # Mirrors Link._arrive (keep in sync): ledger retirement and the
        # inbound_now digest must behave identically for injected frames,
        # or cross-boundary arrivals would batch differently.
        self.frames_injected += 1
        self.bytes_injected += frame.size_bytes
        device = self.device
        arrivals = self._inbound
        if arrivals is not None:
            now = self.sim.now_ns
            remaining = arrivals.pop(now, 1) - 1
            if remaining > 0:
                arrivals[now] = remaining
                device.inbound_now = remaining
            else:
                device.inbound_now = 0
        trace = device.trace
        if trace.firehose and trace.wants("link.deliver"):
            trace.emit(self.sim.now_ns, self.name, "link.deliver",
                       frame_uid=frame.uid, size_bytes=frame.size_bytes,
                       dst_device=device.name, port=self.port_index)
        device.receive(frame, self.port_index)


def attach_boundary_port(net: Any, gateway: Any, dst_region: int,
                         outbox: List[BoundaryMessage], rate_bps: int,
                         delay_ns: int,
                         queue_capacity_bytes: int = 512 * 1024,
                         ingress_name: str = ""
                         ) -> Tuple[Port, int, BoundaryIngress]:
    """Give ``gateway`` one boundary port: egress to ``dst_region``,
    ingress for whatever the driver routes here.

    Returns ``(port, port_index, ingress)``.  The egress and ingress
    halves share the port index, like the two directions of an ordinary
    full-duplex link.
    """
    link = BoundaryLink(net.sim, rate_bps, delay_ns,
                        name=f"{gateway.name}->region{dst_region}",
                        dst_region=dst_region, outbox=outbox)
    port = Port(net.sim, link, queue_capacity_bytes)
    index = gateway.add_port(port)
    ingress = BoundaryIngress(net.sim, gateway, index, name=ingress_name)
    return port, index, ingress
