"""End-host device.

A host has a single port, a MAC and an IPv4 address, and a registry of
protocol handlers:

- frames whose ethertype has a registered handler are dispatched to it
  (the TPP client in :mod:`repro.endhost` registers for
  :data:`~repro.net.packet.ETHERTYPE_TPP`);
- IPv4/UDP datagrams are dispatched to the handler bound to their
  destination UDP port (flows, RCP receivers, ndb collectors).

Hosts are "fully programmable" in the paper's architecture — all the
expressive task logic lives in handlers attached here.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.errors import ConfigurationError
from repro.net.device import Device
from repro.net.packet import (
    ETHERTYPE_IPV4,
    Datagram,
    EthernetFrame,
)
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder

FrameHandler = Callable[[EthernetFrame], None]
DatagramHandler = Callable[[Datagram, EthernetFrame], None]


class Host(Device):
    """A single-homed end-host."""

    def __init__(self, sim: Simulator, name: str, mac: int, ip: int,
                 trace: Optional[TraceRecorder] = None) -> None:
        super().__init__(sim, name, trace)
        self.mac = mac
        self.ip = ip
        self._ethertype_handlers: Dict[int, FrameHandler] = {}
        self._udp_handlers: Dict[int, DatagramHandler] = {}
        self.frames_received = 0
        self.frames_sent = 0
        self.undelivered_frames = 0

    # ------------------------------------------------------------------ #
    # Sending
    # ------------------------------------------------------------------ #

    def send_frame(self, frame: EthernetFrame) -> bool:
        """Transmit a pre-built frame out of the host's port."""
        if not self.ports:
            raise ConfigurationError(f"host {self.name} has no port")
        self.frames_sent += 1
        return self.ports[0].enqueue(frame)

    def send_datagram(self, dst_mac: int, datagram: Datagram) -> bool:
        """Wrap a datagram in an Ethernet frame and transmit it."""
        frame = EthernetFrame(dst=dst_mac, src=self.mac,
                              ethertype=ETHERTYPE_IPV4, payload=datagram)
        return self.send_frame(frame)

    # ------------------------------------------------------------------ #
    # Receiving
    # ------------------------------------------------------------------ #

    def on_ethertype(self, ethertype: int, handler: FrameHandler) -> None:
        """Register a handler for a whole ethertype (e.g. TPP)."""
        self._ethertype_handlers[ethertype] = handler

    def on_udp_port(self, port: int, handler: DatagramHandler) -> None:
        """Register a handler for datagrams addressed to a UDP port."""
        self._udp_handlers[port] = handler

    def deliver_datagram(self, datagram: Datagram,
                         frame: EthernetFrame) -> bool:
        """Dispatch a datagram to its UDP-port handler.

        Returns ``False`` (and counts the frame undelivered) when no
        handler is bound.  Used both by normal receive and by the TPP
        endpoint when unwrapping encapsulated payloads.
        """
        handler = self._udp_handlers.get(datagram.dst_port)
        if handler is None:
            self.undelivered_frames += 1
            return False
        handler(datagram, frame)
        return True

    def receive(self, frame: EthernetFrame, in_port: int) -> None:
        port = self.ports[in_port]
        port.rx_bytes += frame.size_bytes
        port.rx_frames += 1
        self.frames_received += 1
        handler = self._ethertype_handlers.get(frame.ethertype)
        if handler is not None:
            handler(frame)
            return
        if frame.ethertype == ETHERTYPE_IPV4 and isinstance(frame.payload,
                                                            Datagram):
            if self.deliver_datagram(frame.payload, frame):
                return
        else:
            self.undelivered_frames += 1
        if self.trace.wants("host.undelivered"):
            self.trace.emit(self.sim.now_ns, self.name, "host.undelivered",
                            frame_uid=frame.uid, ethertype=frame.ethertype)
