"""Paced UDP flows with receiver-side accounting.

A :class:`Flow` is the unit every congestion-control experiment works in:
a paced sender emitting fixed-size datagrams from one host to a UDP port on
another, with a :class:`FlowSink` at the receiver recording arrivals so
goodput and convergence can be measured.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.endhost.rate_limiter import PacedSender
from repro.net.host import Host
from repro.net.packet import (
    ETHERTYPE_IPV4,
    Datagram,
    EthernetFrame,
    RawPayload,
)

#: Customization hook: builds the frame for one emission given the flow
#: and the target wire size.  The default builds a plain IPv4/UDP frame;
#: RCP attaches its congestion header here and ndb wraps the datagram in
#: a trace TPP.
FrameFactory = Callable[["Flow", int], EthernetFrame]


class FlowSink:
    """Receiver side: counts bytes per flow arriving on a UDP port."""

    def __init__(self, host: Host, udp_port: int) -> None:
        self.host = host
        self.udp_port = udp_port
        self.bytes_received = 0
        self.packets_received = 0
        self.arrivals: List[Tuple[int, int]] = []  # (time_ns, bytes)
        host.on_udp_port(udp_port, self._on_datagram)

    def _on_datagram(self, datagram: Datagram, frame: EthernetFrame) -> None:
        size = datagram.size_bytes
        self.bytes_received += size
        self.packets_received += 1
        self.arrivals.append((self.host.sim.now_ns, size))

    def goodput_bps(self, window_start_ns: int, window_end_ns: int) -> float:
        """Average received rate over a time window."""
        if window_end_ns <= window_start_ns:
            return 0.0
        window_bytes = sum(size for time_ns, size in self.arrivals
                           if window_start_ns <= time_ns < window_end_ns)
        return window_bytes * 8 / ((window_end_ns - window_start_ns) / 1e9)


class Flow:
    """Sender side: a paced stream of datagrams to a sink."""

    def __init__(self, src: Host, dst: Host, dst_mac: int, udp_port: int,
                 rate_bps: int, packet_bytes: int = 1000,
                 src_port: int = 40000,
                 frame_factory: Optional[FrameFactory] = None) -> None:
        self.src = src
        self.dst = dst
        self.dst_mac = dst_mac
        self.udp_port = udp_port
        self.src_port = src_port
        self.packet_bytes = packet_bytes
        self.frame_factory = frame_factory
        self.sender = PacedSender(src.sim, rate_bps, packet_bytes,
                                  self._emit)
        self.rate_history: List[Tuple[int, int]] = []  # (time_ns, rate_bps)

    @property
    def rate_bps(self) -> int:
        """Current pacing rate."""
        return self.sender.rate_bps

    def set_rate(self, rate_bps: int) -> None:
        """Adjust the pacing rate (recorded for later analysis)."""
        self.sender.set_rate(rate_bps)
        self.rate_history.append((self.src.sim.now_ns, self.sender.rate_bps))

    def start(self) -> None:
        """Start sending."""
        self.rate_history.append((self.src.sim.now_ns, self.sender.rate_bps))
        self.sender.start()

    def stop(self) -> None:
        """Stop sending."""
        self.sender.stop()

    @property
    def packets_sent(self) -> int:
        return self.sender.packets_sent

    def make_datagram(self, packet_bytes: int,
                      shim_bytes: int = 0) -> Datagram:
        """Build one data datagram whose enclosing frame will have the
        target wire size (``shim_bytes`` accounts for extra headers the
        frame factory will add, e.g. an RCP shim or a TPP section)."""
        overhead = 14 + 4 + 20 + 8 + shim_bytes  # eth + fcs + ipv4 + udp
        payload_bytes = max(0, packet_bytes - overhead)
        return Datagram(src_ip=self.src.ip, dst_ip=self.dst.ip,
                        src_port=self.src_port, dst_port=self.udp_port,
                        payload=RawPayload(payload_bytes))

    def _emit(self, packet_bytes: int) -> None:
        if self.frame_factory is not None:
            frame = self.frame_factory(self, packet_bytes)
        else:
            frame = EthernetFrame(dst=self.dst_mac, src=self.src.mac,
                                  ethertype=ETHERTYPE_IPV4,
                                  payload=self.make_datagram(packet_bytes))
        self.src.send_frame(frame)
