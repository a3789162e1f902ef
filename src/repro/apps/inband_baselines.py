"""The purpose-built in-band mechanisms §4 contrasts TPPs with.

"There have been numerous efforts to expose switch statistics through the
dataplane ... One example is Explicit Congestion Notification (ECN) in
which a router stamps a bit in the IP header whenever the egress queue
occupancy exceeds a configurable threshold.  Another example is IP Record
Route, an IP option that enables routers to insert the interface IP
address on the packet.  Instead of anticipating future requirements and
designing specific solutions, we adopt a more generic approach."

Both mechanisms are implemented here as switch dataplane hooks, each the
baked-in ASIC feature it would be in practice:

- :func:`install_ecn` — threshold marking of the CE codepoint, plus
  :class:`ECNFlow`, a DCTCP-flavoured end-host responder, so the
  comparison benches can run a real congestion-control loop over it;
- :func:`install_record_route` — RFC 791-style route recording into
  preallocated option slots.

What the comparison shows (see ``benchmarks/test_sec4_comparison.py``):
each mechanism answers exactly one question fixed at ASIC design time —
"was some queue above a threshold?" (one bit), "which routers did I
cross?" (addresses only) — whereas the same read-only TPP machinery
answers both *and* carries the quantitative state (how big, which queue,
what utilization) that RCP*/ndb/micro-burst detection need.
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.timeseries import TimeSeries
from repro.asic.switch import TPPSwitch
from repro.endhost.flows import Flow, FlowSink
from repro.net.host import Host
from repro.net.packet import Datagram, EthernetFrame
from repro.sim.timers import PeriodicTimer

ECN_NOT_ECT = 0
ECN_ECT = 1
ECN_CE = 3

DEFAULT_MARK_THRESHOLD_BYTES = 30_000


def install_ecn(switches: Sequence[TPPSwitch],
                threshold_bytes: int = DEFAULT_MARK_THRESHOLD_BYTES) -> None:
    """Add ECN marking to every switch: ECT packets that find their
    egress queue above the threshold are re-stamped CE."""
    for switch in switches:
        switch.datagram_hooks.append(_ecn_hook(threshold_bytes))


def _ecn_hook(threshold_bytes: int):
    def hook(frame, datagram, metadata, egress_port) -> None:
        if datagram.ecn != ECN_ECT:
            return
        queue = egress_port.queue_for(metadata.queue_id)
        if queue.backlog_bytes > threshold_bytes:
            datagram.ecn = ECN_CE
    return hook


def install_record_route(switches: Sequence[TPPSwitch]) -> None:
    """Add RFC 791 record-route behaviour to every switch: packets whose
    datagram carries the option get the switch id appended while
    preallocated slots remain."""
    for switch in switches:
        switch.datagram_hooks.append(_record_route_hook(switch))


def _record_route_hook(switch: TPPSwitch):
    def hook(frame, datagram, metadata, egress_port) -> None:
        record = datagram.route_record
        if record is None:
            return
        if len(record) < datagram.route_record_slots:
            record.append(switch.switch_id)
    return hook


#: ECNFlow's additive increase per unmarked window, as a fraction of
#: the bottleneck capacity.
ECN_INCREASE_FRACTION = 0.03


class ECNFlow:
    """A DCTCP-flavoured rate controller driven by CE marks.

    The receiver echoes each packet's ECN codepoint in a feedback
    datagram; the sender maintains the DCTCP fraction estimate
    ``alpha <- (1-g) alpha + g F`` over windows of feedback and adjusts
    its pacing rate: multiplicative decrease by ``alpha/2`` when marks
    arrive, additive increase otherwise.
    """

    def __init__(self, index: int, src: Host, dst: Host, dst_mac: int,
                 src_mac: int, capacity_bps: float,
                 packet_bytes: int = 1000,
                 update_interval_ns: int = 10_000_000,
                 gain: float = 0.3) -> None:
        self.index = index
        self.src = src
        self.dst = dst
        self.src_mac = src_mac
        self.capacity_bps = capacity_bps
        self.gain = gain
        self.increase_bps = ECN_INCREASE_FRACTION * capacity_bps
        self.alpha = 0.0
        self._window_packets = 0
        self._window_marked = 0

        data_port = 44000 + index
        feedback_port = 45000 + index
        self._feedback_port = feedback_port
        self.flow = Flow(src, dst, dst_mac, data_port,
                         rate_bps=max(1, int(0.05 * capacity_bps)),
                         packet_bytes=packet_bytes,
                         frame_factory=self._make_frame)
        self.sink = FlowSink(dst, data_port)
        self.rate_series = TimeSeries(f"ecn-flow{index}.rate")
        self.marks_seen = 0
        src.on_udp_port(feedback_port, self._on_feedback)
        self._updater = PeriodicTimer(src.sim, update_interval_ns,
                                      self._update_rate)

    # -- sender side ----------------------------------------------------- #

    def _make_frame(self, flow: Flow, packet_bytes: int) -> EthernetFrame:
        datagram = flow.make_datagram(packet_bytes)
        datagram.ecn = ECN_ECT
        from repro.net.packet import ETHERTYPE_IPV4
        return EthernetFrame(dst=flow.dst_mac, src=flow.src.mac,
                             ethertype=ETHERTYPE_IPV4, payload=datagram)

    def _on_feedback(self, datagram: Datagram, frame) -> None:
        self._window_packets += 1
        if datagram.ecn == ECN_CE:
            self._window_marked += 1
            self.marks_seen += 1

    def _update_rate(self) -> None:
        fraction = 0.0
        if self._window_packets:
            fraction = self._window_marked / self._window_packets
            self.alpha += self.gain * (fraction - self.alpha)
        self._window_packets = 0
        self._window_marked = 0
        rate = self.flow.rate_bps
        if fraction > 0:
            # DCTCP: scale the cut by the smoothed mark fraction, but
            # only in windows that actually saw marks.
            rate = rate * (1 - self.alpha / 2)
        else:
            rate = rate + self.increase_bps
        rate = min(self.capacity_bps, max(0.01 * self.capacity_bps, rate))
        self.flow.set_rate(int(rate))
        self.rate_series.append(self.src.sim.now_ns, rate)

    # -- receiver side ----------------------------------------------------- #

    def attach_receiver(self) -> None:
        """Echo every data packet's ECN codepoint back to the sender."""
        self.dst.on_udp_port(self.flow.udp_port, self._on_data)

    def _on_data(self, datagram: Datagram, frame) -> None:
        self.sink._on_datagram(datagram, frame)
        feedback = Datagram(src_ip=self.dst.ip, dst_ip=self.src.ip,
                            src_port=self._feedback_port,
                            dst_port=self._feedback_port,
                            payload=None, ecn=datagram.ecn)
        self.dst.send_datagram(self.src_mac, feedback)

    def start(self) -> None:
        """Register the receiver, start pacing and the control loop."""
        self.attach_receiver()
        self.flow.start()
        self._updater.start()

def send_record_route_probe(src: Host, dst: Host, dst_mac: int,
                            slots: int = 9, dst_port: int = 46000) -> Datagram:
    """Emit one record-route datagram; the returned object's
    ``route_record`` fills in as it crosses switches."""
    datagram = Datagram(src_ip=src.ip, dst_ip=dst.ip, src_port=dst_port,
                        dst_port=dst_port, payload=None,
                        route_record_slots=slots)
    src.send_datagram(dst_mac, datagram)
    return datagram
