"""In-network RCP: the Figure 2 baseline.

This is the reproduction of "the original RCP algorithm available in ns2
simulation": every link runs an :class:`RCPLinkAgent` *inside the switch*
that periodically re-evaluates the control equation from locally measured
offered load and queue occupancy, and every data packet carries an
:class:`~repro.apps.rcp_common.RCPHeader` that routers stamp down to their
link's fair share.  Deploying this for real would require a new ASIC — it
is exactly the feature TPPs let end-hosts build instead (RCP*, in
:mod:`repro.apps.rcp`).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.analysis.timeseries import TimeSeries
from repro.apps.rcp_common import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    RCPHeader,
    rcp_rate_update,
)
from repro.asic.switch import TPPSwitch
from repro.endhost.flows import Flow, FlowSink
from repro.net.host import Host
from repro.net.packet import Datagram, EthernetFrame, ETHERTYPE_IPV4
from repro.net.port import Port
from repro.sim.timers import PeriodicTimer

DEFAULT_UPDATE_INTERVAL_NS = 10_000_000  # T = 10 ms
#: How many occupancy samples the agent averages per control interval.
QUEUE_SAMPLES_PER_INTERVAL = 10


class RCPLinkAgent:
    """Per-link RCP state machine running inside a switch.

    Measures y(t) (bytes admitted to + dropped at the egress queue per
    interval) and q(t) (time-averaged occupancy), and re-evaluates R(t)
    every ``interval_ns``.
    """

    def __init__(self, switch: TPPSwitch, port: Port, rtt_s: float,
                 interval_ns: int = DEFAULT_UPDATE_INTERVAL_NS,
                 alpha: float = DEFAULT_ALPHA,
                 beta: float = DEFAULT_BETA) -> None:
        self.switch = switch
        self.port = port
        self.capacity_bps = float(port.rate_bps)
        self.rtt_s = rtt_s
        self.interval_ns = interval_ns
        self.alpha = alpha
        self.beta = beta
        # Footnote 3: the fair-share rate starts at the link capacity.
        self.rate_bps = self.capacity_bps
        self.rate_series = TimeSeries(f"{switch.name}.p{port.index}.R")
        self._offered_base = self._offered_bytes()
        self._queue_accumulator = 0
        self._queue_samples = 0
        self._sampler = PeriodicTimer(
            switch.sim, max(1, interval_ns // QUEUE_SAMPLES_PER_INTERVAL),
            self._sample_queue)
        self._updater = PeriodicTimer(switch.sim, interval_ns, self._update)

    def start(self) -> None:
        """Begin measuring and updating."""
        self.rate_series.append(self.switch.sim.now_ns, self.rate_bps)
        self._sampler.start()
        self._updater.start()

    def stamp(self, header: RCPHeader) -> None:
        """Lower the packet's advertised rate to this link's fair share."""
        if self.rate_bps < header.rate_bps:
            header.rate_bps = self.rate_bps

    def _offered_bytes(self) -> int:
        stats = self.port.queue.stats
        return stats.bytes_enqueued + stats.bytes_dropped

    def _sample_queue(self) -> None:
        self._queue_accumulator += self.port.queue.backlog_bytes
        self._queue_samples += 1

    def _update(self) -> None:
        offered = self._offered_bytes()
        interval_s = self.interval_ns / 1e9
        offered_bps = (offered - self._offered_base) * 8 / interval_s
        self._offered_base = offered
        if self._queue_samples:
            queue_bits = self._queue_accumulator / self._queue_samples * 8
        else:
            queue_bits = self.port.queue.backlog_bytes * 8
        self._queue_accumulator = 0
        self._queue_samples = 0
        self.rate_bps = rcp_rate_update(
            self.rate_bps, self.capacity_bps, offered_bps, queue_bits,
            interval_s, self.rtt_s, self.alpha, self.beta)
        self.rate_series.append(self.switch.sim.now_ns, self.rate_bps)


class RCPRouterNetwork:
    """Installs RCP agents on switch ports and the stamping dataplane hook."""

    def __init__(self, switches: List[TPPSwitch], rtt_s: float,
                 interval_ns: int = DEFAULT_UPDATE_INTERVAL_NS,
                 alpha: float = DEFAULT_ALPHA,
                 beta: float = DEFAULT_BETA) -> None:
        self.agents: Dict[Tuple[str, int], RCPLinkAgent] = {}
        for switch in switches:
            for port in switch.ports:
                agent = RCPLinkAgent(switch, port, rtt_s, interval_ns,
                                     alpha, beta)
                self.agents[(switch.name, port.index)] = agent
            switch.datagram_hooks.append(self._make_hook(switch))

    def _make_hook(self, switch: TPPSwitch):
        def hook(frame, datagram, metadata, egress_port) -> None:
            header = datagram.congestion_header
            if isinstance(header, RCPHeader):
                agent = self.agents.get((switch.name, egress_port.index))
                if agent is not None:
                    agent.stamp(header)
        return hook

    def agent(self, switch_name: str, port_index: int) -> RCPLinkAgent:
        """The agent for one link."""
        return self.agents[(switch_name, port_index)]

    def start(self) -> None:
        """Start every agent."""
        for agent in self.agents.values():
            agent.start()

FEEDBACK_PORT_BASE = 50000


class RCPBaselineFlow:
    """Sender + receiver endpoints for the in-network baseline.

    The sender paces at the last rate fed back by the receiver; every data
    packet carries an RCP shim initialized to the link capacity (i.e.
    "as much as you'll give me") which routers stamp down; the receiver
    echoes the stamped value in a small feedback datagram.
    """

    def __init__(self, index: int, src: Host, dst: Host, dst_mac: int,
                 src_mac: int, capacity_bps: float, rtt_ns: int,
                 packet_bytes: int = 1000) -> None:
        self.index = index
        self.src = src
        self.dst = dst
        self.src_mac = src_mac
        self.capacity_bps = capacity_bps
        self.rtt_ns = rtt_ns
        data_port = 41000 + index
        feedback_port = FEEDBACK_PORT_BASE + index
        self._feedback_port = feedback_port
        self.flow = Flow(src, dst, dst_mac, data_port,
                         rate_bps=max(1, int(capacity_bps * 0.05)),
                         packet_bytes=packet_bytes,
                         frame_factory=self._make_frame)
        self.sink = FlowSink(dst, data_port)
        self.rate_feedback = TimeSeries(f"rcp-flow{index}.rate")
        src.on_udp_port(feedback_port, self._on_feedback)

    # -- sender side --------------------------------------------------- #

    def _make_frame(self, flow: Flow, packet_bytes: int) -> EthernetFrame:
        header = RCPHeader(rate_bps=self.capacity_bps, rtt_ns=self.rtt_ns)
        datagram = flow.make_datagram(packet_bytes,
                                      shim_bytes=header.size_bytes)
        datagram.congestion_header = header
        return EthernetFrame(dst=flow.dst_mac, src=flow.src.mac,
                             ethertype=ETHERTYPE_IPV4, payload=datagram)

    def _on_feedback(self, datagram: Datagram, frame: EthernetFrame) -> None:
        header = datagram.congestion_header
        if not isinstance(header, RCPHeader):
            return
        self.flow.set_rate(int(header.rate_bps))
        self.rate_feedback.append(self.src.sim.now_ns, header.rate_bps)

    # -- receiver side -------------------------------------------------- #

    def attach_receiver(self) -> None:
        """Route the flow's data packets through the feedback generator."""
        self.dst.on_udp_port(self.flow.udp_port, self._on_data)

    def _on_data(self, datagram: Datagram, frame: EthernetFrame) -> None:
        self.sink._on_datagram(datagram, frame)
        header = datagram.congestion_header
        if not isinstance(header, RCPHeader):
            return
        feedback = Datagram(src_ip=self.dst.ip, dst_ip=self.src.ip,
                            src_port=self._feedback_port,
                            dst_port=self._feedback_port,
                            payload=None,
                            congestion_header=RCPHeader(
                                rate_bps=header.rate_bps,
                                rtt_ns=header.rtt_ns))
        self.dst.send_datagram(self.src_mac, feedback)

    def start(self) -> None:
        """Register the receiver and start pacing."""
        self.attach_receiver()
        self.flow.start()
