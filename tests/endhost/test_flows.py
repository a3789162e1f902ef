"""Paced flows and receiver accounting."""

import pytest

from repro import units
from repro.endhost.flows import Flow, FlowSink
from repro.net.packet import ETHERTYPE_TPP, EthernetFrame


@pytest.fixture
def flow_pair(single_switch_net):
    net = single_switch_net
    h0, h1 = net.host("h0"), net.host("h1")
    sink = FlowSink(h1, 99)
    flow = Flow(h0, h1, h1.mac, 99, rate_bps=8_000_000, packet_bytes=1000)
    return net, flow, sink


class TestFlow:
    def test_goodput_matches_rate(self, flow_pair):
        net, flow, sink = flow_pair
        flow.start()
        net.run(until_seconds=1.0)
        goodput = sink.goodput_bps(0, units.seconds(1))
        assert goodput == pytest.approx(8_000_000, rel=0.05)

    def test_wire_size_equals_packet_bytes(self, flow_pair):
        net, flow, sink = flow_pair
        flow.start()
        net.run(until_seconds=0.01)
        flow.stop()
        # goodput counts datagram bytes: packet_bytes minus eth overhead
        assert sink.arrivals[0][1] == 1000 - 18

    def test_rate_history_recorded(self, flow_pair):
        net, flow, _ = flow_pair
        flow.start()
        net.run(until_seconds=0.01)
        flow.set_rate(4_000_000)
        assert [rate for _, rate in flow.rate_history] == [
            8_000_000, 4_000_000]

    def test_stop_ceases_traffic(self, flow_pair):
        net, flow, sink = flow_pair
        flow.start()
        net.run(until_seconds=0.1)
        flow.stop()
        count = sink.packets_received
        net.run(until_seconds=0.3)
        assert sink.packets_received <= count + 2  # in-flight stragglers

    def test_counters(self, flow_pair):
        net, flow, sink = flow_pair
        flow.start()
        net.run(until_seconds=0.1)
        assert flow.packets_sent > 0
        assert flow.sender.bytes_sent == flow.packets_sent * 1000

    def test_custom_frame_factory(self, single_switch_net):
        net = single_switch_net
        h0, h1 = net.host("h0"), net.host("h1")
        frames = []

        def factory(flow, packet_bytes):
            frame = EthernetFrame(dst=flow.dst_mac, src=flow.src.mac,
                                  ethertype=ETHERTYPE_TPP,
                                  payload=flow.make_datagram(packet_bytes))
            frames.append(frame)
            return frame

        flow = Flow(h0, h1, h1.mac, 99, rate_bps=8_000_000,
                    frame_factory=factory)
        flow.start()
        net.run(until_seconds=0.01)
        assert frames
        assert all(f.ethertype == ETHERTYPE_TPP for f in frames)


class TestFlowSink:
    def test_goodput_windows(self, flow_pair):
        net, flow, sink = flow_pair
        flow.start()
        net.run(until_seconds=0.5)
        flow.stop()
        net.run(until_seconds=1.0)
        busy = sink.goodput_bps(0, units.seconds(0.5))
        idle = sink.goodput_bps(units.seconds(0.6), units.seconds(1.0))
        assert busy > 0
        assert idle == 0.0

    def test_empty_window(self, flow_pair):
        _, _, sink = flow_pair
        assert sink.goodput_bps(10, 10) == 0.0

    def test_packet_count(self, flow_pair):
        net, flow, sink = flow_pair
        flow.start()
        net.run(until_seconds=0.05)
        assert sink.packets_received == pytest.approx(
            flow.packets_sent, abs=3)
