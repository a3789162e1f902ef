"""The switch pipeline end to end."""


from repro import units
from repro.asic.tables import DROP, TcamRule
from repro.core.assembler import assemble
from repro.core.exceptions import FaultCode
from repro.net.packet import Datagram, EthernetFrame, RawPayload
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder


def send_datagram(net, src="h0", dst="h1", dst_port=9):
    h_src, h_dst = net.host(src), net.host(dst)
    h_src.send_datagram(h_dst.mac, Datagram(h_src.ip, h_dst.ip, 1, dst_port,
                                            RawPayload(100)))


class TestForwarding:
    def test_l2_forwarding(self, single_switch_net):
        net = single_switch_net
        got = []
        net.host("h1").on_udp_port(9, lambda d, f: got.append(d))
        send_datagram(net)
        net.run(until_seconds=0.01)
        assert len(got) == 1
        assert net.switch("sw0").packets_switched == 1

    def test_no_route_drops(self, single_switch_net):
        net = single_switch_net
        h0 = net.host("h0")
        h0.send_frame(EthernetFrame(dst=0xDEAD, src=h0.mac,
                                    ethertype=0x0800,
                                    payload=RawPayload(10)))
        net.run(until_seconds=0.01)
        assert net.switch("sw0").packets_dropped_no_route == 1

    def test_tcam_overrides_l2(self, single_switch_net):
        net = single_switch_net
        switch = net.switch("sw0")
        # A TCAM drop rule for h0's traffic beats the L2 route.
        switch.install_tcam_rule(TcamRule(priority=10, out_port=DROP,
                                          src_ip=net.host("h0").ip))
        got = []
        net.host("h1").on_udp_port(9, lambda d, f: got.append(d))
        send_datagram(net)
        net.run(until_seconds=0.01)
        assert got == []
        assert switch.packets_dropped_by_rule == 1

    def test_l3_fallback(self):
        # No L2 routes at all: an L3 prefix route carries the datagram.
        net = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC,
                              delay_ns=1_000).star(n_hosts=2)
        switch = net.switch("sw0")
        h0, h1 = net.host("h0"), net.host("h1")
        port = None
        for local_port, peer, _ in net.adjacency()["sw0"]:
            if peer == "h1":
                port = local_port
        switch.install_l3_route(h1.ip, 32, port)
        got = []
        h1.on_udp_port(9, lambda d, f: got.append(d))
        send_datagram(net)
        net.run(until_seconds=0.01)
        assert len(got) == 1

    def test_hops_recorded_on_frame(self, linear_net):
        net = linear_net
        got = []
        net.host("h1").on_udp_port(9, lambda d, f: got.append(f))
        send_datagram(net)
        net.run(until_seconds=0.01)
        assert got[0].hops == ["sw0", "sw1", "sw2"]

    def test_pipeline_latency_applied(self, single_switch_net):
        net = single_switch_net
        switch = net.switch("sw0")
        switch.pipeline_latency_ns = 100_000
        times = []
        net.host("h1").on_udp_port(
            9, lambda d, f: times.append(net.sim.now_ns))
        send_datagram(net)
        net.run(until_seconds=0.01)
        assert times[0] > 100_000


class TestTPPExecution:
    def test_tpp_counters(self, linear_net):
        net = linear_net
        from repro.endhost.client import TPPEndpoint
        h0, h1 = net.host("h0"), net.host("h1")
        TPPEndpoint(h0).send(assemble("PUSH [Queue:QueueSize]"),
                             dst_mac=h1.mac)
        TPPEndpoint(h1)
        net.run(until_seconds=0.01)
        for name in ("sw0", "sw1", "sw2"):
            assert net.switch(name).tcpu.tpps_executed >= 1

    def test_metadata_exposed_to_tpp(self, single_switch_net):
        net = single_switch_net
        from repro.endhost.client import TPPEndpoint
        h0, h1 = net.host("h0"), net.host("h1")
        results = []
        program = assemble("""
            PUSH [PacketMetadata:InputPort]
            PUSH [PacketMetadata:OutputPort]
            PUSH [PacketMetadata:PacketLength]
        """)
        TPPEndpoint(h0).send(program, dst_mac=h1.mac,
                             on_response=results.append)
        TPPEndpoint(h1)
        net.run(until_seconds=0.01)
        in_port, out_port, length = results[0].per_hop_words()[0]
        adjacency = dict((peer, local)
                         for local, peer, _ in net.adjacency()["sw0"])
        assert in_port == adjacency["h0"]
        assert out_port == adjacency["h1"]
        assert length >= 64

    def test_queue_size_reflects_backlog(self):
        """A TPP arriving while a queue is congested reads nonzero
        occupancy: two senders converge on one receiver link."""
        from repro.net.topology import TopologyBuilder
        from repro.endhost.client import TPPEndpoint
        from repro.endhost.flows import Flow, FlowSink
        net = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC).star(3)
        install_shortest_path_routes(net)
        h0, h1, h2 = (net.host(f"h{i}") for i in range(3))
        FlowSink(h2, 99)
        flows = [Flow(h, h2, h2.mac, 99, rate_bps=units.GIGABITS_PER_SEC,
                      packet_bytes=1000) for h in (h0, h1)]
        results = []
        endpoint = TPPEndpoint(h0)
        TPPEndpoint(h2)
        for flow in flows:
            flow.start()
        net.sim.schedule(units.milliseconds(5), lambda: endpoint.send(
            assemble("PUSH [Queue:QueueSize]"), dst_mac=h2.mac,
            on_response=results.append))
        net.sim.schedule(units.milliseconds(6),
                         lambda: [flow.stop() for flow in flows])
        net.run(until_seconds=0.1)
        assert results[0].per_hop_words()[0][0] > 0

    def test_clock_readable(self, single_switch_net):
        net = single_switch_net
        from repro.endhost.client import TPPEndpoint
        h0, h1 = net.host("h0"), net.host("h1")
        results = []
        program = assemble("PUSH [Switch:ClockLo]\nPUSH [Switch:ClockHi]")
        endpoint = TPPEndpoint(h0)
        TPPEndpoint(h1)
        net.sim.schedule(units.milliseconds(3), lambda: endpoint.send(
            program, dst_mac=h1.mac, on_response=results.append))
        net.run(until_seconds=0.01)
        lo, hi = results[0].per_hop_words()[0]
        clock = (hi << 32) | lo
        assert units.milliseconds(3) < clock < units.milliseconds(4)

    def test_fault_travels_to_endhost(self, single_switch_net):
        net = single_switch_net
        from repro.endhost.client import TPPEndpoint
        h0, h1 = net.host("h0"), net.host("h1")
        results = []
        program = assemble(".memory 1\nSTORE [Queue:QueueSize], [Packet:0]")
        TPPEndpoint(h0).send(program, dst_mac=h1.mac,
                             on_response=results.append)
        TPPEndpoint(h1)
        net.run(until_seconds=0.01)
        assert not results[0].ok
        assert results[0].fault == FaultCode.WRITE_PROTECTED
