"""ndb — the forwarding-plane debugger (§2.3)."""

import pytest

from repro import units
from repro.apps.ndb import (
    HopRecord,
    NdbCollector,
    NdbTagger,
    PacketJourney,
    PathVerifier,
    trace_program,
)
from repro.asic.tables import TcamRule
from repro.endhost.flows import Flow, FlowSink
from repro.net.routing import (
    host_path,
    install_shortest_path_routes,
)
from repro.net.topology import TopologyBuilder


@pytest.fixture
def ndb_net():
    """Linear 3-switch network with a tagged flow h0 -> h1."""
    builder = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC,
                              delay_ns=1_000)
    net = builder.linear(n_switches=3)
    intended = install_shortest_path_routes(net)
    return net, intended


def run_tagged_flow(net, seconds=0.01, rate_bps=8_000_000):
    h0, h1 = net.host("h0"), net.host("h1")
    sink = FlowSink(h1, 99)
    collector = NdbCollector(h1)
    tagger = NdbTagger(hops=4)
    flow = Flow(h0, h1, h1.mac, 99, rate_bps=rate_bps, packet_bytes=500)
    tagger.attach(flow)
    flow.start()
    net.run(until_seconds=seconds)
    flow.stop()
    return collector, tagger, sink


class TestTaggerAndCollector:
    def test_journeys_reassembled(self, ndb_net):
        net, _ = ndb_net
        collector, tagger, sink = run_tagged_flow(net)
        assert len(collector.journeys) > 0
        assert tagger.packets_tagged >= len(collector.journeys)

    def test_journey_switch_sequence(self, ndb_net):
        net, _ = ndb_net
        collector, _, _ = run_tagged_flow(net)
        assert collector.journeys[0].switch_ids() == [1, 2, 3]

    def test_data_still_delivered(self, ndb_net):
        """Tagging must not break the application's traffic."""
        net, _ = ndb_net
        collector, _, sink = run_tagged_flow(net)
        assert sink.packets_received == len(collector.journeys)

    def test_hop_records_carry_rule_identity(self, ndb_net):
        net, intended = ndb_net
        collector, _, _ = run_tagged_flow(net)
        h1 = net.host("h1")
        journey = collector.journeys[0]
        for switch_name, hop in zip(("sw0", "sw1", "sw2"), journey.hops):
            entry = net.switch(switch_name).l2.entry_for(h1.mac)
            assert hop.entry_id == entry.entry_id
            assert hop.entry_version == entry.version

    def test_input_ports_recorded(self, ndb_net):
        net, _ = ndb_net
        collector, _, _ = run_tagged_flow(net)
        journey = collector.journeys[0]
        adjacency = net.adjacency()
        expected_in = []
        for switch, prev in (("sw0", "h0"), ("sw1", "sw0"), ("sw2", "sw1")):
            for local, peer, _ in adjacency[switch]:
                if peer == prev:
                    expected_in.append(local)
        assert [hop.input_port for hop in journey.hops] == expected_in


def make_verifier(net, intended, dst_mac):
    path = [net.switch(name).switch_id
            for name in host_path(net, "h0", "h1")
            if name in net.switches]
    current = {}
    for switch_name, switch in net.switches.items():
        entry = switch.l2.entry_for(dst_mac)
        if entry is not None:
            current[switch.switch_id] = (entry.entry_id, entry.version)
    return PathVerifier(path, current)


class TestPathVerifier:
    def test_clean_network_verifies(self, ndb_net):
        net, intended = ndb_net
        collector, _, _ = run_tagged_flow(net)
        verifier = make_verifier(net, intended, net.host("h1").mac)
        assert verifier.verify(collector.journeys) == []

    def test_stale_rule_detected(self, ndb_net):
        """Reinstall a route mid-flow: packets forwarded by the old rule
        version are flagged once the controller's view moves on."""
        net, intended = ndb_net
        h0, h1 = net.host("h0"), net.host("h1")
        sink = FlowSink(h1, 99)
        collector = NdbCollector(h1)
        tagger = NdbTagger(hops=4)
        flow = Flow(h0, h1, h1.mac, 99, rate_bps=8_000_000,
                    packet_bytes=500)
        tagger.attach(flow)
        flow.start()

        # Mid-flow, the controller re-installs sw1's route (same port,
        # new version).
        switch = net.switch("sw1")
        old_entry = switch.l2.entry_for(h1.mac)
        out_port = old_entry.out_ports[0]
        net.sim.schedule(units.milliseconds(5),
                         lambda: switch.install_l2_route(h1.mac, out_port))
        net.run(until_seconds=0.01)
        flow.stop()

        verifier = make_verifier(net, intended, h1.mac)
        violations = verifier.verify(collector.journeys)
        kinds = {violation.kind for violation in violations}
        assert "unknown-rule" in kinds or "stale-rule" in kinds
        # ... but packets after the update are clean:
        late = [j for j in collector.journeys
                if j.hops[1].entry_id != old_entry.entry_id]
        assert late and verifier.verify(late) == []

    def test_tcam_hijack_detected(self, ndb_net):
        """An unexpected high-priority TCAM rule (not installed by the
        controller) shows up as an unknown-rule violation."""
        net, intended = ndb_net
        h1 = net.host("h1")
        # A rogue rule on sw1 that still forwards correctly — invisible
        # to black-box testing, but ndb sees the matched entry id.
        out_port = net.switch("sw1").l2.entry_for(h1.mac).out_ports[0]
        net.switch("sw1").install_tcam_rule(
            TcamRule(priority=100, out_port=out_port, dst_mac=h1.mac))
        collector, _, _ = run_tagged_flow(net)
        verifier = make_verifier(net, intended, h1.mac)
        violations = verifier.verify(collector.journeys)
        assert violations
        assert all(v.kind == "unknown-rule" for v in violations)
        assert violations[0].switch_id == net.switch("sw1").switch_id

    def test_wrong_path_detected(self):
        verifier = PathVerifier([1, 2, 3], {})
        journey = PacketJourney(frame_uid=1, received_at_ns=0, hops=[
            HopRecord(1, 0, 0, 0), HopRecord(9, 0, 0, 0),
            HopRecord(3, 0, 0, 0)])
        violations = verifier.verify_one(journey)
        assert [v.kind for v in violations] == ["wrong-path"]

    def test_since_filter(self):
        verifier = PathVerifier([1], {})
        old = PacketJourney(frame_uid=1, received_at_ns=100,
                            hops=[HopRecord(9, 0, 0, 0)])
        assert verifier.verify([old], since_ns=200) == []
        assert len(verifier.verify([old], since_ns=0)) == 1


def truncated_trace_tpp(hops_executed=3, keep_bytes=40):
    """A trace TPP whose memory tail was lost in flight."""
    tpp = trace_program(hops=4).build()
    tpp.hop = hops_executed
    del tpp.memory[keep_bytes:]
    tpp.invalidate_caches()
    return tpp


class TestGapHops:
    def test_truncated_trace_marks_gap_hops(self, ndb_net):
        from repro.net.packet import ETHERTYPE_TPP, EthernetFrame

        net, _ = ndb_net
        h0, h1 = net.host("h0"), net.host("h1")
        collector = NdbCollector(h1)
        tpp = truncated_trace_tpp()  # 3 hops executed, 2.5 records left
        h1.receive(EthernetFrame(dst=h1.mac, src=h0.mac,
                                 ethertype=ETHERTYPE_TPP, payload=tpp),
                   in_port=0)
        assert collector.truncated_traces == 1
        journey = collector.journeys[0]
        assert len(journey.hops) == 3
        assert journey.has_gaps()
        assert [hop.gap for hop in journey.hops] == [False, False, True]
        assert journey.switch_ids()[2] == -1

    def test_surviving_records_decode_what_the_switches_wrote(self, ndb_net):
        from repro.net.packet import ETHERTYPE_TPP, EthernetFrame

        net, _ = ndb_net
        h0, h1 = net.host("h0"), net.host("h1")
        collector = NdbCollector(h1)
        tpp = truncated_trace_tpp()
        for index in range(len(tpp.memory) // 4):
            tpp.write_word(4 * index, 100 + index)
        h1.receive(EthernetFrame(dst=h1.mac, src=h0.mac,
                                 ethertype=ETHERTYPE_TPP, payload=tpp),
                   in_port=0)
        assert collector.journeys[0].hops[:2] == [
            HopRecord(100, 101, 102, 103), HopRecord(104, 105, 106, 107)]

    def test_record_off_a_word_boundary_is_a_gap(self, ndb_net):
        """A hostile header (8-byte words over a 12-byte per-hop length)
        puts every odd hop's record between words: a gap, not garbage."""
        from repro.core.tpp import AddressingMode, TPPSection
        from repro.net.packet import ETHERTYPE_TPP, EthernetFrame

        net, _ = ndb_net
        h0, h1 = net.host("h0"), net.host("h1")
        collector = NdbCollector(h1)
        tpp = TPPSection(instructions=[], memory=bytearray(range(96)),
                         mode=AddressingMode.HOP, word_size=8,
                         hop_or_sp=3, perhop_len_bytes=12)
        h1.receive(EthernetFrame(dst=h1.mac, src=h0.mac,
                                 ethertype=ETHERTYPE_TPP, payload=tpp),
                   in_port=0)
        hops = collector.journeys[0].hops
        assert [hop.gap for hop in hops] == [False, True, False]
        assert hops[2].switch_id == tpp.read_word(24)
        assert hops[2].input_port == tpp.read_word(48)

    def test_gapped_journey_gets_no_path_verdict(self):
        """Incomplete evidence must not page an operator for a wrong
        path; surviving hops are still checked against the rules."""
        journey = PacketJourney(frame_uid=7, received_at_ns=0, hops=[
            HopRecord(1, entry_id=5, entry_version=1, input_port=0),
            HopRecord(-1, -1, -1, -1, gap=True)])
        verifier = PathVerifier([1, 2], {1: (5, 1), 2: (6, 1)})
        violations = verifier.verify_one(journey)
        assert [v.kind for v in violations] == ["trace-gap"]

    def test_surviving_hops_still_rule_checked(self):
        journey = PacketJourney(frame_uid=8, received_at_ns=0, hops=[
            HopRecord(1, entry_id=99, entry_version=1, input_port=0),
            HopRecord(-1, -1, -1, -1, gap=True)])
        verifier = PathVerifier([1, 2], {1: (5, 1)})
        kinds = {v.kind for v in verifier.verify_one(journey)}
        assert kinds == {"trace-gap", "unknown-rule"}

    def test_corrupting_link_does_not_break_reassembly(self, ndb_net):
        """End to end: a corrupting link feeds the collector mangled
        traces; it keeps reassembling instead of crashing."""
        net, _ = ndb_net
        sw1 = net.switch("sw1")
        toward_sw2 = [p for p in sw1.ports
                      if p.link.name == "sw1->sw2"][0]
        toward_sw2.link.set_impairments(corrupt_rate=0.5)
        collector, tagger, sink = run_tagged_flow(net, seconds=0.02)
        assert toward_sw2.link.frames_corrupted > 0
        assert len(collector.journeys) > 0
        gapped = [j for j in collector.journeys if j.has_gaps()]
        assert len(gapped) == collector.truncated_traces


class TestTraceProgram:
    def test_fits_instruction_budget(self):
        """The trace program must fit the paper's 5-instruction budget."""
        program = trace_program()
        assert program.n_instructions <= 5

    def test_hop_mode_with_four_words(self):
        program = trace_program(hops=6)
        assert program.perhop_len_bytes == 16
        assert program.memory_bytes == 16 * 6
