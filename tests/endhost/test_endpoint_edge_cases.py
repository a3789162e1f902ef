"""TPP endpoint edge cases: sequence wrap, stray traffic, trimmed echo."""

import pytest

from repro.core.assembler import assemble
from repro.core.tpp import FLAG_DONE
from repro.endhost.client import TPPEndpoint
from repro.net.packet import (
    ETHERTYPE_TPP,
    Datagram,
    EthernetFrame,
    RawPayload,
)


@pytest.fixture
def pair(linear_net):
    h0, h1 = linear_net.host("h0"), linear_net.host("h1")
    return linear_net, TPPEndpoint(h0), TPPEndpoint(h1)


class TestSequenceNumbers:
    def test_seq_wraps_at_256(self, pair):
        net, client, _ = pair
        program = assemble("NOP")
        results = []
        for _ in range(260):
            client.send(program, dst_mac=net.host("h1").mac,
                        on_response=results.append)
            net.run(until_seconds=net.sim.now_seconds + 0.001)
        assert len(results) == 260
        # Sequences wrapped: the 257th probe reused seq 0.
        assert results[256].seq == 0

    def test_interleaved_responses_route_correctly(self, pair):
        net, client, _ = pair
        outcomes = {}
        program = assemble("PUSH [Switch:SwitchID]")
        for tag in range(20):
            client.send(program, dst_mac=net.host("h1").mac,
                        on_response=lambda r, t=tag: outcomes.__setitem__(
                            t, r.seq))
        net.run(until_seconds=0.05)
        # Callback tag i received the response with seq i.
        assert outcomes == {tag: tag for tag in range(20)}


class TestStrayTraffic:
    def test_non_tpp_payload_on_tpp_ethertype_ignored(self, pair):
        net, _, responder = pair
        h0, h1 = net.host("h0"), net.host("h1")
        frame = EthernetFrame(dst=h1.mac, src=h0.mac,
                              ethertype=ETHERTYPE_TPP,
                              payload=RawPayload(64))
        h0.send_frame(frame)
        net.run(until_seconds=0.01)
        assert responder.tpps_echoed == 0

    def test_unsolicited_done_tpp_dropped_quietly(self, pair):
        net, client, _ = pair
        h0, h1 = net.host("h0"), net.host("h1")
        tpp = assemble("NOP").build(seq=99)
        tpp.flags |= FLAG_DONE
        h1.tpp = None  # not used; send from h1 toward h0's endpoint
        frame = EthernetFrame(dst=h0.mac, src=h1.mac,
                              ethertype=ETHERTYPE_TPP, payload=tpp)
        h1.send_frame(frame)
        net.run(until_seconds=0.01)
        assert client.responses_received == 1  # counted ...
        # ... but no callback existed for seq 99, so nothing blew up.

    def test_echo_disabled_endpoint(self, linear_net):
        net = linear_net
        h0, h1 = net.host("h0"), net.host("h1")
        client = TPPEndpoint(h0)
        silent = TPPEndpoint(h1, echo_probes=False)
        results = []
        client.send(assemble("NOP"), dst_mac=h1.mac,
                    on_response=results.append)
        net.run(until_seconds=0.02)
        assert results == []
        assert silent.tpps_echoed == 0


class TestTrimmedEcho:
    def test_trimmed_echo_strips_payload(self, pair):
        net, client, responder = pair
        h0, h1 = net.host("h0"), net.host("h1")
        responder.enable_trimmed_echo(task_id=7)
        h1.on_udp_port(9, lambda d, f: None)
        inner = Datagram(h0.ip, h1.ip, 1, 9, RawPayload(500))
        program = assemble("PUSH [Switch:SwitchID]")
        results = []
        tpp = client.wrap(program, payload=inner, task_id=7,
                          on_response=results.append)
        client.send_tpp(tpp, dst_mac=h1.mac)
        net.run(until_seconds=0.02)
        assert len(results) == 1
        assert results[0].tpp.payload is None        # trimmed
        assert results[0].hops() == 3                # samples intact
        assert responder.trimmed_echoes == 1

    def test_other_tasks_not_echoed(self, pair):
        net, client, responder = pair
        h0, h1 = net.host("h0"), net.host("h1")
        responder.enable_trimmed_echo(task_id=7)
        h1.on_udp_port(9, lambda d, f: None)
        inner = Datagram(h0.ip, h1.ip, 1, 9, RawPayload(100))
        results = []
        tpp = client.wrap(assemble("NOP"), payload=inner, task_id=8,
                          on_response=results.append)
        client.send_tpp(tpp, dst_mac=h1.mac)
        net.run(until_seconds=0.02)
        assert results == []
        assert responder.payloads_delivered == 1  # data still flowed
