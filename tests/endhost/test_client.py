"""TPP endpoint: send, echo, result decoding, payload delivery."""

import pytest
from hypothesis import given, strategies as st

from repro.core.assembler import assemble
from repro.core.tpp import FLAG_DONE, AddressingMode, TPPSection
from repro.endhost.client import TPPEndpoint, TPPResultView
from repro.net.packet import Datagram, RawPayload


@pytest.fixture
def endpoints(linear_net):
    h0, h1 = linear_net.host("h0"), linear_net.host("h1")
    return linear_net, TPPEndpoint(h0), TPPEndpoint(h1)


class TestProbeEcho:
    def test_response_callback_fires(self, endpoints):
        net, client, _ = endpoints
        results = []
        client.send(assemble("PUSH [Switch:SwitchID]"),
                    dst_mac=net.host("h1").mac, on_response=results.append)
        net.run(until_seconds=0.01)
        assert len(results) == 1

    def test_echo_marked_done(self, endpoints):
        net, client, responder = endpoints
        results = []
        client.send(assemble("PUSH [Switch:SwitchID]"),
                    dst_mac=net.host("h1").mac, on_response=results.append)
        net.run(until_seconds=0.01)
        assert results[0].tpp.flags & FLAG_DONE
        assert responder.tpps_echoed == 1

    def test_reverse_path_does_not_reexecute(self, endpoints):
        """The echoed TPP crosses the same switches again but collects
        nothing more: exactly one sample set per forward hop."""
        net, client, _ = endpoints
        results = []
        client.send(assemble("PUSH [Switch:SwitchID]"),
                    dst_mac=net.host("h1").mac, on_response=results.append)
        net.run(until_seconds=0.01)
        assert results[0].hops() == 3
        ids = [words[0] for words in results[0].per_hop_words()]
        assert ids == [1, 2, 3]

    def test_sequence_numbers_route_responses(self, endpoints):
        net, client, _ = endpoints
        got = {}
        program = assemble("PUSH [Switch:SwitchID]")
        for tag in range(4):
            client.send(program, dst_mac=net.host("h1").mac,
                        on_response=lambda r, t=tag: got.setdefault(t, r))
        net.run(until_seconds=0.01)
        assert sorted(got) == [0, 1, 2, 3]
        seqs = {r.seq for r in got.values()}
        assert len(seqs) == 4

    def test_counters(self, endpoints):
        net, client, _ = endpoints
        client.send(assemble("NOP"), dst_mac=net.host("h1").mac)
        net.run(until_seconds=0.01)
        assert client.probes_sent == 1
        assert client.responses_received == 1

    def test_send_without_destination_raises(self, endpoints):
        _, client, _ = endpoints
        with pytest.raises(ValueError):
            client.send(assemble("NOP"))



class TestPayloadDelivery:
    def test_wrapped_datagram_delivered_not_echoed(self, endpoints):
        net, client, responder = endpoints
        h0, h1 = net.host("h0"), net.host("h1")
        got = []
        h1.on_udp_port(9, lambda d, f: got.append(d))
        inner = Datagram(h0.ip, h1.ip, 1, 9, RawPayload(20))
        client.send(assemble("PUSH [Switch:SwitchID]"), dst_mac=h1.mac,
                    payload=inner)
        net.run(until_seconds=0.01)
        assert got == [inner]
        assert responder.tpps_echoed == 0
        assert responder.payloads_delivered == 1

    def test_tap_sees_executed_tpp(self, endpoints):
        net, client, responder = endpoints
        h0, h1 = net.host("h0"), net.host("h1")
        h1.on_udp_port(9, lambda d, f: None)
        seen = []
        responder.add_tap(lambda tpp, frame: seen.append(tpp))
        inner = Datagram(h0.ip, h1.ip, 1, 9, RawPayload(20))
        client.send(assemble("PUSH [Switch:SwitchID]"), dst_mac=h1.mac,
                    payload=inner)
        net.run(until_seconds=0.01)
        assert len(seen) == 1
        assert seen[0].hops_executed() == 3


class TestResultView:
    def test_per_hop_words_multi_stat(self, endpoints):
        net, client, _ = endpoints
        results = []
        client.send(assemble("""
            PUSH [Switch:SwitchID]
            PUSH [Queue:QueueSize]
        """), dst_mac=net.host("h1").mac, on_response=results.append)
        net.run(until_seconds=0.01)
        view = results[0]
        assert view.hops() == 3
        assert all(len(words) == 2 for words in view.per_hop_words())

    def test_hop_words_accessor(self, endpoints):
        net, client, _ = endpoints
        results = []
        client.send(assemble("PUSH [Switch:SwitchID]"),
                    dst_mac=net.host("h1").mac, on_response=results.append)
        net.run(until_seconds=0.01)
        assert results[0].per_hop_words()[1] == [2]

    def test_word_accessor(self, endpoints):
        net, client, _ = endpoints
        results = []
        client.send(assemble("PUSH [Switch:SwitchID]"),
                    dst_mac=net.host("h1").mac, on_response=results.append)
        net.run(until_seconds=0.01)
        assert results[0].word(0) == 1

    def test_ok_and_time(self, endpoints):
        net, client, _ = endpoints
        results = []
        client.send(assemble("PUSH [Switch:SwitchID]"),
                    dst_mac=net.host("h1").mac, on_response=results.append)
        net.run(until_seconds=0.01)
        assert results[0].ok
        assert results[0].time_ns > 0


def _per_hop_words_by_word(tpp):
    """The per-word reader the bulk decode replaced (kept as reference)."""
    perhop, word = tpp.perhop_len_bytes, tpp.word_size
    if perhop == 0 or perhop % word:
        return []
    hops = min(tpp.hops_executed(), len(tpp.memory) // perhop)
    return [[tpp.read_word(hop * perhop + i * word)
             for i in range(perhop // word)] for hop in range(hops)]


class TestResultViewBulkDecode:
    """per_hop_words slices one ``words()`` decode; on well-formed,
    truncated and hostile sections it returns what the ``read_word``
    loops returned."""

    @given(st.binary(max_size=48).filter(lambda raw: len(raw) % 4 == 0),
           st.sampled_from((4, 8)), st.sampled_from((0, 4, 8, 12, 16)),
           st.sampled_from(list(AddressingMode)), st.integers(0, 70))
    def test_readers_match_the_per_word_loops(self, raw, word_size, perhop,
                                              mode, hop_or_sp):
        tpp = TPPSection(instructions=[], memory=bytearray(raw), mode=mode,
                         word_size=word_size, hop_or_sp=hop_or_sp,
                         perhop_len_bytes=perhop)
        view = TPPResultView(tpp)
        expected = _per_hop_words_by_word(tpp)
        assert view.per_hop_words() == expected
        for hop in range(-len(expected), len(expected)):
            assert view.per_hop_words()[hop] == expected[hop]
        for hop in (len(expected), -len(expected) - 1):
            with pytest.raises(IndexError):
                view.per_hop_words()[hop]
