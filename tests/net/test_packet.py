"""Packet model sizes and nesting."""

import pytest

from repro import units
from repro.asic.parser import parse_frame
from repro.core.assembler import assemble
from repro.net import packet as pkt
from repro.net.topology import Network


class TestRawPayload:
    def test_declared_size(self):
        assert pkt.RawPayload(100).size_bytes == 100

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            pkt.RawPayload(-1)

    def test_data_longer_than_declared_rejected(self):
        with pytest.raises(ValueError):
            pkt.RawPayload(2, data=b"abc")

    def test_data_within_declared_ok(self):
        payload = pkt.RawPayload(10, data=b"abc")
        assert payload.data == b"abc"


class TestDatagram:
    def _datagram(self, payload_bytes=72):
        return pkt.Datagram(src_ip=1, dst_ip=2, src_port=10, dst_port=20,
                            payload=pkt.RawPayload(payload_bytes))

    def test_size_includes_headers(self):
        datagram = self._datagram(72)
        assert datagram.size_bytes == 20 + 8 + 72

    @pytest.mark.parametrize("tos", [-3, -1, 256])
    def test_tos_outside_one_byte_rejected(self, tos):
        """``tos`` selects the egress queue; a negative one used to index
        the port's queue list from the end (or past it)."""
        with pytest.raises(ValueError):
            pkt.Datagram(src_ip=1, dst_ip=2, src_port=10, dst_port=20,
                         payload=pkt.RawPayload(0), tos=tos)

    def test_tos_byte_range_accepted(self):
        for tos in (0, 255):
            assert pkt.Datagram(1, 2, 10, 20, pkt.RawPayload(0),
                                tos=tos).tos == tos

    def test_congestion_shim_adds_bytes(self):
        class Shim:
            size_bytes = 12
        datagram = self._datagram(0)
        datagram.congestion_header = Shim()
        assert datagram.size_bytes == 20 + 8 + 12


class TestEthernetFrame:
    def test_min_frame_padding(self):
        frame = pkt.EthernetFrame(dst=1, src=2, ethertype=pkt.ETHERTYPE_IPV4,
                                  payload=pkt.RawPayload(1))
        assert frame.size_bytes == pkt.ETHERNET_MIN_FRAME_BYTES

    def test_size_is_headers_plus_payload(self):
        frame = pkt.EthernetFrame(dst=1, src=2, ethertype=pkt.ETHERTYPE_IPV4,
                                  payload=pkt.RawPayload(1000))
        assert frame.size_bytes == 14 + 1000 + 4

    def test_uids_are_unique(self):
        frames = [pkt.EthernetFrame(1, 2, 0, pkt.RawPayload(0))
                  for _ in range(10)]
        uids = {frame.uid for frame in frames}
        assert len(uids) == 10

    def test_none_payload_counts_zero(self):
        frame = pkt.EthernetFrame(1, 2, 0, None)
        assert frame.size_bytes == pkt.ETHERNET_MIN_FRAME_BYTES

    def test_unknown_payload_type_rejected(self):
        frame = pkt.EthernetFrame(1, 2, 0, object())
        with pytest.raises(TypeError):
            frame.size_bytes


class TestSizeInvalidation:
    def test_payload_swap_renews_size_view_and_flow_hash(self):
        """``size_bytes`` is an instance attribute once read, and the
        parsed view carries the memoised ECMP hash: one call drops all
        three when the payload chain changes shape."""
        net = Network(seed=1)
        switch = net.add_switch("sw0")
        hosts = [net.add_host() for _ in range(3)]
        for host in hosts:
            net.link(switch, host, units.GIGABITS_PER_SEC)
        switch.install_l2_route(0xA1, 1)
        switch.l2.add_alternate(0xA1, 2)

        def datagram(src_port, size):
            return pkt.Datagram(1, 2, src_port, 9, pkt.RawPayload(size))

        frame = pkt.EthernetFrame(dst=0xA1, src=0x51,
                                  ethertype=pkt.ETHERTYPE_IPV4,
                                  payload=datagram(1000, 100))
        assert frame.size_bytes == 14 + 4 + 28 + 100
        switch.receive(frame, 0)
        stale = parse_frame(frame)
        assert stale.flow_hash is not None  # the ECMP entry asked for it

        frame.payload = datagram(1001, 300)
        # Not invalidated yet: every cached value is the old one.
        assert frame.size_bytes == 146 and parse_frame(frame) is stale
        frame.invalidate_size_cache()
        assert frame.size_bytes == 14 + 4 + 28 + 300
        fresh = parse_frame(frame)
        assert fresh is not stale
        assert (fresh.src_port, fresh.flow_hash) == (1001, None)
        switch.receive(frame, 0)
        assert fresh.flow_hash not in (None, stale.flow_hash)

    def test_invalidate_before_first_read_is_harmless(self):
        frame = pkt.EthernetFrame(dst=1, src=2, ethertype=0,
                                  payload=pkt.RawPayload(100))
        frame.invalidate_size_cache()
        assert frame.size_bytes == 118


class TestTPPFrameSizes:
    def test_tpp_frame_size_counts_real_encoding(self):
        program = assemble("PUSH [Queue:QueueSize]", hops=5)
        tpp = program.build()
        # header 12 + 1 instruction (4) + 5 words of memory (20).
        assert tpp.tpp_length_bytes == 12 + 4 + 20
        assert tpp.size_bytes == tpp.tpp_length_bytes

    def test_tpp_encapsulation_adds_inner_payload(self):
        program = assemble("PUSH [Queue:QueueSize]", hops=5)
        inner = pkt.Datagram(src_ip=1, dst_ip=2, src_port=1, dst_port=2,
                             payload=pkt.RawPayload(100))
        tpp = program.build(payload=inner)
        assert tpp.size_bytes == tpp.tpp_length_bytes + inner.size_bytes

