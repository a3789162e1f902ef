"""Wire serialization: real bytes for every simulated frame."""

import struct
import zlib

import pytest

from repro.apps.rcp_common import RCPHeader
from repro.core.assembler import assemble
from repro.errors import WireFormatError
from repro.net import wire
from repro.net.packet import (
    ETHERTYPE_IPV4,
    ETHERTYPE_TPP,
    Datagram,
    EthernetFrame,
    RawPayload,
)


def datagram(**kwargs):
    defaults = dict(src_ip=0x0A000001, dst_ip=0x0A000002, src_port=1234,
                    dst_port=5678, payload=RawPayload(32, data=b"hello"))
    defaults.update(kwargs)
    return Datagram(**defaults)


def ipv4_header(ihl=5, protocol=17, options=b""):
    """A 20-byte IPv4 header (+ options) whose IHL field says ``ihl``
    words, checksummed over its first ``ihl * 4`` bytes (zero padding
    after it adds nothing to the sum)."""
    header = bytearray(struct.pack("!BBHHHBBH4s4s", 0x40 | ihl, 0, 0, 0,
                                   0, 64, protocol, 0, b"\x0a\0\0\x01",
                                   b"\x0a\0\0\x02") + options)
    checksum = wire.internet_checksum(bytes(header[:ihl * 4]))
    header[10:12] = checksum.to_bytes(2, "big")
    return bytes(header)


def ethernet_frame(payload):
    """Wire bytes of an IPv4 Ethernet frame around ``payload``."""
    body = bytes(6) + bytes(6) + ETHERTYPE_IPV4.to_bytes(2, "big") + payload
    body += bytes(max(0, 60 - len(body)))
    return body + (zlib.crc32(body) & 0xFFFF_FFFF).to_bytes(4, "big")


class TestChecksum:
    def test_rfc1071_example(self):
        # Classic example from RFC 1071 §3.
        data = bytes([0x00, 0x01, 0xF2, 0x03, 0xF4, 0xF5, 0xF6, 0xF7])
        assert wire.internet_checksum(data) == 0x220D

    def test_checksum_of_checksummed_is_zero(self):
        data = bytes(range(20))
        checksum = wire.internet_checksum(data)
        assert wire.internet_checksum(
            data + checksum.to_bytes(2, "big")) == 0

    def test_odd_length_padded(self):
        assert wire.internet_checksum(b"\xFF") == wire.internet_checksum(
            b"\xFF\x00")


class TestDatagramRoundTrip:
    def test_basic(self):
        original = datagram()
        decoded, consumed = wire.decode_datagram(
            wire.encode_datagram(original))
        assert decoded.src_ip == original.src_ip
        assert decoded.dst_ip == original.dst_ip
        assert decoded.src_port == original.src_port
        assert decoded.dst_port == original.dst_port
        assert decoded.payload.data.rstrip(b"\x00") == b"hello"

    def test_tos_and_ecn(self):
        original = datagram(tos=5, ecn=3)
        decoded, _ = wire.decode_datagram(wire.encode_datagram(original))
        assert decoded.tos == 5
        assert decoded.ecn == 3

    def test_record_route_option(self):
        original = datagram(route_record_slots=4)
        original.route_record.extend([7, 9])
        decoded, _ = wire.decode_datagram(wire.encode_datagram(original))
        assert decoded.route_record == [7, 9]
        assert decoded.route_record_slots == 4

    def test_rcp_shim(self):
        original = datagram(
            congestion_header=RCPHeader(rate_bps=10_000_000,
                                        rtt_ns=20_000_000))
        decoded, _ = wire.decode_datagram(wire.encode_datagram(original))
        assert decoded.congestion_header.rate_bps == 10_000_000
        assert decoded.congestion_header.rtt_ns == 20_000_000
        assert decoded.protocol == 17  # real protocol restored

    def test_corrupt_checksum_rejected(self):
        raw = bytearray(wire.encode_datagram(datagram()))
        raw[12] ^= 0xFF  # flip a source-address byte
        with pytest.raises(WireFormatError):
            wire.decode_datagram(bytes(raw))

    def test_wire_length_matches_model(self):
        for d in (datagram(), datagram(route_record_slots=9),
                  datagram(congestion_header=RCPHeader(1, 2))):
            encoded = wire.encode_datagram(d)
            expected = d.size_bytes
            if d.route_record_slots:
                # the model counts 3+4n; the wire pads options to /4
                expected += (-(3 + 4 * d.route_record_slots)) % 4
            if d.congestion_header:
                expected += 16 - d.congestion_header.size_bytes
            assert len(encoded) == expected


class TestMalformedDatagram:
    """Hostile headers raise ``WireFormatError``, never ``struct.error``,
    and never decode to a datagram that re-encodes to other lengths."""

    def test_header_without_udp_rejected(self):
        with pytest.raises(WireFormatError, match="UDP"):
            wire.decode_datagram(ipv4_header())

    def test_truncated_rcp_shim_rejected(self):
        raw = ipv4_header(protocol=wire.IP_PROTO_RCP_SHIM) + bytes(10)
        with pytest.raises(WireFormatError, match="shim"):
            wire.decode_datagram(raw)

    def test_ihl_below_five_rejected(self):
        raw = ipv4_header(ihl=4) + bytes(8)
        with pytest.raises(WireFormatError, match="IHL"):
            wire.decode_datagram(raw)

    @pytest.mark.parametrize("protocol", [17, wire.IP_PROTO_RCP_SHIM])
    def test_ihl_past_input_rejected_through_frame(self, protocol):
        raw = ethernet_frame(ipv4_header(ihl=15, protocol=protocol))
        with pytest.raises(WireFormatError, match="claims 60 bytes"):
            wire.decode_frame(raw)

    def test_record_route_pointer_past_slots_rejected(self):
        original = datagram(route_record_slots=2)
        original.route_record.extend([7, 7])
        raw = bytearray(wire.encode_datagram(original))
        assert raw[20:23] == bytes([wire.IP_OPTION_RECORD_ROUTE, 11, 12])
        raw[22] = 24  # five entries' worth, in a two-slot option
        raw[10:12] = bytes(2)
        raw[10:12] = wire.internet_checksum(bytes(raw[:32])).to_bytes(
            2, "big")
        with pytest.raises(WireFormatError, match="record-route"):
            wire.decode_datagram(bytes(raw))


class TestFrameRoundTrip:
    def test_ipv4_frame(self):
        frame = EthernetFrame(dst=0xAABB, src=0xCCDD,
                              ethertype=ETHERTYPE_IPV4,
                              payload=datagram())
        decoded = wire.decode_frame(wire.encode_frame(frame))
        assert decoded.dst == frame.dst
        assert decoded.src == frame.src
        assert decoded.payload.dst_port == 5678

    def test_tpp_frame(self):
        program = assemble("PUSH [Queue:QueueSize]", hops=3)
        tpp = program.build()
        tpp.write_word(0, 0xCAFE)
        tpp.sp = 4
        frame = EthernetFrame(dst=1, src=2, ethertype=ETHERTYPE_TPP,
                              payload=tpp)
        decoded = wire.decode_frame(wire.encode_frame(frame))
        assert decoded.payload.instructions == tpp.instructions
        assert decoded.payload.read_word(0) == 0xCAFE
        assert decoded.payload.sp == 4

    def test_tpp_encapsulating_datagram(self):
        program = assemble("PUSH [Queue:QueueSize]", hops=2)
        tpp = program.build(payload=datagram())
        frame = EthernetFrame(dst=1, src=2, ethertype=ETHERTYPE_TPP,
                              payload=tpp)
        decoded = wire.decode_frame(wire.encode_frame(frame))
        assert decoded.payload.payload.dst_port == 5678

    def test_fcs_detects_corruption(self):
        frame = EthernetFrame(dst=1, src=2, ethertype=ETHERTYPE_IPV4,
                              payload=datagram())
        raw = bytearray(wire.encode_frame(frame))
        raw[20] ^= 0x01
        with pytest.raises(WireFormatError):
            wire.decode_frame(bytes(raw))

    def test_minimum_frame_padding(self):
        frame = EthernetFrame(dst=1, src=2, ethertype=0x88CC,
                              payload=None)
        assert len(wire.encode_frame(frame)) == 64

    def test_short_input_rejected(self):
        with pytest.raises(WireFormatError):
            wire.decode_frame(b"\x00" * 10)

    def test_unencodable_payload(self):
        frame = EthernetFrame(dst=1, src=2, ethertype=0, payload=object())
        with pytest.raises(WireFormatError):
            wire.encode_frame(frame)
