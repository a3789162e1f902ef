"""Full wire-format serialization of simulated frames.

The TPP section always had a real byte encoding (the §3 overhead numbers
are measured on it); this module extends that fidelity to the whole
frame: Ethernet II framing with a real CRC-32 FCS, IPv4 headers with a
correct internet checksum, ECN bits, the RFC 791 record-route option, the
RCP shim header, and UDP.  ``decode_frame(encode_frame(f))`` reconstructs
the frame, which the property tests exercise, and the byte lengths agree
with the object model's ``size_bytes`` — so every queueing/transmission
time in the simulator corresponds to real bytes that could go on a wire.

Layout summary::

    Ethernet  dst(6) src(6) ethertype(2) ... payload ... pad-to-60 FCS(4)
    IPv4      standard 20 B header [+ record-route option] ; ECN in TOS
    RCP shim  protocol 253: rate(8) rtt(4) real_proto(1) pad(3)
    UDP       sport(2) dport(2) length(2) checksum=0(2)
    TPP       see repro.core.tpp (header, instructions, packet memory)
"""

from __future__ import annotations

import struct
import zlib
from typing import Optional, Tuple, Union

from repro.core.tpp import TPPSection
from repro.errors import WireFormatError
from repro.net.packet import (
    ETHERNET_FCS_BYTES,
    ETHERNET_HEADER_BYTES,
    ETHERNET_MIN_FRAME_BYTES,
    ETHERTYPE_IPV4,
    ETHERTYPE_TPP,
    Datagram,
    EthernetFrame,
    RawPayload,
)

_ETH = struct.Struct("!6s6sH")
_IPV4 = struct.Struct("!BBHHHBBH4s4s")
_UDP = struct.Struct("!HHHH")
_RCP_SHIM = struct.Struct("!QIB3s")

IP_PROTO_UDP = 17
#: Experimental protocol number used to carry the RCP shim (the original
#: RCP proposal inserts its header between IP and transport).
IP_PROTO_RCP_SHIM = 253
IP_OPTION_RECORD_ROUTE = 7


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones-complement checksum over 16-bit words."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


# --------------------------------------------------------------------- #
# Encoding
# --------------------------------------------------------------------- #

def encode_frame(frame: EthernetFrame) -> bytes:
    """Serialize a frame to real wire bytes (FCS included)."""
    payload = _encode_payload(frame.payload)
    body = _ETH.pack(frame.dst.to_bytes(6, "big"),
                     frame.src.to_bytes(6, "big"),
                     frame.ethertype) + payload
    pad = max(0, ETHERNET_MIN_FRAME_BYTES - ETHERNET_FCS_BYTES - len(body))
    body += b"\x00" * pad
    fcs = zlib.crc32(body) & 0xFFFF_FFFF
    return body + fcs.to_bytes(4, "big")


Payload = Union[RawPayload, Datagram, TPPSection]


def _encode_payload(payload: Optional[Payload]) -> bytes:
    if payload is None:
        return b""
    if isinstance(payload, RawPayload):
        data = payload.data or b""
        return data + b"\x00" * (payload.size_bytes - len(data))
    if isinstance(payload, Datagram):
        return encode_datagram(payload)
    if isinstance(payload, TPPSection):
        return payload.encode() + _encode_payload(payload.payload)
    raise WireFormatError(f"cannot encode payload {type(payload).__name__}")


def encode_datagram(datagram: Datagram) -> bytes:
    """IPv4 (+options, +RCP shim) + UDP + inner payload."""
    options = b""
    if datagram.route_record_slots:
        filled = datagram.route_record or []
        entries = b"".join(value.to_bytes(4, "big") for value in filled)
        entries += b"\x00" * (4 * (datagram.route_record_slots
                                   - len(filled)))
        length = 3 + 4 * datagram.route_record_slots
        pointer = 4 + 4 * len(filled)
        options = bytes([IP_OPTION_RECORD_ROUTE, length, pointer]) + entries
        # IHL counts 32-bit words; pad options to a multiple of 4.
        if len(options) % 4:
            options += b"\x00" * (4 - len(options) % 4)

    shim = b""
    protocol = datagram.protocol
    if datagram.congestion_header is not None:
        header = datagram.congestion_header
        shim = _RCP_SHIM.pack(int(header.rate_bps), int(header.rtt_ns),
                              datagram.protocol, b"\x00" * 3)
        protocol = IP_PROTO_RCP_SHIM

    inner = _encode_payload(datagram.payload)
    udp = _UDP.pack(datagram.src_port, datagram.dst_port,
                    8 + len(inner), 0)
    ihl_words = (20 + len(options)) // 4
    total_length = ihl_words * 4 + len(shim) + len(udp) + len(inner)
    tos_byte = ((datagram.tos & 0x3F) << 2) | (datagram.ecn & 0x3)
    header_wo_checksum = _IPV4.pack(
        (4 << 4) | ihl_words, tos_byte, total_length,
        0, 0,  # identification, flags/fragment
        64, protocol, 0,
        datagram.src_ip.to_bytes(4, "big"),
        datagram.dst_ip.to_bytes(4, "big"))
    checksum = internet_checksum(header_wo_checksum + options)
    header = bytearray(header_wo_checksum)
    header[10:12] = checksum.to_bytes(2, "big")
    return bytes(header) + options + shim + udp + inner


# --------------------------------------------------------------------- #
# Decoding
# --------------------------------------------------------------------- #

def decode_frame(raw: bytes) -> EthernetFrame:
    """Parse wire bytes back into a frame (verifies FCS and checksum)."""
    if len(raw) < ETHERNET_MIN_FRAME_BYTES:
        raise WireFormatError(f"frame too short: {len(raw)} bytes")
    body, fcs_bytes = raw[:-4], raw[-4:]
    if zlib.crc32(body) & 0xFFFF_FFFF != int.from_bytes(fcs_bytes, "big"):
        raise WireFormatError("bad Ethernet FCS")
    dst, src, ethertype = _ETH.unpack(body[:ETHERNET_HEADER_BYTES])
    rest = body[ETHERNET_HEADER_BYTES:]
    payload = _decode_payload(ethertype, rest)
    return EthernetFrame(dst=int.from_bytes(dst, "big"),
                         src=int.from_bytes(src, "big"),
                         ethertype=ethertype, payload=payload)


def _decode_payload(ethertype: int, raw: bytes) -> Optional[Payload]:
    if ethertype == ETHERTYPE_IPV4:
        datagram, _ = decode_datagram(raw)
        return datagram
    if ethertype == ETHERTYPE_TPP:
        return _decode_tpp(raw)
    if not raw.strip(b"\x00"):
        return None
    return RawPayload(len(raw), data=raw)


def _decode_tpp(raw: bytes) -> TPPSection:
    if len(raw) < 2:
        raise WireFormatError("truncated TPP section")
    tpp_length = int.from_bytes(raw[:2], "big")
    if tpp_length > len(raw):
        raise WireFormatError(
            f"TPP claims {tpp_length} bytes, only {len(raw)} present")
    tpp = TPPSection.decode(raw[:tpp_length])
    remainder = raw[tpp_length:]
    if remainder.strip(b"\x00"):
        # Inner payload is always IPv4 in this model.
        datagram, _ = decode_datagram(remainder)
        tpp.payload = datagram
    return tpp


def decode_datagram(raw: bytes) -> Tuple[Datagram, int]:
    """Parse an IPv4+UDP datagram; returns (datagram, bytes consumed)."""
    if len(raw) < 20:
        raise WireFormatError(f"IPv4 header truncated: {len(raw)} bytes")
    (version_ihl, tos_byte, total_length, _ident, _frag, _ttl, protocol,
     _checksum, src_raw, dst_raw) = _IPV4.unpack(raw[:20])
    if version_ihl >> 4 != 4:
        raise WireFormatError(f"not IPv4: version {version_ihl >> 4}")
    ihl_bytes = (version_ihl & 0xF) * 4
    if ihl_bytes < 20:
        raise WireFormatError(f"IPv4 IHL below 5: {ihl_bytes // 4}")
    if ihl_bytes > len(raw):
        raise WireFormatError(
            f"IPv4 header claims {ihl_bytes} bytes, only {len(raw)} present")
    if internet_checksum(raw[:ihl_bytes]) != 0:
        raise WireFormatError("bad IPv4 header checksum")

    route_record = None
    route_slots = 0
    options = raw[20:ihl_bytes]
    if options and options[0] == IP_OPTION_RECORD_ROUTE:
        length = options[1]
        pointer = options[2]
        route_slots = (length - 3) // 4
        filled = (pointer - 4) // 4
        if not 3 <= length <= len(options) or not 0 <= filled <= route_slots:
            raise WireFormatError(
                f"record-route option: length {length}, pointer {pointer} "
                f"in {len(options)} option bytes")
        entries = options[3:3 + 4 * route_slots]
        route_record = [int.from_bytes(entries[i * 4:(i + 1) * 4], "big")
                        for i in range(filled)]

    offset = ihl_bytes
    congestion_header = None
    if protocol == IP_PROTO_RCP_SHIM:
        from repro.apps.rcp_common import RCPHeader
        if len(raw) < offset + _RCP_SHIM.size:
            raise WireFormatError("RCP shim truncated")
        rate, rtt, real_protocol, _pad = _RCP_SHIM.unpack(
            raw[offset:offset + _RCP_SHIM.size])
        congestion_header = RCPHeader(rate_bps=rate, rtt_ns=rtt)
        protocol = real_protocol
        offset += _RCP_SHIM.size

    if len(raw) < offset + _UDP.size:
        raise WireFormatError("UDP header truncated")
    src_port, dst_port, udp_length, _ = _UDP.unpack(
        raw[offset:offset + 8])
    inner_raw = raw[offset + 8:offset + udp_length]
    inner = RawPayload(len(inner_raw), data=inner_raw) if (
        inner_raw.strip(b"\x00")) else (
        RawPayload(len(inner_raw)) if inner_raw else None)

    datagram = Datagram(
        src_ip=int.from_bytes(src_raw, "big"),
        dst_ip=int.from_bytes(dst_raw, "big"),
        src_port=src_port, dst_port=dst_port, payload=inner,
        protocol=protocol, tos=tos_byte >> 2, ecn=tos_byte & 0x3,
        congestion_header=congestion_header,
        route_record=route_record, route_record_slots=route_slots)
    return datagram, total_length
