"""The header parser stage.

Extracts the fields later pipeline stages match on, looking *through* a TPP
section to the encapsulated headers — a TPP-carrying packet must be
forwarded exactly like the packet it encapsulates ("TPPs ... are forwarded
just like other packets", §2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.tpp import TPPSection
from repro.net.packet import ETHERTYPE_TPP, Datagram, EthernetFrame


@dataclass
class ParsedHeaders:
    """Fields extracted by the parser for the match stages."""

    src_mac: int
    dst_mac: int
    ethertype: int
    tpp: Optional[TPPSection] = None
    src_ip: Optional[int] = None
    dst_ip: Optional[int] = None
    ip_protocol: Optional[int] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    tos: int = 0
    #: ECMP flow hash, memoised by the first switch that needs it: the
    #: view travels with the frame, so a journey hashes its 5-tuple once.
    flow_hash: Optional[int] = None


def parse_frame(frame: EthernetFrame) -> ParsedHeaders:
    """Parse a frame's header stack.

    The parsed view is cached on the frame and travels with it across
    hops, so a multi-hop journey parses the header stack once instead of
    once per switch.  Any mutation that reshapes the payload chain
    (switch strip action, link truncation) must call
    :meth:`~repro.net.packet.EthernetFrame.invalidate_size_cache`, which
    drops this cache too; per-hop writes into TPP packet memory mutate
    the same :class:`TPPSection` object the cached view points at, so
    they need no invalidation.
    """
    cached = frame._parsed_cache
    if cached is not None:
        return cached
    headers = ParsedHeaders(src_mac=frame.src, dst_mac=frame.dst,
                            ethertype=frame.ethertype)
    payload = frame.payload
    if frame.ethertype == ETHERTYPE_TPP and isinstance(payload, TPPSection):
        headers.tpp = payload
        payload = payload.payload
    if isinstance(payload, Datagram):
        headers.src_ip = payload.src_ip
        headers.dst_ip = payload.dst_ip
        headers.ip_protocol = payload.protocol
        headers.src_port = payload.src_port
        headers.dst_port = payload.dst_port
        headers.tos = payload.tos
    frame._parsed_cache = headers
    return headers
