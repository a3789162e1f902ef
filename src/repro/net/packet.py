"""Packet model: Ethernet frames and the payloads they carry.

A frame's payload is one of three things:

- :class:`RawPayload` — opaque application bytes of a declared size;
- :class:`Datagram` — a simplified IPv4+UDP header pair around a payload;
- :class:`repro.core.tpp.TPPSection` — a tiny packet program (identified by
  :data:`ETHERTYPE_TPP`), which itself encapsulates an optional inner
  payload, exactly as Figure 4 of the paper lays out.

Sizes are computed from real header constants so queue occupancies and
transmission times reflect what would happen on a wire, and the TPP section
serializes to actual bytes (see :mod:`repro.core.tpp`), which is how the
overhead benchmark (E5) measures the paper's "20 bytes of instruction
overhead" claim rather than asserting it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, List, Optional

ETHERTYPE_IPV4 = 0x0800
#: The paper requires "a uniquely identifiable header"; we allocate an
#: (unassigned, locally chosen) ethertype for TPPs.
ETHERTYPE_TPP = 0x9999

ETHERNET_HEADER_BYTES = 14
ETHERNET_FCS_BYTES = 4
ETHERNET_MIN_FRAME_BYTES = 64
ETHERNET_MAX_PAYLOAD_BYTES = 1500

IPV4_HEADER_BYTES = 20
UDP_HEADER_BYTES = 8

_frame_uid = itertools.count(1)


@dataclass
class RawPayload:
    """Opaque application payload with a declared size.

    The simulator never inspects the contents; ``data`` exists so tests can
    check end-to-end delivery of specific bytes.
    """

    size_bytes: int
    data: Optional[bytes] = None

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError(f"payload size must be >= 0: {self.size_bytes}")
        if self.data is not None and len(self.data) > self.size_bytes:
            raise ValueError(
                f"declared size {self.size_bytes} smaller than "
                f"{len(self.data)} data bytes"
            )


@dataclass
class Datagram:
    """A simplified IPv4 + UDP header pair around an inner payload.

    ``congestion_header`` is an optional piggybacked field used by the
    in-network RCP baseline (the shim header the original RCP proposal adds
    between IP and transport); end-host RCP* does not use it.
    """

    src_ip: int
    dst_ip: int
    src_port: int
    dst_port: int
    payload: Any
    protocol: int = 17  # UDP
    #: Type-of-service / traffic class (0 = best effort).  Switches with
    #: multi-queue ports use it as the default queue selector.
    tos: int = 0
    #: ECN field: 0 = not-ECT, 1 = ECT (capable), 3 = CE (congestion
    #: experienced) — the two bits a real IP header carries.
    ecn: int = 0
    congestion_header: Optional[Any] = None
    #: IP Record Route option (§4 contrasts it with TPPs): the sender
    #: preallocates ``route_record_slots`` entries; routers append their
    #: address until the option is full.  ``None`` disables the option.
    route_record: Optional[List[int]] = None
    route_record_slots: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.tos <= 0xFF:
            raise ValueError(f"tos must be in 0..255: {self.tos}")
        if self.route_record_slots and self.route_record is None:
            self.route_record = []

    @property
    def size_bytes(self) -> int:
        """Wire size of IP + UDP headers plus options and inner payload."""
        inner = payload_size(self.payload)
        shim = (self.congestion_header.size_bytes
                if self.congestion_header else 0)
        # RFC 791 record-route option: 3 bytes of option header plus the
        # preallocated 4-byte slots (padded into the IP header options).
        option = (3 + 4 * self.route_record_slots
                  if self.route_record_slots else 0)
        return IPV4_HEADER_BYTES + option + UDP_HEADER_BYTES + shim + inner


@dataclass
class EthernetFrame:
    """An Ethernet II frame.

    Attributes:
        dst, src: integer MAC addresses.
        ethertype: payload discriminator (IPv4, TPP, ...).
        payload: one of the payload classes described in the module docs.
        uid: unique per-frame id assigned at construction; survives the
            frame's whole journey, which is what ndb keys its traces on.
        hops: filled in by switches as the frame traverses them (trace aid).
    """

    dst: int
    src: int
    ethertype: int
    payload: Any
    uid: int = field(default_factory=lambda: next(_frame_uid))
    hops: List[str] = field(default_factory=list)
    #: Parsed-header view cached by the first switch parser to touch the
    #: frame; later hops reuse it (zero-reparse).  Cleared together with
    #: the size cache, since both are stale for the same reason: the
    #: payload chain changed shape.
    _parsed_cache: Optional[Any] = field(default=None, init=False,
                                         repr=False, compare=False)

    @cached_property
    def size_bytes(self) -> int:
        """Total frame size, padded to the Ethernet minimum.

        Computed on first read, an instance attribute after — a frame's
        wire size is queried many times per link traversal (admission,
        occupancy, serialization time, RX/TX accounting, metadata), too
        often for a payload-chain walk or a property call.
        Anything that swaps or resizes the payload after construction must
        call :meth:`invalidate_size_cache` (the switch does this after its
        strip action and after running datagram hooks).
        """
        size = (ETHERNET_HEADER_BYTES + payload_size(self.payload)
                + ETHERNET_FCS_BYTES)
        if size < ETHERNET_MIN_FRAME_BYTES:
            size = ETHERNET_MIN_FRAME_BYTES
        return size

    def invalidate_size_cache(self) -> None:
        """Force recomputation after a payload mutation changed the size.

        Also drops the cached parsed-header view (and the flow hash
        memoised on it): any mutation that can change the frame's size
        (payload swap, TPP truncation) can change what the parser would
        extract.
        """
        self.__dict__.pop("size_bytes", None)
        self._parsed_cache = None

    def clone(self) -> "EthernetFrame":
        """A wire-identical copy of the frame (same ``uid``).

        Models duplication in flight: both copies are the *same* packet as
        far as end-hosts can tell, so the uid — the simulator's stand-in
        for packet identity — is preserved rather than reallocated.
        Mutable payloads (TPP sections, whose packet memory switches write
        into) are deep-copied so the twins diverge independently; opaque
        payloads are shared.
        """
        payload = self.payload
        copier = getattr(payload, "copy", None)
        if copier is not None:
            payload = copier()
        twin = EthernetFrame(dst=self.dst, src=self.src,
                             ethertype=self.ethertype, payload=payload)
        twin.uid = self.uid
        twin.hops = list(self.hops)
        return twin


def payload_size(payload: Any) -> int:
    """Size in bytes of any payload object (``None`` counts as empty)."""
    if payload is None:
        return 0
    size = getattr(payload, "size_bytes", None)
    if size is None:
        raise TypeError(f"payload {payload!r} has no size_bytes")
    return size
