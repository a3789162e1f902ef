"""The unified memory-mapped IO address space (paper §3.2.1, Table 2).

Statistics live in different memory banks inside the ASIC, but TPPs see one
flat 16-bit virtual address space split into namespaces:

================= ========= ===================================================
namespace         base      resolves against
================= ========= ===================================================
``Switch:``       0x0000    the switch itself (global registers)
``PacketMetadata``0xA000    the packet being processed
``Queue:``        0xB000    the packet's egress queue
``Link:``         0xC000    the packet's egress port/link
``Sram:``         0xD000    the switch's scratch SRAM (writable, partitioned
                            across tasks by the control-plane agent)
================= ========= ===================================================

"To simplify discussion, we assume that the address is the same across all
network devices" — the layout below *is* that network-wide standard: every
switch's MMU implements it, and the assembler compiles mnemonics like
``[Queue:QueueSize]`` against it at compile time, exactly as the paper
describes.

The map also supports *dynamic symbols*: the control-plane agent allocates
scratch registers (e.g. RCP's per-link fair-share rate) and registers a
mnemonic such as ``Link:RCP-RateRegister`` for the allocated address, so
end-host programs keep using symbolic names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError

# Namespace bases.
SWITCH_BASE = 0x0000
PACKET_METADATA_BASE = 0xA000
QUEUE_BASE = 0xB000
LINK_BASE = 0xC000
SRAM_BASE = 0xD000

# Region extents (exclusive upper bounds).
SWITCH_END = 0x1000
PACKET_METADATA_END = 0xB000
QUEUE_END = 0xC000
LINK_END = 0xD000
SRAM_END = SRAM_BASE + 0x0400  # 1024 scratch words per switch

#: Per-port scratch registers live inside the Link namespace; like SRAM
#: they are writable and handed out by the control-plane agent.
LINK_SCRATCH_BASE = LINK_BASE + 0x0100
LINK_SCRATCH_SLOTS = 16

#: Number of words of global scratch SRAM per switch.
SRAM_WORDS = SRAM_END - SRAM_BASE


@dataclass(frozen=True)
class StatDescriptor:
    """One named statistic in the address space."""

    name: str
    vaddr: int
    writable: bool
    description: str


_STANDARD_STATS = [
    # --- Switch: global registers (Table 2, "Per-Switch") ---------------
    StatDescriptor("Switch:SwitchID", 0x0000, False,
                   "unique switch identifier"),
    StatDescriptor("Switch:NumPorts", 0x0001, False,
                   "number of ports on this switch"),
    StatDescriptor("Switch:ClockLo", 0x0002, False,
                   "low word of the switch clock (ns)"),
    StatDescriptor("Switch:ClockHi", 0x0003, False,
                   "high word of the switch clock (ns)"),
    StatDescriptor("Switch:L2TableVersion", 0x0004, False,
                   "bumped on every L2 table update (ndb, [8])"),
    StatDescriptor("Switch:L2TableEntries", 0x0005, False,
                   "entries installed in the L2 table"),
    StatDescriptor("Switch:L3TableEntries", 0x0006, False,
                   "entries installed in the L3 LPM table"),
    StatDescriptor("Switch:TCAMEntries", 0x0007, False,
                   "entries installed in the TCAM"),
    StatDescriptor("Switch:TPPsExecuted", 0x0008, False,
                   "TPPs executed by this switch's TCPU"),
    StatDescriptor("Switch:PacketsSwitched", 0x0009, False,
                   "packets forwarded through the pipeline"),
    # --- PacketMetadata: per-packet registers (Table 2, "Per-Packet") ---
    StatDescriptor("PacketMetadata:InputPort", 0xA000, False,
                   "port the packet arrived on"),
    StatDescriptor("PacketMetadata:OutputPort", 0xA001, False,
                   "egress port selected by the lookup stage"),
    StatDescriptor("PacketMetadata:MatchedEntryID", 0xA002, False,
                   "id of the flow-table entry that matched (ndb)"),
    StatDescriptor("PacketMetadata:MatchedEntryVersion", 0xA003, False,
                   "version stamp of the matched entry (ndb)"),
    StatDescriptor("PacketMetadata:QueueID", 0xA004, False,
                   "egress queue the packet will occupy"),
    StatDescriptor("PacketMetadata:PacketLength", 0xA005, False,
                   "wire length of the packet in bytes"),
    StatDescriptor("PacketMetadata:ArrivalTimeLo", 0xA006, False,
                   "low word of the packet's arrival timestamp (ns)"),
    StatDescriptor("PacketMetadata:ArrivalTimeHi", 0xA007, False,
                   "high word of the packet's arrival timestamp (ns)"),
    StatDescriptor("PacketMetadata:AlternateRoutes", 0xA008, False,
                   "number of alternate egress candidates ([11])"),
    StatDescriptor("PacketMetadata:MatchedEntryHits", 0xA009, False,
                   "match counter of the entry that forwarded this packet"
                   " (Table 2's flow-table counters)"),
    # --- Queue: the packet's egress queue (Table 2, "Per-Queue") --------
    StatDescriptor("Queue:QueueSize", 0xB000, False,
                   "bytes waiting behind the frame in service"),
    StatDescriptor("Queue:QueueSizePackets", 0xB001, False,
                   "packets waiting behind the frame in service"),
    StatDescriptor("Queue:BytesEnqueued", 0xB002, False,
                   "cumulative bytes admitted"),
    StatDescriptor("Queue:BytesDropped", 0xB003, False,
                   "cumulative bytes tail-dropped"),
    StatDescriptor("Queue:PacketsEnqueued", 0xB004, False,
                   "cumulative packets admitted"),
    StatDescriptor("Queue:PacketsDropped", 0xB005, False,
                   "cumulative packets tail-dropped"),
    StatDescriptor("Queue:AvgQueueSize", 0xB006, False,
                   "EWMA of occupancy, updated by the stats sampler"),
    # --- Link: the packet's egress port (Table 2, "Per-Port") -----------
    StatDescriptor("Link:RX-Utilization", 0xC000, False,
                   "EWMA offered load into this link, milli-fraction "
                   "of capacity"),
    StatDescriptor("Link:TX-Utilization", 0xC001, False,
                   "EWMA drain rate of this link, milli-fraction"),
    StatDescriptor("Link:BytesReceived", 0xC002, False,
                   "cumulative bytes received on this port"),
    StatDescriptor("Link:BytesTransmitted", 0xC003, False,
                   "cumulative bytes transmitted on this port"),
    StatDescriptor("Link:FramesReceived", 0xC004, False,
                   "cumulative frames received on this port"),
    StatDescriptor("Link:FramesTransmitted", 0xC005, False,
                   "cumulative frames transmitted on this port"),
    StatDescriptor("Link:CapacityMbps", 0xC006, False,
                   "line rate of this link in Mb/s"),
    StatDescriptor("Link:SNR-MilliDb", 0xC007, False,
                   "wireless channel SNR in milli-dB (0 on wired links)"),
]


def _link_scratch_descriptor(slot: int) -> StatDescriptor:
    return StatDescriptor(f"Link:Reg{slot}", LINK_SCRATCH_BASE + slot, True,
                          f"per-port scratch register {slot}")


def _sram_descriptor(word: int) -> StatDescriptor:
    return StatDescriptor(f"Sram:Word{word}", SRAM_BASE + word, True,
                          f"global scratch SRAM word {word}")


#: The standard layout, built once by :meth:`MemoryMap.shared_standard`.
_SHARED_STANDARD: Optional["MemoryMap"] = None


class MemoryMap:
    """Network-wide virtual address layout plus dynamic symbols.

    One instance is typically shared by the assembler, the control-plane
    agent, and all switches in an experiment; :meth:`standard` builds the
    fixed layout described in the module docs.
    """

    def __init__(self) -> None:
        self._by_name: Dict[str, StatDescriptor] = {}
        self._by_vaddr: Dict[int, StatDescriptor] = {}
        self._aliases: Dict[str, str] = {}

    @classmethod
    def standard(cls) -> "MemoryMap":
        """The network-wide standard layout, as a map of the caller's own.

        A copy of :meth:`shared_standard`'s three dicts: descriptors are
        frozen and shared, but ``add`` / ``alias`` / ``register_symbol``
        on one map never show on another.
        """
        layout = cls.shared_standard()
        memory_map = cls()
        memory_map._by_name = dict(layout._by_name)
        memory_map._by_vaddr = dict(layout._by_vaddr)
        memory_map._aliases = dict(layout._aliases)
        return memory_map

    @classmethod
    def shared_standard(cls) -> "MemoryMap":
        """The process-wide standard map, for read-only name resolution.

        Building the standard layout registers ~1100 descriptors, which
        would dominate every switch construction and any analysis that
        merely *resolves* a handful of names.  Callers must treat the
        result as immutable — to ``add``/``alias``, take a ``standard()``.
        """
        global _SHARED_STANDARD
        if _SHARED_STANDARD is None:
            memory_map = cls()
            for descriptor in _STANDARD_STATS:
                memory_map.add(descriptor)
            for slot in range(LINK_SCRATCH_SLOTS):
                memory_map.add(_link_scratch_descriptor(slot))
            for word in range(SRAM_WORDS):
                memory_map.add(_sram_descriptor(word))
            # Aliases for the exact spellings used in the paper's listings.
            memory_map.alias("Switch:ID", "Switch:SwitchID")
            memory_map.alias("Link:QueueSize", "Queue:QueueSize")
            _SHARED_STANDARD = memory_map
        return _SHARED_STANDARD

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #

    def add(self, descriptor: StatDescriptor) -> None:
        """Register a statistic; name and address must both be unused."""
        key = descriptor.name.lower()
        if key in self._by_name:
            raise ConfigurationError(f"duplicate name {descriptor.name!r}")
        if descriptor.vaddr in self._by_vaddr:
            raise ConfigurationError(
                f"duplicate address {descriptor.vaddr:#06x} "
                f"({descriptor.name!r} vs "
                f"{self._by_vaddr[descriptor.vaddr].name!r})")
        self._by_name[key] = descriptor
        self._by_vaddr[descriptor.vaddr] = descriptor

    def alias(self, name: str, target: str) -> None:
        """Make ``name`` resolve to the same address as ``target``."""
        if target.lower() not in self._by_name:
            raise ConfigurationError(f"alias target {target!r} unknown")
        self._aliases[name.lower()] = target.lower()

    def register_symbol(self, name: str, vaddr: int) -> None:
        """Bind a task-allocated mnemonic (e.g. ``Link:RCP-RateRegister``)
        to an existing scratch address."""
        descriptor = self._by_vaddr.get(vaddr)
        if descriptor is None:
            raise ConfigurationError(f"address {vaddr:#06x} not mapped")
        if not descriptor.writable:
            raise ConfigurationError(
                f"symbols may only name writable scratch, "
                f"{descriptor.name!r} is read-only")
        self._aliases[name.lower()] = descriptor.name.lower()

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def resolve(self, name: str) -> int:
        """Mnemonic → virtual address (case-insensitive)."""
        key = name.lower()
        key = self._aliases.get(key, key)
        descriptor = self._by_name.get(key)
        if descriptor is None:
            raise KeyError(f"unknown statistic {name!r}")
        return descriptor.vaddr

    def describe(self, vaddr: int) -> Optional[StatDescriptor]:
        """Descriptor at an address, or ``None`` if unmapped."""
        return self._by_vaddr.get(vaddr)

    def name_of(self, vaddr: int) -> str:
        """Readable name for an address (hex literal if unmapped)."""
        descriptor = self._by_vaddr.get(vaddr)
        return descriptor.name if descriptor else f"{vaddr:#06x}"

    def names(self) -> Tuple[str, ...]:
        """All canonical statistic names."""
        return tuple(d.name for d in self._by_name.values())


def region_of(vaddr: int) -> str:
    """Namespace name for an address (used in error messages)."""
    if SWITCH_BASE <= vaddr < SWITCH_END:
        return "Switch"
    if PACKET_METADATA_BASE <= vaddr < PACKET_METADATA_END:
        return "PacketMetadata"
    if QUEUE_BASE <= vaddr < QUEUE_END:
        return "Queue"
    if LINK_BASE <= vaddr < LINK_END:
        return "Link"
    if SRAM_BASE <= vaddr < SRAM_END:
        return "Sram"
    return "unmapped"


def is_sram(vaddr: int) -> bool:
    """Whether an address falls in the global scratch SRAM region."""
    return SRAM_BASE <= vaddr < SRAM_END


def is_link_scratch(vaddr: int) -> bool:
    """Whether an address is a per-port scratch register."""
    return LINK_SCRATCH_BASE <= vaddr < LINK_SCRATCH_BASE + LINK_SCRATCH_SLOTS
