"""Per-switch memory management: virtual addresses → live state.

The paper (§3.2.1): "These statistics reside in different memory banks, but
providing a unified address space makes them available to TPPs."  The MMU is
that translation layer.  Each switch owns one MMU:

- read-only statistics (Switch/PacketMetadata/Queue/Link namespaces) are
  *bound* by the switch at construction time as reader callables evaluated
  against the current :class:`ExecutionContext`;
- writable scratch (the global SRAM words and the per-port link scratch
  registers) is stored *inside* the MMU, with optional per-task protection
  domains configured by the control-plane agent (§3.2 "Multiple tasks").

All reads/writes raise :class:`~repro.core.exceptions.TCPUFault` on bad
addresses or permission violations; the TCPU converts those into fault codes
stamped on the packet.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.exceptions import FaultCode, TCPUFault
from repro.core.memory_map import (
    LINK_SCRATCH_BASE,
    LINK_SCRATCH_SLOTS,
    SRAM_BASE,
    SRAM_WORDS,
    MemoryMap,
    is_link_scratch,
    is_sram,
    region_of,
)


@dataclass(slots=True)
class ExecutionContext:
    """Everything an instruction's operands can resolve against.

    Built by the switch pipeline just before handing a TPP to the TCPU —
    at that point the routing lookup has already chosen the egress port, so
    ``Queue:``/``Link:`` reads observe the queue the packet is *about to*
    join, exactly the semantics of Figure 1.
    """

    metadata: Any                 # repro.asic.metadata.PacketMetadata
    egress_port: Any              # repro.net.port.Port
    time_ns: int = 0
    task_id: int = 0

    @property
    def queue(self) -> Any:
        """The egress queue the packet will be stored in (selected by the
        classifier and recorded in the metadata's queue id)."""
        queue_id = getattr(self.metadata, "queue_id", 0)
        queue_for = getattr(self.egress_port, "queue_for", None)
        if queue_for is None:  # minimal port stand-ins in tests
            return self.egress_port.queue
        return queue_for(queue_id)

    @property
    def egress_port_index(self) -> int:
        """Index of the selected egress port on the switch."""
        return self.egress_port.index


Reader = Callable[[ExecutionContext], int]
Writer = Callable[[ExecutionContext, int], None]


@dataclass
class SRAMRegion:
    """One allocation handed out by the control-plane agent."""

    start_word: int
    n_words: int
    task_id: int

    def contains(self, word: int) -> bool:
        return self.start_word <= word < self.start_word + self.n_words


class MMU:
    """One switch's unified address space."""

    COUNTERS = ("accessor_resolutions", "layout_version")

    def __init__(self, memory_map: Optional[MemoryMap] = None,
                 name: str = "") -> None:
        self.memory_map = memory_map if memory_map else MemoryMap.standard()
        self.name = name
        self._readers: Dict[int, Reader] = {}
        #: Word store for the global scratch SRAM.
        self._sram: List[int] = [0] * SRAM_WORDS
        self._sram_regions: List[SRAMRegion] = []
        self._link_scratch: Dict[int, List[int]] = {}
        self.enforce_sram_protection = False
        # Pre-resolved accessor tables (the fast path): virtual address ->
        # bound getter/setter, built at first touch so namespace + offset
        # resolution is hoisted out of the per-instruction path.
        self._reader_accessors: Dict[int, Reader] = {}
        self._writer_accessors: Dict[int, Writer] = {}
        #: Bumped whenever the address-space layout changes (a reader is
        #: re-bound); compiled programs bound against an older version are
        #: stale and must be recompiled.
        self.layout_version = 0
        #: Accessor closures built so far (resolution work actually done).
        self.accessor_resolutions = 0

    # ------------------------------------------------------------------ #
    # Binding read-only statistics
    # ------------------------------------------------------------------ #

    def bind_reader(self, name_or_vaddr, reader: Reader) -> None:
        """Expose a statistic at an address (or mnemonic) read-only.

        Binding (or re-binding) changes the address-space layout, so every
        pre-resolved accessor — and every compiled program holding one —
        is invalidated.
        """
        vaddr = self._to_vaddr(name_or_vaddr)
        self._readers[vaddr] = reader
        self.invalidate_accessors()

    def _to_vaddr(self, name_or_vaddr) -> int:
        if isinstance(name_or_vaddr, str):
            return self.memory_map.resolve(name_or_vaddr)
        return int(name_or_vaddr)

    # ------------------------------------------------------------------ #
    # Pre-resolved accessors (the compiled fast path)
    # ------------------------------------------------------------------ #

    def invalidate_accessors(self) -> None:
        """Drop every pre-resolved accessor after a layout change.

        Bumps :attr:`layout_version` so TCPUs holding compiled programs
        (whose closures bound the old accessors) recompile as well.
        """
        self._reader_accessors.clear()
        self._writer_accessors.clear()
        self.layout_version += 1

    def reader_for(self, vaddr: int) -> Reader:
        """A bound getter for ``vaddr``, resolved once and cached.

        Resolution never raises: an unmapped address yields an accessor
        that raises :class:`TCPUFault` *when called*, preserving the
        interpreter's read-time fault semantics (an instruction behind a
        disabling CEXEC must not fault at compile time).
        """
        accessor = self._reader_accessors.get(vaddr)
        if accessor is None:
            accessor = self._build_reader(vaddr)
            self._reader_accessors[vaddr] = accessor
            self.accessor_resolutions += 1
        return accessor

    def writer_for(self, vaddr: int) -> Writer:
        """A bound setter for ``vaddr``, resolved once and cached.

        Read-only and unmapped addresses yield accessors that raise the
        interpreter's exact fault codes when called.
        """
        accessor = self._writer_accessors.get(vaddr)
        if accessor is None:
            accessor = self._build_writer(vaddr)
            self._writer_accessors[vaddr] = accessor
            self.accessor_resolutions += 1
        return accessor

    def _build_reader(self, vaddr: int) -> Reader:
        if is_sram(vaddr):
            word = vaddr - SRAM_BASE
            sram = self._sram

            def read_sram(ctx: ExecutionContext) -> int:
                if self.enforce_sram_protection:
                    self._check_sram_access(word, ctx.task_id)
                return sram[word]

            return read_sram
        if is_link_scratch(vaddr):
            slot = vaddr - LINK_SCRATCH_BASE

            def read_scratch(ctx: ExecutionContext) -> int:
                return self._port_scratch(ctx.egress_port.index)[slot]

            return read_scratch
        reader = self._readers.get(vaddr)
        if reader is None:
            message = (f"{self.name}: no statistic at {vaddr:#06x} "
                       f"({region_of(vaddr)} region)")

            def read_unmapped(ctx: ExecutionContext) -> int:
                raise TCPUFault(FaultCode.BAD_ADDRESS, message)

            return read_unmapped

        def read_stat(ctx: ExecutionContext) -> int:
            return int(reader(ctx))

        return read_stat

    def _build_writer(self, vaddr: int) -> Writer:
        if is_sram(vaddr):
            word = vaddr - SRAM_BASE
            sram = self._sram

            def write_sram(ctx: ExecutionContext, value: int) -> None:
                if self.enforce_sram_protection:
                    self._check_sram_access(word, ctx.task_id)
                sram[word] = int(value)

            return write_sram
        if is_link_scratch(vaddr):
            slot = vaddr - LINK_SCRATCH_BASE

            def write_scratch(ctx: ExecutionContext, value: int) -> None:
                self._port_scratch(ctx.egress_port.index)[slot] = int(value)

            return write_scratch
        if vaddr in self._readers:
            protected = (f"{self.name}: {self.memory_map.name_of(vaddr)} "
                         f"is read-only")

            def write_protected(ctx: ExecutionContext, value: int) -> None:
                raise TCPUFault(FaultCode.WRITE_PROTECTED, protected)

            return write_protected
        unmapped = (f"{self.name}: no memory at {vaddr:#06x} "
                    f"({region_of(vaddr)} region)")

        def write_unmapped(ctx: ExecutionContext, value: int) -> None:
            raise TCPUFault(FaultCode.BAD_ADDRESS, unmapped)

        return write_unmapped

    # ------------------------------------------------------------------ #
    # SRAM allocation (driven by the control-plane agent)
    # ------------------------------------------------------------------ #

    def allocate_sram(self, start_word: int, n_words: int,
                      task_id: int) -> SRAMRegion:
        """Mark ``[start, start+n)`` as owned by ``task_id``."""
        if start_word < 0 or start_word + n_words > SRAM_WORDS:
            raise TCPUFault(FaultCode.BAD_ADDRESS,
                            f"SRAM allocation [{start_word}, "
                            f"{start_word + n_words}) out of range")
        for region in self._sram_regions:
            overlap = (start_word < region.start_word + region.n_words
                       and region.start_word < start_word + n_words)
            if overlap:
                raise TCPUFault(
                    FaultCode.SRAM_PROTECTION,
                    f"allocation overlaps task {region.task_id}'s region")
        region = SRAMRegion(start_word, n_words, task_id)
        self._sram_regions.append(region)
        return region

    def release_sram(self, task_id: int) -> None:
        """Free every region owned by ``task_id`` (contents are zeroed)."""
        survivors = []
        for region in self._sram_regions:
            if region.task_id == task_id:
                for word in range(region.start_word,
                                  region.start_word + region.n_words):
                    self._sram[word] = 0
            else:
                survivors.append(region)
        self._sram_regions = survivors

    def sram_owner(self, word: int) -> Optional[int]:
        """Task owning an SRAM word, or ``None`` if unallocated."""
        for region in self._sram_regions:
            if region.contains(word):
                return region.task_id
        return None

    def sram_image(self) -> bytes:
        """The full SRAM contents as canonical bytes.

        One big-endian 64-bit word per SRAM slot.  This is the determinism
        fingerprint the sharded fleet driver hashes: two runs whose
        switches end with identical images performed identical SRAM
        write sequences, whatever the shard layout was.
        """
        sram = self._sram
        return b"".join(
            (int(sram[word]) & 0xFFFF_FFFF_FFFF_FFFF).to_bytes(8, "big")
            for word in range(SRAM_WORDS))

    def _check_sram_access(self, word: int, task_id: int) -> None:
        if not self.enforce_sram_protection:
            return
        owner = self.sram_owner(word)
        if owner is not None and owner != task_id:
            raise TCPUFault(
                FaultCode.SRAM_PROTECTION,
                f"SRAM word {word} belongs to task {owner}, "
                f"accessed by task {task_id}")

    # ------------------------------------------------------------------ #
    # Reads and writes
    # ------------------------------------------------------------------ #

    def read(self, vaddr: int, ctx: ExecutionContext) -> int:
        """Read a virtual address in the given execution context."""
        if is_sram(vaddr):
            word = vaddr - SRAM_BASE
            self._check_sram_access(word, ctx.task_id)
            return self._sram[word]
        if is_link_scratch(vaddr):
            slot = vaddr - LINK_SCRATCH_BASE
            return self._port_scratch(ctx.egress_port_index)[slot]
        reader = self._readers.get(vaddr)
        if reader is None:
            raise TCPUFault(
                FaultCode.BAD_ADDRESS,
                f"{self.name}: no statistic at {vaddr:#06x} "
                f"({region_of(vaddr)} region)")
        return int(reader(ctx))

    def write(self, vaddr: int, value: int, ctx: ExecutionContext) -> None:
        """Write a virtual address; only scratch regions are writable."""
        if is_sram(vaddr):
            word = vaddr - SRAM_BASE
            self._check_sram_access(word, ctx.task_id)
            self._sram[word] = int(value)
            return
        if is_link_scratch(vaddr):
            slot = vaddr - LINK_SCRATCH_BASE
            self._port_scratch(ctx.egress_port_index)[slot] = int(value)
            return
        if vaddr in self._readers:
            raise TCPUFault(
                FaultCode.WRITE_PROTECTED,
                f"{self.name}: {self.memory_map.name_of(vaddr)} is "
                f"read-only")
        raise TCPUFault(
            FaultCode.BAD_ADDRESS,
            f"{self.name}: no memory at {vaddr:#06x} "
            f"({region_of(vaddr)} region)")

    # ------------------------------------------------------------------ #
    # Direct (control-plane) access helpers
    # ------------------------------------------------------------------ #

    def peek_sram(self, word: int) -> int:
        """Control-plane read of an SRAM word (no protection checks)."""
        return self._sram[word]

    def poke_sram(self, word: int, value: int) -> None:
        """Control-plane write of an SRAM word (no protection checks)."""
        self._sram[word] = int(value)

    def peek_link_scratch(self, port_index: int, slot: int) -> int:
        """Control-plane read of a per-port scratch register."""
        return self._port_scratch(port_index)[slot]

    def poke_link_scratch(self, port_index: int, slot: int,
                          value: int) -> None:
        """Control-plane write of a per-port scratch register."""
        self._port_scratch(port_index)[slot] = int(value)

    def _port_scratch(self, port_index: int) -> List[int]:
        if port_index not in self._link_scratch:
            self._link_scratch[port_index] = [0] * LINK_SCRATCH_SLOTS
        return self._link_scratch[port_index]
