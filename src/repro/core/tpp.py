"""The tiny-packet-program section of a packet (paper Figure 4).

Layout on the wire, directly after the Ethernet header::

    +------------------------------+
    | TPP header (12 bytes)        |  lengths, addressing mode, hop/SP,
    |                              |  per-hop size, flags, task, seq
    +------------------------------+
    | instructions (4 bytes each)  |
    +------------------------------+
    | packet memory                |  pre-allocated by the end-host;
    |                              |  "never grows/shrinks inside the
    |                              |   network"
    +------------------------------+
    | encapsulated payload         |  e.g. a TCP/IP packet (optional)
    +------------------------------+

All lengths are 4-byte aligned "for efficient encoding" (Figure 4).  The
header carries exactly the five fields the figure names, plus a flags byte
(fault reporting and the done-bit set by the receiver before echoing a TPP
back to its sender), a task id (for SRAM protection domains) and a sequence
number (so an end-host can match responses to probes).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Any, List

from repro.core.exceptions import FaultCode, TPPEncodingError
from repro.core.isa import (
    INSTRUCTION_BYTES,
    Instruction,
    decode_program,
    encode_program,
)
from repro.net.packet import payload_size

TPP_HEADER_BYTES = 12
_HEADER_STRUCT = struct.Struct("!HHBBHBBBB")

#: Execution on this switch (and all later ones) is finished; set by the
#: receiving end-host before echoing the TPP back so the reverse path does
#: not execute it again.
FLAG_DONE = 0x01
#: A fault occurred at some hop; the fault code is in the high nibble.
FLAG_FAULT = 0x02

_FAULT_SHIFT = 4
#: The highest fault code; a fault stamp above it names no fault.
_LAST_FAULT = max(FaultCode)

SUPPORTED_WORD_SIZES = (4, 8)


def program_key_of(instructions: List[Instruction], mode: "AddressingMode",
                   word_size: int) -> bytes:
    """Canonical program fingerprint: instruction wire bytes plus the
    addressing mode and word size — everything that affects how the
    program compiles and verifies, nothing that changes per hop.

    Shared by :attr:`TPPSection.program_key` (the fast-path cache key)
    and the static verifier's certificates
    (:class:`repro.core.verifier.VerifiedProgram`), so a certificate
    issued for an assembled program matches the in-flight sections built
    from it.
    """
    return encode_program(instructions) + bytes((int(mode), word_size))


class AddressingMode(enum.IntEnum):
    """How instructions address packet memory (§3.2.2)."""

    STACK = 0     #: PUSH/POP through the stack pointer.
    HOP = 1       #: base:offset — ``hop * perhop_len + offset`` words.
    ABSOLUTE = 2  #: offsets are absolute words into packet memory.


@dataclass(slots=True)
class TPPSection:
    """A TPP carried inside a packet, with live (mutable) packet memory."""

    instructions: List[Instruction]
    memory: bytearray
    mode: AddressingMode = AddressingMode.STACK
    word_size: int = 4
    hop_or_sp: int = 0
    perhop_len_bytes: int = 0
    flags: int = 0
    task_id: int = 0
    seq: int = 0
    payload: Any = None
    _length_cache: Any = field(default=None, init=False, repr=False,
                               compare=False)
    #: Memoized program fingerprint (see :attr:`program_key`).
    _program_key: Any = field(default=None, init=False, repr=False,
                              compare=False)

    def __post_init__(self) -> None:
        if self.word_size not in SUPPORTED_WORD_SIZES:
            raise TPPEncodingError(
                f"word size must be one of {SUPPORTED_WORD_SIZES}, "
                f"got {self.word_size}")
        if len(self.memory) % 4:
            raise TPPEncodingError(
                f"packet memory must be 4-byte aligned, "
                f"got {len(self.memory)} bytes")
        if self.perhop_len_bytes % 4:
            raise TPPEncodingError(
                f"per-hop length must be 4-byte aligned, "
                f"got {self.perhop_len_bytes}")
        if (self.flags & FLAG_FAULT
                and self.flags >> _FAULT_SHIFT > _LAST_FAULT):
            self.flags &= ~FLAG_FAULT  # no switch stamps such a code

    # ------------------------------------------------------------------ #
    # Sizes
    # ------------------------------------------------------------------ #

    @property
    def tpp_length_bytes(self) -> int:
        """Header + instructions + packet memory (Figure 4 field 1).

        Cached on first use: the TPP section "never grows/shrinks inside
        the network" (module docs), so the instruction count and packet
        memory *length* are fixed for the life of the section even though
        the memory contents mutate at every hop.  The encapsulated payload
        is deliberately not part of this cache — :attr:`size_bytes` reads
        it fresh so post-construction payload swaps (wire decode, trimmed
        echoes) stay correct.
        """
        length = self._length_cache
        if length is None:
            length = (TPP_HEADER_BYTES
                      + len(self.instructions) * INSTRUCTION_BYTES
                      + len(self.memory))
            self._length_cache = length
        return length

    def invalidate_length_cache(self) -> None:
        """Force recomputation after something *resized* packet memory.

        Only fault injection does this — a well-formed TPP's memory length
        is immutable in the network — but the corruption injector models a
        mangled length field by truncating ``memory``, and readers of the
        damaged section must see its real (shorter) size.
        """
        self._length_cache = None

    # ------------------------------------------------------------------ #
    # Fast-path caches
    # ------------------------------------------------------------------ #

    @property
    def program_key(self) -> bytes:
        """Fingerprint of the *program*: instruction wire bytes plus the
        addressing mode and word size (everything that affects how the
        instructions compile, nothing that changes per hop).

        This is the key of the TCPU's compile-once program cache
        (:mod:`repro.core.fastpath`).  Memoized because the instruction
        block never changes inside the network; anything that damages it
        (the link corruption injector) must call
        :meth:`invalidate_caches`.
        """
        key = self._program_key
        if key is None:
            key = program_key_of(self.instructions, self.mode,
                                 self.word_size)
            self._program_key = key
        return key

    def invalidate_caches(self) -> None:
        """Drop every memoized view of this section.

        The corruption injector calls this after mutating the section in
        place (truncated/bit-flipped memory, scrambled header fields), so
        the program key and length are recomputed from the damaged
        state.
        """
        self._program_key = None
        self._length_cache = None

    @property
    def size_bytes(self) -> int:
        """Wire size including the encapsulated payload."""
        return self.tpp_length_bytes + payload_size(self.payload)

    # ------------------------------------------------------------------ #
    # Stack pointer / hop counter views
    # ------------------------------------------------------------------ #

    @property
    def sp(self) -> int:
        """Stack pointer in bytes (stack-addressed programs)."""
        return self.hop_or_sp

    @sp.setter
    def sp(self, value: int) -> None:
        self.hop_or_sp = value

    @property
    def hop(self) -> int:
        """Hop counter (hop-addressed programs); incremented per switch."""
        return self.hop_or_sp

    @hop.setter
    def hop(self, value: int) -> None:
        self.hop_or_sp = value

    def hops_executed(self) -> int:
        """How many switches have executed this TPP so far.

        Works for both addressing modes: the hop counter directly in hop
        mode, SP divided by the per-hop footprint in stack mode (requires a
        program that pushes a fixed number of words per hop, which every
        program built by the assembler records in ``perhop_len_bytes``).
        """
        if self.mode == AddressingMode.HOP:
            return self.hop_or_sp
        if self.perhop_len_bytes:
            return self.hop_or_sp // self.perhop_len_bytes
        return 0

    # ------------------------------------------------------------------ #
    # Flags
    # ------------------------------------------------------------------ #

    @property
    def done(self) -> bool:
        """Whether the done-bit is set (skip execution everywhere)."""
        return bool(self.flags & FLAG_DONE)

    def mark_done(self) -> None:
        """Set the done-bit; switches will forward without executing."""
        self.flags |= FLAG_DONE

    @property
    def fault(self) -> FaultCode:
        """The recorded fault, or :attr:`FaultCode.NONE`."""
        if not self.flags & FLAG_FAULT:
            return FaultCode.NONE
        return FaultCode(self.flags >> _FAULT_SHIFT)

    def record_fault(self, code: FaultCode) -> None:
        """Stamp a fault code into the flags (first fault wins)."""
        if self.flags & FLAG_FAULT:
            return
        self.flags = ((self.flags & ~(0xF << _FAULT_SHIFT)) | FLAG_FAULT
                      | (int(code) << _FAULT_SHIFT))

    # ------------------------------------------------------------------ #
    # Packet memory access (word granularity)
    # ------------------------------------------------------------------ #

    def read_word(self, byte_offset: int) -> int:
        """Read one word (``word_size`` bytes, big-endian, unsigned)."""
        self._check_bounds(byte_offset)
        end = byte_offset + self.word_size
        return int.from_bytes(self.memory[byte_offset:end], "big")

    def write_word(self, byte_offset: int, value: int) -> None:
        """Write one word, truncated to the word width."""
        self._check_bounds(byte_offset)
        end = byte_offset + self.word_size
        mask = (1 << (8 * self.word_size)) - 1
        self.memory[byte_offset:end] = (value & mask).to_bytes(
            self.word_size, "big")

    def words(self) -> List[int]:
        """All of packet memory as a list of words.

        Only complete words are returned: a (hostile) packet may declare
        an 8-byte word size over memory that is not a multiple of 8, and
        observers of such packets must not crash on the ragged tail.
        """
        count = len(self.memory) // self.word_size
        code = "I" if self.word_size == 4 else "Q"
        return list(struct.unpack_from(f">{count}{code}", self.memory))

    def _check_bounds(self, byte_offset: int) -> None:
        if byte_offset < 0 or byte_offset + self.word_size > len(self.memory):
            raise IndexError(
                f"word access at byte {byte_offset} outside packet memory "
                f"of {len(self.memory)} bytes")

    # ------------------------------------------------------------------ #
    # Wire format
    # ------------------------------------------------------------------ #

    def encode(self) -> bytes:
        """Serialize header + instructions + packet memory.

        The encapsulated payload is a simulation object and is not
        serialized (its size is accounted separately).
        """
        header = _HEADER_STRUCT.pack(
            self.tpp_length_bytes,
            len(self.memory),
            int(self.mode),
            self.word_size,
            self.hop_or_sp,
            self.perhop_len_bytes,
            self.flags,
            self.task_id,
            self.seq,
        )
        return (header + encode_program(self.instructions)
                + bytes(self.memory))

    @classmethod
    def decode(cls, raw: bytes, payload: Any = None) -> "TPPSection":
        """Parse bytes produced by :meth:`encode`."""
        if len(raw) < TPP_HEADER_BYTES:
            raise TPPEncodingError(
                f"TPP too short: {len(raw)} < {TPP_HEADER_BYTES}")
        (tpp_len, mem_len, mode_value, word_size, hop_or_sp,
         perhop_len, flags, task_id, seq) = _HEADER_STRUCT.unpack(
            raw[:TPP_HEADER_BYTES])
        if tpp_len != len(raw):
            raise TPPEncodingError(
                f"TPP length field {tpp_len} != buffer length {len(raw)}")
        if flags & FLAG_FAULT and flags >> _FAULT_SHIFT > _LAST_FAULT:
            raise TPPEncodingError(
                f"fault stamp {flags >> _FAULT_SHIFT} names no fault code")
        instruction_bytes = tpp_len - TPP_HEADER_BYTES - mem_len
        if instruction_bytes < 0 or instruction_bytes % INSTRUCTION_BYTES:
            raise TPPEncodingError(
                f"inconsistent lengths: tpp={tpp_len} memory={mem_len}")
        try:
            mode = AddressingMode(mode_value)
        except ValueError as exc:
            raise TPPEncodingError(
                f"unknown addressing mode {mode_value}") from exc
        instructions_end = TPP_HEADER_BYTES + instruction_bytes
        instructions = decode_program(raw[TPP_HEADER_BYTES:instructions_end])
        memory = bytearray(raw[instructions_end:])
        return cls(instructions=instructions, memory=memory, mode=mode,
                   word_size=word_size, hop_or_sp=hop_or_sp,
                   perhop_len_bytes=perhop_len, flags=flags,
                   task_id=task_id, seq=seq, payload=payload)

    def copy(self) -> "TPPSection":
        """Deep copy (fresh packet memory); the payload is shared."""
        return TPPSection(
            instructions=list(self.instructions),
            memory=bytearray(self.memory),
            mode=self.mode,
            word_size=self.word_size,
            hop_or_sp=self.hop_or_sp,
            perhop_len_bytes=self.perhop_len_bytes,
            flags=self.flags,
            task_id=self.task_id,
            seq=self.seq,
            payload=self.payload,
        )
