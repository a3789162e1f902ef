"""The TPP instruction set (paper Table 1, §3.2.3).

Every instruction fits in exactly 4 bytes — the paper: "we were able to
encode an instruction and its operands in a 4-byte integer".  The layout is

====== ======= ====================================================
field  width   meaning
====== ======= ====================================================
opcode 8 bits  one of :class:`Opcode`
addr   16 bits switch virtual address (see ``memory_map``)
offset 8 bits  packet-memory word offset (interpretation per opcode)
====== ======= ====================================================

Operand conventions (matching the paper's listings):

- ``PUSH addr`` / ``POP addr`` use the TPP's stack pointer; ``offset`` is
  unused.
- ``LOAD addr, offset`` copies ``switch[addr]`` into packet memory at the
  *effective address* of ``offset`` (hop-relative in hop mode, absolute
  otherwise).  ``STORE addr, offset`` copies the other way.
- ``CSTORE addr, offset``: the conditional store of §3.2.3
  (``CSTORE dst, cond, src``): ``cond`` is the packet word at absolute
  offset ``offset`` and ``src`` the word after it.  The old value of
  ``switch[addr]`` is written back over ``cond`` so the end-host can tell
  whether the store won — this is what makes the primitive linearizable.
- ``CEXEC addr, offset``: conditional execute; ``mask`` is the packet word
  at absolute offset ``offset`` and ``value`` the word after it.  Execution
  of *all subsequent instructions* on this switch is disabled unless
  ``(switch[addr] & mask) == value``.
- Arithmetic (``ADD``..``MAX``) accumulates a switch statistic into packet
  memory: ``packet[ea(offset)] = packet[ea(offset)] OP switch[addr]``.
  ``MIN`` is how a single packet word can collect the minimum fair-share
  rate along a path.

Conditional operands (CSTORE/CEXEC) use **absolute** word offsets even in
hop-addressed programs, so a program's immediates (materialized by the
assembler into a literal pool) resolve to the same bytes on every hop.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

from repro.core.exceptions import TPPEncodingError

INSTRUCTION_BYTES = 4
_STRUCT = struct.Struct("!BHB")


class Opcode(enum.IntEnum):
    """Operation codes.  Values are wire-stable."""

    NOP = 0x00
    LOAD = 0x01
    STORE = 0x02
    PUSH = 0x03
    POP = 0x04
    CSTORE = 0x05
    CEXEC = 0x06
    ADD = 0x10
    SUB = 0x11
    AND = 0x12
    OR = 0x13
    XOR = 0x14
    MIN = 0x15
    MAX = 0x16


# --------------------------------------------------------------------- #
# Opcode classes — the one statement of each opcode's operand behaviour.
# The interpreter, the closure compiler and the static analyses all
# import these; none keeps a private copy.
# --------------------------------------------------------------------- #

#: ALU semantics: ``packet[ea] = ALU_FUNCTIONS[op](packet[ea], switch[addr])``
#: on raw operands, masked to the word width by the caller afterwards.
ALU_FUNCTIONS: Dict[Opcode, Callable[[int, int], int]] = {
    Opcode.ADD: lambda a, b: a + b,
    Opcode.SUB: lambda a, b: a - b,
    Opcode.AND: lambda a, b: a & b,
    Opcode.OR: lambda a, b: a | b,
    Opcode.XOR: lambda a, b: a ^ b,
    Opcode.MIN: min,
    Opcode.MAX: max,
}

#: The arithmetic opcodes (``ADD``..``MAX``).
ALU_OPCODES = frozenset(ALU_FUNCTIONS)

#: Opcodes that read a packet operand pair at (offset, offset+1 word).
PAIR_OPERAND_OPCODES = frozenset({Opcode.CSTORE, Opcode.CEXEC})

#: Opcodes whose packet operand is hop-relative in hop-addressed programs.
HOP_RELATIVE_OPCODES = ALU_OPCODES | {Opcode.LOAD, Opcode.STORE}

#: Opcodes that read their switch virtual address.
SWITCH_READING_OPCODES = ALU_OPCODES | {
    Opcode.PUSH, Opcode.LOAD, Opcode.CSTORE, Opcode.CEXEC}

#: Opcodes that write into switch memory (need write permission).
SWITCH_WRITING_OPCODES = frozenset({Opcode.STORE, Opcode.POP, Opcode.CSTORE})

#: Opcodes that write packet memory (CSTORE writes the old switch value
#: back over its condition word).
PACKET_WRITING_OPCODES = ALU_OPCODES | {
    Opcode.PUSH, Opcode.LOAD, Opcode.CSTORE}

#: Stack-pointer movement in words; every other opcode leaves SP alone.
STACK_DELTA_WORDS = {Opcode.PUSH: 1, Opcode.POP: -1}


@dataclass(frozen=True)
class Instruction:
    """One decoded TPP instruction."""

    opcode: Opcode
    addr: int = 0
    offset: int = 0

    def __post_init__(self) -> None:
        # Normalize the opcode through the enum so direct construction
        # with a raw int (e.g. ``Instruction(0x99, ...)``) cannot smuggle
        # an undecodable byte onto the wire; the frozen dataclass needs
        # object.__setattr__ for the write-back.
        if not isinstance(self.opcode, Opcode):
            try:
                object.__setattr__(self, "opcode", Opcode(self.opcode))
            except ValueError as exc:
                raise TPPEncodingError(
                    f"unknown opcode {self.opcode!r}") from exc
        if not 0 <= self.addr <= 0xFFFF:
            raise TPPEncodingError(f"switch address out of range: "
                                   f"{self.addr:#x}")
        if not 0 <= self.offset <= 0xFF:
            raise TPPEncodingError(f"packet offset out of range: "
                                   f"{self.offset}")

    def encode(self) -> bytes:
        """Serialize to the 4-byte wire format."""
        return _STRUCT.pack(int(self.opcode), self.addr, self.offset)

    @classmethod
    def decode(cls, raw: bytes) -> "Instruction":
        """Parse 4 bytes into an instruction."""
        if len(raw) != INSTRUCTION_BYTES:
            raise TPPEncodingError(
                f"instruction must be {INSTRUCTION_BYTES} bytes, "
                f"got {len(raw)}")
        opcode_value, addr, offset = _STRUCT.unpack(raw)
        try:
            opcode = Opcode(opcode_value)
        except ValueError as exc:
            raise TPPEncodingError(
                f"unknown opcode {opcode_value:#x}") from exc
        return cls(opcode, addr, offset)


def encode_program(instructions: Iterable[Instruction]) -> bytes:
    """Serialize a sequence of instructions back-to-back."""
    return b"".join(instruction.encode() for instruction in instructions)


def decode_program(raw: bytes) -> List[Instruction]:
    """Parse back-to-back 4-byte instructions."""
    if len(raw) % INSTRUCTION_BYTES:
        raise TPPEncodingError(
            f"instruction stream length {len(raw)} is not a multiple "
            f"of {INSTRUCTION_BYTES}")
    return [Instruction.decode(raw[i:i + INSTRUCTION_BYTES])
            for i in range(0, len(raw), INSTRUCTION_BYTES)]


def stack_prefix(instructions: Sequence[Instruction],
                 word_size: int) -> List[int]:
    """Running SP delta in bytes *before* each instruction.

    ``prefix[j]`` is the stack-pointer movement of instructions
    ``[0, j)``; ``prefix[len(instructions)]`` is the whole program's.
    CEXEC has delta zero, so ``prefix[k]`` is also the delta of the path
    a disabling CEXEC at ``k`` truncates the program to.
    """
    prefix = [0]
    for instruction in instructions:
        prefix.append(prefix[-1] + word_size
                      * STACK_DELTA_WORDS.get(instruction.opcode, 0))
    return prefix


def stack_extremes(instructions: Sequence[Instruction],
                   word_size: int) -> Tuple[List[int], int, int]:
    """``(prefix, dmin, dmax)``: :func:`stack_prefix` plus the smallest
    and largest SP delta one execution can leave behind — the full
    program, or the prefix ending at any CEXEC that disabled the suffix.
    After ``h`` clean hops the SP lies in ``[h * dmin, h * dmax]``.
    """
    prefix = stack_prefix(instructions, word_size)
    deltas = {prefix[-1]} | {
        prefix[k] for k, i in enumerate(instructions)
        if i.opcode == Opcode.CEXEC}
    return prefix, min(deltas), max(deltas)
