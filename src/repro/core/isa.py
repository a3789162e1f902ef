"""The TPP instruction set (paper Table 1, §3.2.3): one row per opcode.

Every instruction fits in exactly 4 bytes — the paper: "we were able to
encode an instruction and its operands in a 4-byte integer": an 8-bit
:class:`Opcode`, a 16-bit switch virtual address ``addr`` (see
``memory_map``) and an 8-bit packet-memory word ``offset``.

:data:`ISA` states what each opcode does, once; the assembler, the
disassembler, the verifier, the relational walk and the race summaries
read its rows instead of keeping their own opcode lists.  The reference
interpreter (``TCPU._step``) and the closure compiler
(``fastpath._compile_instruction``) stay hand-written;
``tests/core/test_isa_table.py`` holds both of them to the table.

Operand conventions (the paper's listings; stated here only):

- ``syntax`` is the assembly operand order.  ``switch`` is ``addr``;
  ``packet`` is ``offset``; ``pair`` is two packet operands, ``offset``
  and the word after it (``offset`` may be 255: the second word is then
  word 256), or two immediates the assembler places in its literal pool.
- ``packet`` is the packet operand's shape.  ``push``: the word at SP,
  then SP grows by one word.  ``pop``: SP shrinks by one word, then the
  word at SP.  ``word``: word ``offset``, hop-relative in hop-addressed
  programs (``hop * perhop_len + offset``), absolute otherwise.
  ``pair``: words ``offset`` and ``offset + 1``, absolute in every mode,
  so a program's immediates resolve to the same bytes on every hop.
- ``CSTORE dst, cond, src`` (§3.2.3): the old value of ``switch[addr]``
  is written back over ``cond`` so the end-host can tell whether the
  store won — this is what makes the primitive linearizable — and
  ``src`` is stored only when the old value equals ``cond``.
- ``CEXEC reg, mask, value`` is the one ``fence``: *all subsequent
  instructions* on this switch are disabled unless
  ``(switch[addr] & mask) == value``.
- ``alu`` rows accumulate a switch statistic into packet memory:
  ``packet[ea] = alu(packet[ea], switch[addr])``, masked to the word
  width (``MIN`` collects the minimum fair-share rate along a path).

**Fault order.**  An instruction performs its accesses in one order, so
the first failing access names its fault: packet reads, then the switch
read, then the packet write, then the switch write.  A bounds or stack
check belongs to the access it guards (``PUSH``'s overflow check is its
packet write, ``POP``'s underflow check its packet read).
"""

from __future__ import annotations

import enum
import operator
import struct
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

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


@dataclass(frozen=True)
class OpcodeRow:
    """What one opcode does (conventions: the module docstring)."""

    #: Assembly operands in order: ``switch``, ``packet`` or ``pair``.
    syntax: Tuple[str, ...]
    #: Packet operand shape: ``None``, ``push``, ``pop``, ``word`` or
    #: ``pair``.
    packet: Optional[str] = None
    reads_switch: bool = False
    writes_switch: bool = False
    reads_packet: bool = False
    writes_packet: bool = False
    #: A false condition disables every later instruction on this switch.
    fence: bool = False
    #: ``packet[ea] = alu(packet[ea], switch[addr])`` on raw operands.
    alu: Optional[Callable[[int, int], int]] = None

    @property
    def stack_delta(self) -> int:
        """SP movement in words."""
        return {"push": 1, "pop": -1}.get(self.packet or "", 0)

    @property
    def arity(self) -> int:
        """Assembly operand count (a pair is two)."""
        return sum(2 if kind == "pair" else 1 for kind in self.syntax)


def _alu(function: Callable[[int, int], int]) -> OpcodeRow:
    return OpcodeRow(("packet", "switch"), "word", reads_switch=True,
                     reads_packet=True, writes_packet=True, alu=function)


#: The instruction set, one row per opcode.
ISA: Dict[Opcode, OpcodeRow] = {
    Opcode.NOP: OpcodeRow(()),
    Opcode.LOAD: OpcodeRow(("switch", "packet"), "word",
                           reads_switch=True, writes_packet=True),
    Opcode.STORE: OpcodeRow(("switch", "packet"), "word",
                            writes_switch=True, reads_packet=True),
    Opcode.PUSH: OpcodeRow(("switch",), "push",
                           reads_switch=True, writes_packet=True),
    Opcode.POP: OpcodeRow(("switch",), "pop",
                          writes_switch=True, reads_packet=True),
    Opcode.CSTORE: OpcodeRow(("switch", "pair"), "pair",
                             reads_switch=True, writes_switch=True,
                             reads_packet=True, writes_packet=True),
    Opcode.CEXEC: OpcodeRow(("switch", "pair"), "pair", reads_switch=True,
                            reads_packet=True, fence=True),
    Opcode.ADD: _alu(operator.add),
    Opcode.SUB: _alu(operator.sub),
    Opcode.AND: _alu(operator.and_),
    Opcode.OR: _alu(operator.or_),
    Opcode.XOR: _alu(operator.xor),
    Opcode.MIN: _alu(min),
    Opcode.MAX: _alu(max),
}


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
    A fence has delta zero, so ``prefix[k]`` is also the delta of the
    path a disabling fence at ``k`` truncates the program to.
    """
    prefix = [0]
    for instruction in instructions:
        prefix.append(prefix[-1] + word_size
                      * ISA[instruction.opcode].stack_delta)
    return prefix


def stack_extremes(instructions: Sequence[Instruction],
                   word_size: int) -> Tuple[List[int], int, int]:
    """``(prefix, dmin, dmax)``: :func:`stack_prefix` plus the smallest
    and largest SP delta one execution can leave behind — the full
    program, or the prefix ending at any fence that disabled the suffix.
    After ``h`` clean hops the SP lies in ``[h * dmin, h * dmax]``.
    """
    prefix = stack_prefix(instructions, word_size)
    deltas = {prefix[-1]} | {
        prefix[k] for k, i in enumerate(instructions)
        if ISA[i.opcode].fence}
    return prefix, min(deltas), max(deltas)
