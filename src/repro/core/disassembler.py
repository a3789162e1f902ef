"""Disassembler: encoded instructions back to readable assembly.

Round-trips with :mod:`repro.core.assembler` up to operand spelling
(raw addresses are printed with their memory-map mnemonics when known).
Used by traces, error messages, and the Figure-1 style execution
visualizations in the examples.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.isa import ISA, Instruction
from repro.core.memory_map import MemoryMap
from repro.core.tpp import TPPSection


def disassemble_instruction(instruction: Instruction,
                            memory_map: Optional[MemoryMap] = None) -> str:
    """One instruction as assembly text, operands in the row's ``syntax``."""
    if memory_map is None:
        memory_map = MemoryMap.standard()
    offset = instruction.offset
    text = {
        "switch": f"[{memory_map.name_of(instruction.addr)}]",
        "packet": f"[Packet:{offset}]",
        "pair": f"[Packet:{offset}], [Packet:{offset + 1}]",
    }
    operands = ", ".join(text[kind]
                         for kind in ISA[instruction.opcode].syntax)
    return f"{instruction.opcode.name} {operands}".rstrip()


def format_tpp(tpp: TPPSection) -> str:
    """Human-readable dump of a TPP section (header, code, memory).

    This is the textual equivalent of the paper's Figure 1 packet
    snapshots.
    """
    memory_map = MemoryMap.standard()
    lines: List[str] = [
        f"TPP mode={tpp.mode.name} word={tpp.word_size} "
        f"hop/sp={tpp.hop_or_sp:#x} perhop={tpp.perhop_len_bytes}B "
        f"flags={tpp.flags:#04x} task={tpp.task_id} seq={tpp.seq}",
        "instructions:",
    ]
    for instruction in tpp.instructions:
        lines.append(f"  {disassemble_instruction(instruction, memory_map)}")
    lines.append("packet memory:")
    words = tpp.words()
    for index in range(0, len(words), 4):
        chunk = words[index:index + 4]
        rendered = " ".join(f"{word:#010x}" for word in chunk)
        lines.append(f"  [{index * tpp.word_size:#06x}] {rendered}")
    return "\n".join(lines)
