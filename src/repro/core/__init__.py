"""The paper's contribution: tiny packet programs and the TCPU.

Layout (mirrors Section 3 of the paper):

- :mod:`repro.core.isa` — the instruction set of Table 1 plus the "simple
  arithmetic" the paper allows, each instruction encoded in 4 bytes.
- :mod:`repro.core.tpp` — the packet structure of Figure 4: TPP header,
  instructions, packet memory, encapsulated payload; real wire encoding.
- :mod:`repro.core.memory_map` — the unified memory-mapped IO address space
  of §3.2.1 (Switch / PacketMetadata / Queue / Link / SRAM namespaces).
- :mod:`repro.core.mmu` — per-switch translation of virtual addresses to
  live statistics and scratch memory, with per-task SRAM protection.
- :mod:`repro.core.assembler` — the x86-like assembly language used in the
  paper's listings, with ``[Namespace:Statistic]`` mnemonics.
- :mod:`repro.core.tcpu` — the RISC interpreter of §3.3 with its 5-stage
  pipeline cycle model.
- :mod:`repro.core.fastpath` — the compile-once, execute-many fast path:
  per-opcode closures with pre-resolved address accessors, cached in a
  bounded LRU keyed by the program's instruction bytes.
- :mod:`repro.core.verifier` — eBPF-style static verification: an
  abstract interpreter that proves stack discipline, memory bounds, and
  address-map safety before injection, and certifies programs for
  admission, fleet race analysis and the batch engine's vector lane.
"""

from repro.core.isa import Instruction, Opcode
from repro.core.tpp import AddressingMode, TPPSection, TPP_HEADER_BYTES
from repro.core.memory_map import MemoryMap
from repro.core.mmu import ExecutionContext, MMU
from repro.core.assembler import AssembledProgram, assemble
from repro.core.disassembler import format_tpp
from repro.core.fastpath import CompiledEntry, ProgramCache, compile_program
from repro.core.tcpu import TCPU, ExecutionReport, PipelineModel
from repro.core.exceptions import AssemblerError, TCPUFault, TPPError
from repro.core.verifier import (
    Diagnostic,
    VerificationError,
    VerificationResult,
    VerifiedProgram,
    verify,
    verify_program,
    verify_section,
)

__all__ = [
    "Instruction",
    "Opcode",
    "AddressingMode",
    "TPPSection",
    "TPP_HEADER_BYTES",
    "MemoryMap",
    "ExecutionContext",
    "MMU",
    "AssembledProgram",
    "assemble",
    "format_tpp",
    "ProgramCache",
    "compile_program",
    "TCPU",
    "ExecutionReport",
    "PipelineModel",
    "AssemblerError",
    "TCPUFault",
    "TPPError",
    "CompiledEntry",
    "Diagnostic",
    "VerificationError",
    "VerificationResult",
    "VerifiedProgram",
    "verify",
    "verify_program",
    "verify_section",
]
