"""Compile-once, execute-many TPP execution (the fast path).

The paper's execution model is *tiny and repetitive*: the same
5-instruction program is carried by millions of probes and executed at
every hop ("Millions of Little Minions" makes this execute-many model
explicit — the ASIC decodes a TPP once into its pipeline and then simply
re-runs it).  The interpreter in :mod:`repro.core.tcpu` instead re-decodes
the opcode and re-resolves every memory-mapped address on every single
instruction of every execution.

This module removes that per-execution work in two layers:

- :func:`compile_program` turns a decoded instruction list into a flat
  tuple of specialized per-opcode closures.  Each closure has its operands
  — word size, packet-memory offsets, and the switch's pre-resolved
  getter/setter for the instruction's virtual address (see
  :meth:`repro.core.mmu.MMU.reader_for`) — bound at compile time, so the
  per-hop cost is one Python call per instruction.
- :class:`ProgramCache` is a bounded LRU keyed by the TPP's
  *program key* (the instruction wire bytes plus addressing mode and word
  size, :attr:`repro.core.tpp.TPPSection.program_key`), so a program is
  compiled once per switch and every later execution — of any packet
  carrying the same program — skips decode and address resolution
  entirely.

Compiled closures are bit-compatible with the interpreter: same fault
codes in the same order, same packet-memory bytes, same
:class:`~repro.core.tcpu.ExecutionReport` contents.  The differential
test suite (``tests/core/test_fastpath_differential.py``) runs both paths
side by side on every opcode and fault path to enforce this.

There is exactly one compiled form of a program: every closure keeps its
packet-memory bounds and stack checks, whether or not the TCPU holds a
verifier certificate (:class:`~repro.core.verifier.VerifiedProgram`) for
it.  A certificate adds *facts*, not a second code path: the
:class:`CompiledEntry` holds it so :func:`build_batch_plan` and
:mod:`repro.core.batch` can decide, per batch, whether the vector lane
(accumulate / claim updates of scratch SRAM, nothing else) may run —
from its guard (memory length, per-hop stride, hop/SP-counter interval)
and SRAM dataflow classes only.  Those are the fields that do
not depend on packet-memory *contents*, which the batch guard never
checks; nothing here reads the image-dependent race facts.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from typing import Any, Callable, List, Optional, Tuple

from repro.core.exceptions import FaultCode, TCPUFault
from repro.core.isa import ISA, Instruction, Opcode
from repro.core.mmu import MMU
from repro.core.racecheck import DATAFLOW_ACCUMULATE, analyze_sram_dataflow
from repro.core.tpp import AddressingMode

#: One compiled instruction: ``step(tpp, ctx, report) -> enabled`` with the
#: exact raise/return contract of ``TCPU._step``.
Step = Callable[..., bool]

#: Default LRU capacity of a per-TCPU program cache.  An experiment runs a
#: handful of distinct programs (the paper's apps use one or two each), so
#: this is generous; it exists to bound a hostile workload, not to be hit.
DEFAULT_PROGRAM_CACHE_CAPACITY = 128

#: Pre-compiled big-endian codecs per supported word size
#: (``SUPPORTED_WORD_SIZES``).  ``pack_into``/``unpack_from`` write and
#: read packet memory in place — byte-identical to
#: ``int.to_bytes(word, "big")`` on masked values, without the
#: intermediate ``bytes`` object per instruction.
_WORD_STRUCTS = {4: struct.Struct(">I"), 8: struct.Struct(">Q")}

def _bounds_message(byte_offset: int, memory_len: int) -> str:
    """The exact message ``TPPSection._check_bounds`` raises with."""
    return (f"word access at byte {byte_offset} outside packet memory "
            f"of {memory_len} bytes")


class CompiledEntry:
    """One cached compilation unit of a program on one switch.

    ``steps`` are the program's closures.  ``certificate`` is the
    verifier certificate the TCPU held for the program at compile time
    (``None``: never analysed, batches always take the safe lane): a
    batch may only take the vector lane when every section matches its
    ``memory_len``/``perhop_len_bytes`` exactly and the shared hop/SP
    counter lies in ``[guard_lo, guard_hi]``.  ``batch_plan`` (attached
    by the TCPU for exactly the certified programs) carries the
    batch-shape facts :mod:`repro.core.batch` decides per batch on.
    """

    __slots__ = ("steps", "certificate", "batch_plan")

    def __init__(self, steps: Tuple[Step, ...],
                 certificate: Any = None) -> None:
        self.steps = steps
        self.certificate = certificate
        self.batch_plan: Optional[BatchPlan] = None


class BatchPlan:
    """Batch-shape facts about one compiled program.

    Built once per compilation (certified programs only) by
    :func:`build_batch_plan` and attached to the program's
    :class:`CompiledEntry`.  ``ops`` is the instruction list lowered to
    the write-lane kernel's micro-ops against the certificate's SRAM
    dataflow classes (:func:`repro.core.racecheck.analyze_sram_dataflow`)
    — ``None`` when any instruction is outside the kernel's vocabulary:

    - ``("nop",)``
    - ``("add_acc", word, offset_bytes)`` — a read of an *accumulate*
      word after its first store, served from the kernel's per-word
      partial-delta vector instead of the (stale during the batch) MMU
      store
    - ``("store_acc", word, offset_bytes, vaddr)`` — a store closing an
      additive chain
    - ``("cstore_claim", word, cond_offset_bytes, vaddr)`` — the
      first-match-wins claim select

    ``demote_reason`` names why the lowering refused (``"cexec"`` or
    ``"write_dataflow"``) for the batch engine's per-reason demotion
    counters; ``sram_words``/``acc_words``/``aff_slots`` carry the
    kernel state the micro-ops reference.
    """

    __slots__ = ("ops", "n_instructions", "demote_reason", "sram_words",
                 "acc_words", "aff_slots")

    def __init__(self, ops: Optional[Tuple[Tuple[Any, ...], ...]],
                 n_instructions: int,
                 demote_reason: Optional[str] = None,
                 sram_words: Tuple[int, ...] = (),
                 acc_words: Tuple[int, ...] = (),
                 aff_slots: Tuple[Tuple[int, int], ...] = ()) -> None:
        self.ops = ops
        self.n_instructions = n_instructions
        self.demote_reason = demote_reason
        self.sram_words = sram_words
        self.acc_words = acc_words
        self.aff_slots = aff_slots


def build_batch_plan(instructions: List[Instruction],
                     mode: AddressingMode, word_size: int,
                     certificate: Any) -> BatchPlan:
    """Lower a program to the write-lane kernel's micro-ops (if possible).

    The certificate's pinned ``sram_dataflow`` must match this
    lowering's own analysis exactly (a stale or foreign certificate
    demotes instead of mis-vectorizing), and every written word must
    classify as accumulate or claim.  Everything the analysis gives no
    role — any read of a statistic, ``PUSH``/``POP``, hop-relative
    operands, a write outside scratch SRAM — demotes: the compiled
    scalar lane already decodes such a program once, and stateless
    reads gain nothing from instruction-major order.
    """
    analysis = analyze_sram_dataflow(instructions, mode=mode,
                                     word_size=word_size)
    pinned = getattr(certificate, "sram_dataflow", None)
    roles: Tuple[Any, ...] = (None,) * len(instructions)
    if analysis.ok and pinned == analysis.classes:
        roles = analysis.roles
    ops: List[Tuple[Any, ...]] = []
    demote_reason: Optional[str] = None
    acc_written: set = set()
    for instruction, role in zip(instructions, roles):
        opcode = instruction.opcode
        if opcode == Opcode.NOP:
            ops.append(("nop",))
            continue
        if role is None:
            # Control flow, or an instruction outside the write lane
            # (a read, a mixed word, a non-SRAM target, a stale
            # certificate).
            if opcode == Opcode.CEXEC:
                demote_reason = "cexec"
            elif demote_reason is None:
                demote_reason = "write_dataflow"
            continue
        tag, sram_word = role
        offset_bytes = instruction.offset * word_size
        if tag == "add_acc":
            # Before the word's first store the kernel's delta vector
            # is identically zero, and the matrix column holds values
            # *relative* to the entry value — adding zero is a no-op, so
            # the op is elided (the slot still gets its entry-vector
            # fixup from ``aff_slots``).
            if sram_word in acc_written:
                ops.append(("add_acc", sram_word, offset_bytes))
        else:  # store_acc / cstore_claim
            if tag == "store_acc":
                acc_written.add(sram_word)
            ops.append((tag, sram_word, offset_bytes, instruction.addr))
    if demote_reason is not None:
        return BatchPlan(None, len(instructions), demote_reason)
    return BatchPlan(
        tuple(ops), len(instructions),
        sram_words=tuple(w for w, _ in analysis.classes),
        acc_words=tuple(w for w, cls in analysis.classes
                        if cls == DATAFLOW_ACCUMULATE),
        aff_slots=analysis.aff_slots)


class ProgramCache:
    """Bounded LRU of compiled programs with hit/miss accounting.

    Keys are opaque program fingerprints (byte strings).  Two programs of
    the same length but different instruction bytes necessarily have
    different keys, so a collision can only mean byte-identical programs —
    which compile identically.
    """

    __slots__ = ("capacity", "hits", "misses", "evictions",
                 "invalidations", "_entries")
    COUNTERS = ("size", "capacity", "hits", "misses", "evictions",
                "invalidations")

    def __init__(self,
                 capacity: int = DEFAULT_PROGRAM_CACHE_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._entries: "OrderedDict[bytes, Any]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size(self) -> int:
        """Entries currently cached."""
        return len(self._entries)

    def __contains__(self, key: bytes) -> bool:
        return key in self._entries

    def get(self, key: bytes) -> Any:
        """Compiled entry for ``key``, or ``None`` (counts hit/miss)."""
        entries = self._entries
        entry = entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        entries.move_to_end(key)
        self.hits += 1
        return entry

    def put(self, key: bytes, entry: Any) -> None:
        """Insert (or refresh) an entry, evicting the LRU past capacity."""
        entries = self._entries
        if key in entries:
            entries.move_to_end(key)
        entries[key] = entry
        if len(entries) > self.capacity:
            entries.popitem(last=False)
            self.evictions += 1

    def discard(self, key: bytes) -> None:
        """Drop one entry without counters (a certificate arrived for or
        left the program, so its entry must be rebuilt)."""
        self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry (switch address-space layout changed)."""
        if self._entries:
            self._entries.clear()
        self.invalidations += 1


def compile_program(instructions: List[Instruction], mode: AddressingMode,
                    word_size: int, mmu: MMU) -> Tuple[Step, ...]:
    """Compile a program into per-opcode closures bound to one MMU.

    The result is valid until the MMU's address-space layout changes
    (:attr:`repro.core.mmu.MMU.layout_version`); the TCPU clears its
    program cache when it observes a version bump.
    """
    hop_mode = mode == AddressingMode.HOP
    return tuple(
        _compile_instruction(instruction, hop_mode, word_size, mmu)
        for instruction in instructions)


def _compile_instruction(instruction: Instruction, hop_mode: bool,
                         word: int, mmu: MMU) -> Step:
    opcode = instruction.opcode
    addr = instruction.addr
    offset_bytes = instruction.offset * word
    mask = (1 << (8 * word)) - 1
    row = ISA[opcode]
    hop_relative = hop_mode and row.packet == "word"
    codec = _WORD_STRUCTS[word]
    pack_into = codec.pack_into
    unpack_from = codec.unpack_from

    if opcode == Opcode.NOP:
        return _step_nop

    if opcode == Opcode.PUSH:
        read = mmu.reader_for(addr)

        def step_push(tpp, ctx, report) -> bool:
            value = read(ctx)
            sp = tpp.hop_or_sp
            memory = tpp.memory
            if sp + word > len(memory):
                raise TCPUFault(
                    FaultCode.STACK_OVERFLOW,
                    f"PUSH at SP={sp} past {len(memory)} bytes")
            pack_into(memory, sp, value & mask)
            tpp.hop_or_sp = sp + word
            return True

        return step_push

    if opcode == Opcode.POP:
        write = mmu.writer_for(addr)

        def step_pop(tpp, ctx, report) -> bool:
            sp = tpp.hop_or_sp
            if sp < word:
                raise TCPUFault(FaultCode.STACK_UNDERFLOW,
                                f"POP with SP={sp}")
            sp -= word
            tpp.hop_or_sp = sp
            memory = tpp.memory
            if sp + word > len(memory):
                raise IndexError(_bounds_message(sp, len(memory)))
            value = unpack_from(memory, sp)[0]
            write(ctx, value)
            report.switch_writes.append((addr, value))
            return True

        return step_pop

    if opcode == Opcode.LOAD:
        read = mmu.reader_for(addr)

        def step_load(tpp, ctx, report) -> bool:
            value = read(ctx)
            if hop_relative:
                ea = (tpp.hop_or_sp * tpp.perhop_len_bytes
                      + offset_bytes)
            else:
                ea = offset_bytes
            memory = tpp.memory
            if ea + word > len(memory):
                raise IndexError(_bounds_message(ea, len(memory)))
            pack_into(memory, ea, value & mask)
            return True

        return step_load

    if opcode == Opcode.STORE:
        write = mmu.writer_for(addr)

        def step_store(tpp, ctx, report) -> bool:
            if hop_relative:
                ea = (tpp.hop_or_sp * tpp.perhop_len_bytes
                      + offset_bytes)
            else:
                ea = offset_bytes
            memory = tpp.memory
            if ea + word > len(memory):
                raise IndexError(_bounds_message(ea, len(memory)))
            value = unpack_from(memory, ea)[0]
            write(ctx, value)
            report.switch_writes.append((addr, value))
            return True

        return step_store

    if opcode == Opcode.CSTORE:
        # CSTORE dst, cond, src — conditional operands use absolute word
        # offsets even in hop mode (see repro.core.isa module docs).
        read = mmu.reader_for(addr)
        write = mmu.writer_for(addr)
        cond_offset = offset_bytes
        src_offset = cond_offset + word

        def step_cstore(tpp, ctx, report) -> bool:
            memory = tpp.memory
            n = len(memory)
            if cond_offset + word > n:
                raise IndexError(_bounds_message(cond_offset, n))
            cond = unpack_from(memory, cond_offset)[0]
            if src_offset + word > n:
                raise IndexError(_bounds_message(src_offset, n))
            src = unpack_from(memory, src_offset)[0]
            old = read(ctx)
            pack_into(memory, cond_offset, old & mask)
            if old == cond:
                write(ctx, src)
                report.switch_writes.append((addr, src))
            return True

        return step_cstore

    if opcode == Opcode.CEXEC:
        read = mmu.reader_for(addr)
        mask_offset = offset_bytes
        value_offset = mask_offset + word

        def step_cexec(tpp, ctx, report) -> bool:
            memory = tpp.memory
            n = len(memory)
            if mask_offset + word > n:
                raise IndexError(_bounds_message(mask_offset, n))
            mask_value = unpack_from(memory, mask_offset)[0]
            if value_offset + word > n:
                raise IndexError(_bounds_message(value_offset, n))
            expected = unpack_from(memory, value_offset)[0]
            register = read(ctx)
            return (register & mask_value) == expected

        return step_cexec

    operation = row.alu
    if operation is not None:
        read = mmu.reader_for(addr)

        def step_arithmetic(tpp, ctx, report) -> bool:
            if hop_relative:
                ea = (tpp.hop_or_sp * tpp.perhop_len_bytes
                      + offset_bytes)
            else:
                ea = offset_bytes
            memory = tpp.memory
            if ea + word > len(memory):
                raise IndexError(_bounds_message(ea, len(memory)))
            current = unpack_from(memory, ea)[0]
            operand = read(ctx)
            pack_into(memory, ea, operation(current, operand) & mask)
            return True

        return step_arithmetic

    def step_bad(tpp, ctx, report) -> bool:
        raise TCPUFault(FaultCode.BAD_INSTRUCTION,
                        f"opcode {opcode!r} not implemented")

    return step_bad


def _step_nop(tpp, ctx, report) -> bool:
    return True
