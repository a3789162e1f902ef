"""The tiny CPU (paper §3.3).

The TCPU sits in the dataplane pipeline after the L2/L3/TCAM lookup stages
and just before the packet is copied into switch memory (Figure 3), so by
the time a TPP reaches it the egress port is known and ``Queue:``/``Link:``
addresses resolve against the link the packet is about to use.

Two things live here:

- :class:`TCPU` — the functional interpreter: executes a TPP's instructions
  sequentially against an :class:`~repro.core.mmu.MMU`, with the CEXEC
  kill-switch, CSTORE's linearizable conditional update, stack/hop/absolute
  packet-memory addressing, and per-packet fault stamping.
- :class:`PipelineModel` — the timing model of the 5-stage RISC pipeline
  (§3.3): instruction fetch is completed by the header parser; the
  remaining decode/execute/memory-read/memory-write stages give a latency
  of 4 cycles and a pipelined throughput of 1 instruction per cycle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.core.exceptions import FaultCode, TCPUFault
from repro.core.fastpath import (
    CompiledEntry,
    ProgramCache,
    build_batch_plan,
    compile_program,
)
from repro.core.isa import ISA, Instruction, Opcode
from repro.core.mmu import MMU, ExecutionContext
from repro.core.racecheck import FleetRaceTable, RaceDiagnostic
from repro.core.tpp import AddressingMode, FLAG_DONE, TPPSection

#: Default per-TPP instruction budget: the paper's "restricting TPPs to
#: (say) five instructions per-packet requires only 20 bytes".
DEFAULT_MAX_INSTRUCTIONS = 5

#: Valid ``TCPU(race_mode=...)`` settings: ``off`` skips fleet race
#: analysis, ``warn`` trusts but records conflicts, ``enforce`` refuses
#: certificates that introduce an error-severity race.
RACE_MODES = ("off", "warn", "enforce")


#: Memoized ``repro.core.batch.execute_batch`` (deferred import).
_BATCH_IMPL = None

#: Pipeline stages after the header parser has fetched the instructions.
PIPELINE_STAGES = ("decode", "execute", "memory-read", "memory-write")
PIPELINE_LATENCY_CYCLES = len(PIPELINE_STAGES)  # 4, as in the paper


@dataclass(slots=True)
class ExecutionReport:
    """What happened when one switch executed one TPP."""

    executed: int = 0
    skipped: int = 0
    fault: FaultCode = FaultCode.NONE
    cexec_disabled_at: Optional[int] = None
    cycles: int = 0
    switch_writes: List[Tuple[int, int]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the whole program ran without faulting."""
        return self.fault == FaultCode.NONE


class TCPU:
    """Executes TPPs against one switch's MMU."""

    COUNTERS = ("tpps_executed", "instructions_executed", "faults",
                "compile_enabled", "certificates", "verified_executions",
                "certificates_refused", "certificates_swept",
                "race_conflict_count", "batch_enabled", "batches_executed",
                "batched_tpps", "vector_batches", "vector_tpps",
                "batch_occupancy", "batch_demotions")

    def __init__(self, mmu: MMU,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 name: str = "tcpu", compile: bool = True,
                 race_mode: str = "warn",
                 batch: bool = True,
                 fence_values: Optional[dict] = None) -> None:
        if race_mode not in RACE_MODES:
            raise ValueError(
                f"race_mode must be one of {RACE_MODES}, "
                f"got {race_mode!r}")
        self.mmu = mmu
        self.max_instructions = max_instructions
        self.name = name
        self.tpps_executed = 0
        self.instructions_executed = 0
        self.faults = 0
        #: ``compile=False`` forces the reference interpreter (debugging,
        #: differential testing).
        self.compile_enabled = bool(compile)
        #: Compile-once program cache (LRU, per-TCPU because compiled
        #: closures bind this switch's pre-resolved MMU accessors).
        self.cache = ProgramCache()
        self._cache_layout_version = mmu.layout_version
        # One-entry memo over the LRU: back-to-back executions of the
        # same program (the overwhelmingly common case on a switch that
        # serves one active task) skip the OrderedDict bookkeeping.
        self._last_key: Optional[bytes] = None
        self._last_entry: Optional[CompiledEntry] = None
        #: Verifier certificates by program key.  Nothing execution
        #: reads from one depends on the memory image, so any image's
        #: serves every section of the program (the race table below
        #: keeps a member per image).  They do NOT survive MMU layout
        #: bumps: their TPP005/TPP007 address facts were proven against
        #: the bindings then in force (:meth:`_sweep_stale`).
        self._verified: dict = {}
        #: Compiled executions (scalar or batched, any lane) of programs
        #: this TCPU trusted at the time.
        self.verified_executions = 0
        #: Fleet race policy for :meth:`trust` (see :data:`RACE_MODES`).
        self.race_mode = race_mode
        #: Stable-register bindings for this switch (vaddr → value),
        #: e.g. its ``Switch:SwitchID``.  Lets the race table discount
        #: accesses behind constant fences that can never pass here.
        self.fence_values = dict(fence_values) if fence_values else None
        #: Incremental race table over the trusted certificates' SRAM
        #: access sets (:mod:`repro.core.racecheck`).
        self.fleet = FleetRaceTable(fence_values=self.fence_values)
        #: Race diagnostics recorded by ``warn``-mode admissions.
        self.race_conflicts: List[RaceDiagnostic] = []
        #: Certificates ``enforce`` mode turned away.
        self.certificates_refused = 0
        #: Certificates dropped by MMU layout-version sweeps.
        self.certificates_swept = 0
        #: ``batch=False`` forces packet-at-a-time execution even through
        #: :meth:`execute_batch` (the reference arrival order).
        self.batch_enabled = bool(batch)
        # -- Batched-execution accounting (repro.core.batch) --------------
        #: ``execute_batch`` calls that processed at least one section.
        self.batches_executed = 0
        #: Sections that went through ``execute_batch`` (any lane).
        self.batched_tpps = 0
        #: Batches / sections that ran the instruction-major kernel (the
        #: SRAM write lane: accumulate / claim dataflow classes).
        self.vector_batches = 0
        self.vector_tpps = 0
        #: Always 0 — the kernel calls no reader, so it cannot fault
        #: mid-batch.  Kept only because ``bench_e2e/layers.py`` reads
        #: the attribute.
        self.batch_fallbacks = 0
        #: Histogram of batch sizes seen: ``{occupancy: count}``.
        self.batch_occupancy: dict = {}
        #: Why batches took the safe lane: ``{reason: count}`` over
        #: ``uncertified`` (no certificate, or hop/SP outside its guard),
        #: ``cexec``, ``write_dataflow`` (anything but accumulate /
        #: claim SRAM updates: reads, stack or hop addressing, a write
        #: without a vectorizable dataflow class), ``non_uniform``
        #: (mixed flags/geometry/hop counter/task ids),
        #: and ``sram_protection`` (a touched word is foreign to the
        #: batch's task).
        self.batch_demotions: dict = {}

    # ------------------------------------------------------------------ #
    # Certificates
    # ------------------------------------------------------------------ #

    def trust(self, certificate) -> bool:
        """Register a :class:`~repro.core.verifier.VerifiedProgram`.

        A certificate never changes how a section executes — every
        compiled step keeps its bounds and stack checks.  It admits the
        program to the fleet race table, attaches a batch plan to its
        compiled entry (so same-program bursts whose sections pass the
        certificate's guard may take the vector lane, see
        :mod:`repro.core.batch`) and counts its executions in
        :attr:`verified_executions`.  The race table keeps every trusted
        *image* of the program (up to ``racecheck.MAX_IMAGES``) as a
        member until :meth:`distrust` retires it; execution keeps one
        certificate per program key, replaced (and recompiled) only by
        an image whose ``execution_facts`` differ.

        Unless ``race_mode`` is ``off``, the certificate's SRAM access
        sets are admitted to the fleet race table first: in ``enforce``
        mode a certificate introducing an error-severity race
        (``TPP020``/``TPP022``) against an already-trusted one is
        refused (returns ``False``; a trusted sibling image keeps the
        program's batch plan); in ``warn`` mode it is trusted and the
        conflict lands in :attr:`race_conflicts`, once per admission.
        Returns whether the certificate is trusted afterwards.
        """
        self._sweep_stale()
        if self.race_mode != "off":
            summary = certificate.summary
            if summary not in self.fleet:
                introduced = self.fleet.admit(summary)
                if (self.race_mode == "enforce" and any(
                        d.severity == "error" for d in introduced)):
                    self.fleet.revoke(summary)
                    self.certificates_refused += 1
                    return False
                self.race_conflicts.extend(introduced)
        key = certificate.program_key
        held = self._verified.get(key)
        if (held is None
                or held.execution_facts != certificate.execution_facts):
            self._verified[key] = certificate
            self._drop_compiled(key)
        return True

    def distrust(self, certificate) -> None:
        """Retire a certificate: its image leaves the race table, and
        its program loses its batch plan once the table holds no image
        of it (at once under ``race_mode="off"``, which tracks none)."""
        self.fleet.revoke(certificate)
        key = certificate.program_key
        if key in self._verified and not any(
                m.program_key == key for m in self.fleet.members):
            del self._verified[key]
            self._drop_compiled(key)

    def _drop_compiled(self, key: bytes) -> None:
        """Force a recompile so the entry's batch plan follows the
        certificate table."""
        self.cache.discard(key)
        if self._last_key == key:
            self._last_key = None
            self._last_entry = None

    @property
    def certificates(self) -> int:
        """Number of trusted program certificates."""
        self._sweep_stale()
        return len(self._verified)

    @property
    def race_conflict_count(self) -> int:
        """Diagnostics recorded in :attr:`race_conflicts`."""
        return len(self.race_conflicts)

    def _sweep_stale(self) -> None:
        """Drop certificates (and compiled programs) proven against a
        superseded MMU layout.

        ``trust`` certificates pin address-resolution facts (TPP005) and
        SRAM task ownership (TPP007) that a ``bind_reader``/
        ``bind_writer`` re-binding can silently change, so a
        ``layout_version`` bump invalidates the certificate table the
        same way it already invalidates the compiled-program cache.
        Callers re-admit programs through their admission path, which
        re-verifies against the live layout.
        """
        version = self.mmu.layout_version
        if version == self._cache_layout_version:
            return
        self.cache.clear()
        self._cache_layout_version = version
        self._last_key = None
        self._last_entry = None
        if self._verified:
            self.certificates_swept += len(self._verified)
            self._verified.clear()
        self.fleet = FleetRaceTable(fence_values=self.fence_values)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def execute(self, tpp: TPPSection,
                ctx: ExecutionContext) -> ExecutionReport:
        """Run a TPP at this switch.  Never raises on program errors:
        faults are stamped into the TPP's flags and reported."""
        report = ExecutionReport()
        if tpp.flags & FLAG_DONE:
            return report

        if len(tpp.instructions) > self.max_instructions:
            self._fault(tpp, report, TCPUFault(
                FaultCode.TOO_MANY_INSTRUCTIONS,
                f"{len(tpp.instructions)} instructions > limit "
                f"{self.max_instructions}"))
            self._advance_hop(tpp)
            return report

        ctx.task_id = tpp.task_id
        if not self.compile_enabled:
            return self._run_interpreted(tpp, ctx, report)
        # _compiled_entry's memo hit, inlined: same program as last time,
        # same MMU layout (so _sweep_stale would do nothing).
        entry = self._last_entry
        if (entry is None or tpp._program_key != self._last_key
                or self.mmu.layout_version != self._cache_layout_version):
            entry = self._compiled_entry(tpp)
        else:
            self.cache.hits += 1
        return self._run_entry(tpp, ctx, entry, report)

    def execute_batch(self, sections, ctxs):
        """Execute a group of same-program TPPs in one pass.

        Semantically identical to calling :meth:`execute` once per
        ``(section, ctx)`` pair in order — same reports, same packet
        memory bytes, same fault stamping, same counters — but the
        program-cache lookup and certificate guard are paid once per
        batch, and eligible batches (verified certificate, nothing but
        accumulate / claim updates of scratch SRAM) run an
        instruction-major kernel over columns of packet-memory words.  See
        :mod:`repro.core.batch` for the engine and the eligibility
        rules.
        """
        global _BATCH_IMPL
        if _BATCH_IMPL is None:
            # Deferred to break the tcpu <-> batch import cycle; memoized
            # because the import-machinery lookup is measurable per batch.
            from repro.core.batch import execute_batch
            _BATCH_IMPL = execute_batch
        return _BATCH_IMPL(self, sections, ctxs)

    def _run_entry(self, tpp: TPPSection, ctx: ExecutionContext,
                   entry: CompiledEntry,
                   report: ExecutionReport) -> ExecutionReport:
        """Run one section through compiled closures (shared by
        :meth:`execute` and the batch engine's safe lane; the caller has
        already done the done/limit prologue and set ``ctx.task_id``)."""
        if entry.batch_plan is not None:  # i.e. the program is trusted
            self.verified_executions += 1
        enabled = True
        executed = 0
        index = 0
        # The faulting instruction is *not* counted as executed (the
        # increment sits after the step call), matching the
        # interpreter loop exactly.  ``cexec_disabled_at`` records the
        # *first* disabling CEXEC only (first-occurrence semantics,
        # identical guard to the interpreter below).
        try:
            for step in entry.steps:
                if enabled:
                    enabled = step(tpp, ctx, report)
                    executed += 1
                    if not enabled and report.cexec_disabled_at is None:
                        report.cexec_disabled_at = index
                else:
                    report.skipped += 1
                index += 1
        except TCPUFault as fault:
            self._fault(tpp, report, fault)
        except IndexError as exc:
            self._fault(tpp, report, TCPUFault(
                FaultCode.MEMORY_BOUNDS, str(exc)))
        report.executed = executed
        # _advance_hop and pipeline_cycles, inlined.
        if tpp.mode == AddressingMode.HOP:
            tpp.hop_or_sp += 1
        report.cycles = (PIPELINE_LATENCY_CYCLES + executed - 1
                         if executed > 0 else 0)
        self.tpps_executed += 1
        self.instructions_executed += executed
        return report

    def _run_interpreted(self, tpp: TPPSection, ctx: ExecutionContext,
                         report: ExecutionReport) -> ExecutionReport:
        """Reference interpreter loop (the ``compile=False`` path)."""
        enabled = True
        for index, instruction in enumerate(tpp.instructions):
            if not enabled:
                report.skipped += 1
                continue
            try:
                enabled = self._step(tpp, ctx, instruction, report)
                report.executed += 1
                if not enabled and report.cexec_disabled_at is None:
                    report.cexec_disabled_at = index
            except TCPUFault as fault:
                self._fault(tpp, report, fault)
                break
            except IndexError as exc:
                self._fault(tpp, report, TCPUFault(
                    FaultCode.MEMORY_BOUNDS, str(exc)))
                break

        self._advance_hop(tpp)

        report.cycles = pipeline_cycles(report.executed)
        self.tpps_executed += 1
        self.instructions_executed += report.executed
        return report

    def _compiled_entry(self, tpp: TPPSection) -> CompiledEntry:
        """Compiled closures for this program, from the cache when warm.

        An MMU layout change (re-bound reader) invalidates every compiled
        program wholesale: the closures hold the old accessors, so the
        cache is cleared and programs recompile on next execution.
        Certificates are swept by the same bump (:meth:`_sweep_stale`):
        their address facts were proven against the old bindings, so a
        recompiled entry carries no batch plan until re-admission.
        """
        mmu = self.mmu
        self._sweep_stale()
        key = tpp._program_key
        if key is None:
            key = tpp.program_key
        if key == self._last_key:
            self.cache.hits += 1
            return self._last_entry
        entry = self.cache.get(key)
        if entry is None:
            steps = compile_program(tpp.instructions, tpp.mode,
                                    tpp.word_size, mmu)
            certificate = self._verified.get(key)
            entry = CompiledEntry(steps, certificate)
            if certificate is not None:
                entry.batch_plan = build_batch_plan(
                    tpp.instructions, tpp.mode, tpp.word_size, certificate)
            self.cache.put(key, entry)
        self._last_key = key
        self._last_entry = entry
        return entry

    @staticmethod
    def _advance_hop(tpp: TPPSection) -> None:
        """Consume this switch's hop slot, *including* on a fault.

        §3.4: a faulting TPP is stamped and forwarded, so the faulting
        hop's packet-memory slot must be reserved — if the hop counter did
        not advance, the next switch would silently overwrite whatever
        partial evidence the fault left behind, and the collector could no
        longer tell which hop faulted.
        """
        if tpp.mode == AddressingMode.HOP:
            tpp.hop += 1

    def _fault(self, tpp: TPPSection, report: ExecutionReport,
               fault: TCPUFault) -> None:
        report.fault = fault.code
        tpp.record_fault(fault.code)
        self.faults += 1

    def _step(self, tpp: TPPSection, ctx: ExecutionContext,
              instruction: Instruction, report: ExecutionReport) -> bool:
        """Execute one instruction; returns False when CEXEC disables the
        rest of the program on this switch."""
        opcode = instruction.opcode
        word = tpp.word_size

        if opcode == Opcode.NOP:
            return True

        if opcode == Opcode.PUSH:
            value = self.mmu.read(instruction.addr, ctx)
            if tpp.sp + word > len(tpp.memory):
                raise TCPUFault(
                    FaultCode.STACK_OVERFLOW,
                    f"PUSH at SP={tpp.sp} past {len(tpp.memory)} bytes")
            tpp.write_word(tpp.sp, value)
            tpp.sp += word
            return True

        if opcode == Opcode.POP:
            if tpp.sp < word:
                raise TCPUFault(FaultCode.STACK_UNDERFLOW,
                                f"POP with SP={tpp.sp}")
            tpp.sp -= word
            value = tpp.read_word(tpp.sp)
            self._write_switch(instruction.addr, value, ctx, report)
            return True

        if opcode == Opcode.LOAD:
            value = self.mmu.read(instruction.addr, ctx)
            tpp.write_word(self._effective_address(tpp, instruction), value)
            return True

        if opcode == Opcode.STORE:
            value = tpp.read_word(self._effective_address(tpp, instruction))
            self._write_switch(instruction.addr, value, ctx, report)
            return True

        if opcode == Opcode.CSTORE:
            cond_offset = instruction.offset * word
            src_offset = cond_offset + word
            cond = tpp.read_word(cond_offset)
            src = tpp.read_word(src_offset)
            old = self.mmu.read(instruction.addr, ctx)
            tpp.write_word(cond_offset, old)
            if old == cond:
                self._write_switch(instruction.addr, src, ctx, report)
            return True

        if opcode == Opcode.CEXEC:
            mask_offset = instruction.offset * word
            mask = tpp.read_word(mask_offset)
            expected = tpp.read_word(mask_offset + word)
            register = self.mmu.read(instruction.addr, ctx)
            return (register & mask) == expected

        alu = ISA[opcode].alu
        if alu is not None:
            ea = self._effective_address(tpp, instruction)
            current = tpp.read_word(ea)
            operand = self.mmu.read(instruction.addr, ctx)
            tpp.write_word(ea, alu(current, operand))
            return True

        raise TCPUFault(FaultCode.BAD_INSTRUCTION,
                        f"opcode {opcode!r} not implemented")

    def _write_switch(self, addr: int, value: int, ctx: ExecutionContext,
                      report: ExecutionReport) -> None:
        self.mmu.write(addr, value, ctx)
        report.switch_writes.append((addr, value))

    @staticmethod
    def _effective_address(tpp: TPPSection,
                           instruction: Instruction) -> int:
        """Byte address in packet memory of a ``word`` operand."""
        byte_offset = instruction.offset * tpp.word_size
        if tpp.mode == AddressingMode.HOP:
            return tpp.hop * tpp.perhop_len_bytes + byte_offset
        return byte_offset


def pipeline_cycles(n_instructions: int) -> int:
    """Cycles to run ``n`` instructions on the pipelined TCPU.

    Latency 4 cycles for the first instruction, then one instruction
    retires per cycle (§3.3).
    """
    if n_instructions <= 0:
        return 0
    return PIPELINE_LATENCY_CYCLES + (n_instructions - 1)


@dataclass(frozen=True)
class PipelineModel:
    """Analytical timing model reproducing the paper's §3.3 arithmetic."""

    clock_ghz: float = 1.0

    def cycles(self, n_instructions: int) -> int:
        """Pipelined cycle count for a program."""
        return pipeline_cycles(n_instructions)

    def execution_time_ns(self, n_instructions: int) -> float:
        """Wall time on the TCPU for a program."""
        return self.cycles(n_instructions) / self.clock_ghz

    @staticmethod
    def transmission_time_ns(packet_bytes: int, rate_gbps: float) -> float:
        """Serialization time of a packet at a line rate."""
        return packet_bytes * 8 / rate_gbps

    def fits_in_transmission_time(self, n_instructions: int,
                                  packet_bytes: int = 64,
                                  rate_gbps: float = 10.0) -> bool:
        """The paper's feasibility check: "execution takes less than a
        packet's transmission time" even for minimum-size packets."""
        return (self.execution_time_ns(n_instructions)
                <= self.transmission_time_ns(packet_bytes, rate_gbps))

    @staticmethod
    def line_rate_packets_per_second(n_ports: int = 64,
                                     rate_gbps: float = 10.0,
                                     packet_bytes: int = 64) -> float:
        """Aggregate packet rate a switch must sustain (§1 footnote 2:
        "a 64-port 10GbE switch has to process about a billion 64-byte
        packets/second").  Includes the 20 B inter-packet overhead
        (preamble + inter-frame gap) a real wire imposes."""
        wire_bytes = packet_bytes + 20
        per_port = rate_gbps * 1e9 / (wire_bytes * 8)
        return n_ports * per_port

    def cut_through_budget_cycles(self, latency_ns: float = 300.0) -> int:
        """Clock cycles inside a cut-through latency budget (§3.3: 300 ns
        at 1 GHz is 300 cycles)."""
        return math.floor(latency_ns * self.clock_ghz)
