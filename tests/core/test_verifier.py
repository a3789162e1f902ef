"""Static verifier: every diagnostic code, paired against runtime faults.

The core contract under test: for every statically-decidable fault the
differential suite can trigger at runtime, the verifier must flag the
program *before injection* with a stable ``TPP0xx`` code whose predicted
:class:`FaultCode` matches what execution actually stamps.
"""

import pytest

from repro.asic.metadata import PacketMetadata
from repro.core.assembler import assemble
from repro.core.exceptions import FaultCode
from repro.core.isa import Instruction, Opcode
from repro.core.memory_map import MemoryMap
from repro.core.mmu import MMU, ExecutionContext, SRAMRegion
from repro.core.tcpu import TCPU
from repro.core.tpp import AddressingMode
from repro.core.verifier import (
    DIAGNOSTIC_CODES,
    VerificationError,
    verify,
    verify_program,
    verify_section,
)

_MAP = MemoryMap.standard()


class FakeQueue:
    occupancy_bytes = 500


class FakePort:
    index = 0
    queue = FakeQueue()


def make_mmu():
    mmu = MMU(name="verif")
    mmu.bind_reader("Switch:SwitchID", lambda ctx: 7)
    mmu.bind_reader("Queue:QueueSize",
                    lambda ctx: ctx.queue.occupancy_bytes)
    return mmu


def make_ctx(task_id=0):
    return ExecutionContext(metadata=PacketMetadata(),
                            egress_port=FakePort(), time_ns=1000,
                            task_id=task_id)


def check(source, max_hops=None, max_instructions=5, task_id=0,
          sram_regions=None, **assemble_kwargs):
    program = assemble(source, **assemble_kwargs)
    return program.verify(memory_map=_MAP, max_hops=max_hops,
                          max_instructions=max_instructions,
                          task_id=task_id, sram_regions=sram_regions)


def codes(result):
    return [d.code for d in result.diagnostics]


def run_fault(source, hops=1, task_id=0, max_instructions=5,
              prepare=None):
    """Execute on a real (interpreter) TCPU; return the first fault."""
    program = assemble(source)
    mmu = make_mmu()
    if prepare is not None:
        prepare(mmu)
    tcpu = TCPU(mmu, max_instructions=max_instructions, compile=False)
    tpp = program.build(task_id=task_id)
    for _ in range(hops):
        report = tcpu.execute(tpp, make_ctx(task_id))
        if report.fault != FaultCode.NONE:
            return report.fault
    return FaultCode.NONE


class TestDiagnosticTable:
    def test_every_code_has_severity(self):
        for code, (severity, _) in DIAGNOSTIC_CODES.items():
            assert code.startswith("TPP")
            assert severity in ("error", "warning", "info")

    def test_error_codes_predict_faults(self):
        """Every error-severity code except TPP011 (a structural lint)
        maps to the runtime FaultCode it predicts."""
        for code, (severity, fault) in DIAGNOSTIC_CODES.items():
            if severity == "error" and code != "TPP011":
                assert fault is not None, code


class TestStaticVsRuntime:
    """Each statically-decidable fault: flagged pre-injection, and the
    predicted FaultCode equals what the interpreter stamps."""

    def pair(self, source, code, runtime_fault, max_hops=None, hops=1,
             max_instructions=5, prepare=None):
        result = check(source, max_hops=max_hops,
                       max_instructions=max_instructions)
        assert code in codes(result)
        diag = next(d for d in result.errors if d.code == code)
        assert diag.fault == runtime_fault
        assert runtime_fault in [d.fault for d in result.errors]
        assert run_fault(source, hops=hops, prepare=prepare,
                         max_instructions=max_instructions) == runtime_fault

    def test_tpp001_too_many_instructions(self):
        self.pair("\n".join(["NOP"] * 4), "TPP001",
                  FaultCode.TOO_MANY_INSTRUCTIONS, max_instructions=3)

    def test_tpp002_stack_overflow(self):
        # One word of stack, two hops: hop 1 has no room left.
        self.pair(".hops 1\nPUSH [Switch:SwitchID]", "TPP002",
                  FaultCode.STACK_OVERFLOW, max_hops=2, hops=2)

    def test_tpp003_stack_underflow(self):
        self.pair("POP [Sram:Word0]", "TPP003", FaultCode.STACK_UNDERFLOW)

    def test_tpp004_memory_bounds(self):
        self.pair(".mode absolute\n.memory 1\n"
                  "LOAD [Switch:SwitchID], [Packet:5]", "TPP004",
                  FaultCode.MEMORY_BOUNDS)

    def test_tpp005_unmapped_address(self):
        self.pair(".memory 1\nLOAD [0x0999], [Packet:0]", "TPP005",
                  FaultCode.BAD_ADDRESS)

    def test_tpp006_write_protected(self):
        self.pair("PUSH [Switch:SwitchID]\nPOP [Queue:QueueSize]",
                  "TPP006", FaultCode.WRITE_PROTECTED)

    def test_tpp007_sram_protection(self):
        source = "PUSH [Switch:SwitchID]\nPOP [Sram:Word0]"
        regions = [SRAMRegion(start_word=0, n_words=2, task_id=1)]
        result = check(source, task_id=2, sram_regions=regions)
        assert "TPP007" in codes(result)
        diag = next(d for d in result.errors if d.code == "TPP007")
        assert diag.fault == FaultCode.SRAM_PROTECTION

        def prepare(mmu):
            mmu.allocate_sram(0, 2, task_id=1)
            mmu.enforce_sram_protection = True

        assert run_fault(source, task_id=2,
                         prepare=prepare) == FaultCode.SRAM_PROTECTION

    def test_tpp007_own_region_is_clean(self):
        regions = [SRAMRegion(start_word=0, n_words=2, task_id=2)]
        result = check("PUSH [Switch:SwitchID]\nPOP [Sram:Word0]",
                       task_id=2, sram_regions=regions)
        assert "TPP007" not in codes(result)
        assert result.ok


class TestStackAnalysis:
    def test_clean_program_verifies(self):
        result = check("PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]",
                       max_hops=1, hops=1)
        assert result.ok
        assert result.certificate is not None

    def test_overflow_reports_offending_hop(self):
        result = check(".hops 1\nPUSH [Switch:SwitchID]", max_hops=3)
        diag = next(d for d in result.errors if d.code == "TPP002")
        assert diag.hop == 1

    def test_push_pop_balance_is_hop_safe(self):
        # Balanced per hop: never grows, so any hop count is fine.
        result = check("PUSH [Queue:QueueSize]\nPOP [Sram:Word0]",
                       max_hops=100, hops=1)
        assert not result.errors

    def test_cexec_partial_suffix_counted(self):
        """A CEXEC can kill the pushes after it, so the worst-case
        per-hop delta must consider the prefix endings too: a program
        whose *full* body is balanced can still underflow when only the
        prefix before the CEXEC runs."""
        source = """
            POP [Sram:Word0]
            CEXEC [Switch:SwitchID], 0xFFFFFFFF, 7
            PUSH [Queue:QueueSize]
        """
        result = check(source, max_hops=2, hops=2)
        assert "TPP003" in codes(result)

    def test_no_hop_budget_only_first_execution_errors(self):
        """Without a hop budget, only faults on the very first execution
        are errors; finite capacity is reported as info."""
        result = check(".hops 1\nPUSH [Switch:SwitchID]", max_hops=None,
                       hops=1)
        assert not result.errors
        budget = [d for d in result.diagnostics if d.code == "TPP009"]
        assert budget and "supports 1 hop" in budget[0].message


class TestHopModePrograms:
    def test_hop_relative_clean(self):
        result = check(".mode hop\n.hops 3\n"
                       "LOAD [Switch:SwitchID], [Packet:Hop[0]]",
                       max_hops=3)
        assert result.ok

    def test_hop_relative_overrun(self):
        # 3 hop slots but a 4-hop budget: the last hop runs off the end.
        result = check(".mode hop\n.hops 3\n"
                       "LOAD [Switch:SwitchID], [Packet:Hop[0]]",
                       max_hops=4)
        assert "TPP004" in codes(result)

    def test_tpp011_stack_ops_in_hop_mode(self):
        instructions = [Instruction(Opcode.PUSH, 0xB000, 0)]
        result = verify(instructions, mode=AddressingMode.HOP,
                        word_size=4, memory_len=8, perhop_len_bytes=4,
                        memory_map=_MAP)
        assert "TPP011" in [d.code for d in result.diagnostics]
        assert not result.ok

    def test_cstore_pair_read_is_absolute_even_in_hop_mode(self):
        # CSTORE's (offset, offset+1) pair is absolute: slot 1 needs
        # words 1 and 2, but only 2 words exist.
        instructions = [Instruction(Opcode.CSTORE, 0xD000, 1)]
        result = verify(instructions, mode=AddressingMode.HOP,
                        word_size=4, memory_len=8, perhop_len_bytes=4,
                        memory_map=_MAP)
        assert "TPP004" in [d.code for d in result.diagnostics]


class TestDeadCodeAnalysis:
    def test_tpp008_impossible_condition(self):
        # expected has bits outside mask: can never match.
        result = check("""
            CEXEC [Switch:SwitchID], 0x0F, 0xFF
            PUSH [Queue:QueueSize]
        """, max_hops=1, hops=1)
        dead = [d for d in result.diagnostics if d.code == "TPP008"]
        assert dead and dead[0].severity == "warning"
        assert result.ok  # lint only, never a rejection

    def test_tpp008_needs_following_instructions(self):
        result = check("CEXEC [Switch:SwitchID], 0x0F, 0xFF",
                       max_hops=1, hops=1)
        assert "TPP008" not in codes(result)

    def test_tpp010_constant_true(self):
        result = check("""
            CEXEC [Switch:SwitchID], 0, 0
            PUSH [Queue:QueueSize]
        """, max_hops=1, hops=1)
        assert "TPP010" in codes(result)

    def test_no_dead_code_claim_when_operands_written(self):
        """If the program itself writes the CEXEC's operand words, the
        initial-memory constant proof must not fire."""
        source = """
            .mode absolute
            LOAD [Switch:SwitchID], [Packet:0]
            CEXEC [Switch:SwitchID], 0x0F, 0xFF
            NOP
        """
        program = assemble(source)
        # The CEXEC mask/expected literals share the pool the LOAD
        # writes into only if offsets collide; build such a collision
        # directly to be explicit.
        result = verify_program(program, memory_map=_MAP)
        cexec = program.instructions[1]
        load = program.instructions[0]
        if load.offset == cexec.offset:  # operand overwritten
            assert "TPP008" not in codes(result)


class TestCertificate:
    def test_fields_pin_geometry(self):
        program = assemble("PUSH [Switch:SwitchID]", hops=2)
        result = verify_program(program, memory_map=_MAP)
        cert = result.certificate
        assert cert is not None
        tpp = program.build()
        assert cert.program_key == tpp.program_key
        assert cert.memory_len == len(tpp.memory)
        assert cert.perhop_len_bytes == tpp.perhop_len_bytes
        assert cert.n_instructions == 1
        assert not cert.has_cexec

    def test_guard_interval_stack(self):
        # 2 words of memory, 1 push/hop: only SP=0 or 4 can start safely.
        program = assemble("PUSH [Switch:SwitchID]", hops=2)
        cert = verify_program(program, memory_map=_MAP).certificate
        assert (cert.guard_lo, cert.guard_hi) == (0, 4)

    def test_guard_interval_hop_mode(self):
        program = assemble(".mode hop\n.hops 3\n"
                           "LOAD [Switch:SwitchID], [Packet:Hop[0]]")
        cert = verify_program(program, memory_map=_MAP).certificate
        assert (cert.guard_lo, cert.guard_hi) == (0, 2)

    def test_no_certificate_on_errors(self):
        result = check("POP [Sram:Word0]")
        assert result.certificate is None
        assert not result.ok

    def test_cexec_flagged_in_certificate(self):
        program = assemble("CEXEC [Switch:SwitchID], 0xFFFFFFFF, 7\n"
                           "PUSH [Queue:QueueSize]", hops=1)
        cert = verify_program(program, memory_map=_MAP).certificate
        assert cert is not None and cert.has_cexec


class TestResultAPI:
    def test_raise_on_error(self):
        result = check("POP [Sram:Word0]")
        with pytest.raises(VerificationError) as excinfo:
            result.raise_on_error()
        assert "TPP003" in str(excinfo.value)
        assert excinfo.value.result is result

    def test_format_includes_source_lines(self):
        result = check("NOP\nPOP [Sram:Word0]")
        text = result.format("probe.tpp")
        assert "probe.tpp:2: TPP003 error:" in text
        assert "rejected: 1 error(s)" in text

    def test_to_dict_roundtrips_to_json(self):
        import json
        result = check("PUSH [Switch:SwitchID]", max_hops=1, hops=1)
        blob = json.loads(json.dumps(result.to_dict()))
        assert blob["ok"] is True
        assert blob["certificate"]["n_instructions"] == 1

    def test_verify_defaults_to_standard_map(self):
        # The memory map is network-wide (Table 2), so address
        # resolution runs even when the caller passes no map.
        result = verify([Instruction(Opcode.POP, 0x0999, 0)],
                        memory_len=8)
        assert "TPP003" in [d.code for d in result.diagnostics]
        assert "TPP005" in [d.code for d in result.diagnostics]


class TestEntryPoints:
    def test_assemble_verify_true_raises_on_bad_program(self):
        program = assemble("POP [Sram:Word0]", memory_map=_MAP)
        with pytest.raises(VerificationError):
            program.verify(memory_map=_MAP).raise_on_error()

    def test_assemble_verify_true_passes_clean_program(self):
        program = assemble("PUSH [Switch:SwitchID]", memory_map=_MAP)
        program.verify(memory_map=_MAP).raise_on_error()
        assert program.n_instructions == 1

    def test_program_verify_memoizes_default_result(self):
        program = assemble("PUSH [Switch:SwitchID]")
        assert program.verify() is program.verify()

    def test_verify_section(self):
        program = assemble("PUSH [Switch:SwitchID]", hops=2)
        tpp = program.build()
        result = verify_section(tpp, memory_map=_MAP)
        assert result.ok
        assert result.certificate.program_key == tpp.program_key

    def test_verify_section_flags_corrupted_counter(self):
        program = assemble("PUSH [Switch:SwitchID]", hops=1)
        tpp = program.build()
        tpp.hop_or_sp = 999  # scrambled in flight
        result = verify_section(tpp, memory_map=_MAP)
        # Verification is static (program + geometry), so the section
        # still verifies — the *certificate guard* is what rejects the
        # counter at execution time.
        cert = result.certificate
        assert cert is not None
        assert not (cert.guard_lo <= tpp.hop_or_sp <= cert.guard_hi)
