"""Differential proof: trusting a certificate never changes execution.

Two-way equivalence for certified programs: a compiled TCPU holding the
verifier's certificate and the reference interpreter must produce
bit-identical observables — reports, packet memory, flags, hop/SP
counter, and the full wire encoding — including for sections whose
geometry or counter fall outside the certificate's guard, which fault
exactly like the interpreter.  Also covers the certificate lifecycle on
the TCPU (trust / distrust / layout sweeps / race gating).
"""

import random

from repro.asic.metadata import PacketMetadata
from repro.core.assembler import assemble
from repro.core.exceptions import FaultCode
from repro.core.memory_map import MemoryMap
from repro.core.mmu import MMU, ExecutionContext
from repro.core.tcpu import TCPU
from repro.core.verifier import verify_program

_MAP = MemoryMap.standard()


class FakeQueue:
    def __init__(self, occupancy=500):
        self.occupancy_bytes = occupancy


class FakePort:
    def __init__(self, index=0):
        self.index = index
        self.queue = FakeQueue()


def make_mmu(clock=123456):
    mmu = MMU(name="vdiff")
    mmu.bind_reader("Switch:SwitchID", lambda ctx: 7)
    mmu.bind_reader("Switch:ClockLo", lambda ctx: clock)
    mmu.bind_reader("Queue:QueueSize",
                    lambda ctx: ctx.queue.occupancy_bytes)
    return mmu


def make_ctx(task_id=0):
    return ExecutionContext(metadata=PacketMetadata(),
                            egress_port=FakePort(), time_ns=1000,
                            task_id=task_id)


def report_tuple(report):
    return (report.executed, report.skipped, report.fault,
            report.cexec_disabled_at, report.cycles,
            list(report.switch_writes))


def run_two_way(source, hops=1, task_id=0, max_instructions=5,
                prepare=None, damage=None, **assemble_kwargs):
    """Run compiled-under-certificate and interpreted; assert identical.

    Returns the trusted run's ``(reports, tpp, mmu, tcpu)``.
    """
    program = assemble(source, **assemble_kwargs)
    result = verify_program(program, memory_map=_MAP,
                            max_instructions=max_instructions)
    results = []
    for trusted in (True, False):
        mmu = make_mmu()
        if prepare is not None:
            prepare(mmu)
        tcpu = TCPU(mmu, max_instructions=max_instructions,
                    compile=trusted)
        if trusted and result.certificate is not None:
            tcpu.trust(result.certificate)
        tpp = program.build(task_id=task_id)
        if damage is not None:
            damage(tpp)
            tpp.invalidate_caches()
        reports = [tcpu.execute(tpp, make_ctx(task_id))
                   for _ in range(hops)]
        results.append((reports, tpp, mmu, tcpu))

    fast, ref = results
    for hop, (a, b) in enumerate(zip(fast[0], ref[0])):
        assert report_tuple(a) == report_tuple(b), f"hop {hop}"
    assert fast[1].flags == ref[1].flags
    assert fast[1].hop_or_sp == ref[1].hop_or_sp
    assert bytes(fast[1].memory) == bytes(ref[1].memory)
    assert fast[1].encode() == ref[1].encode()
    assert fast[2].sram_image() == ref[2].sram_image()
    return fast


class TestVerifiedEquivalence:
    def test_push_program(self):
        reports, _, _, tcpu = run_two_way(
            "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]", hops=1)
        assert tcpu.verified_executions == 1
        assert reports[0].executed == 2

    def test_pop_writeback(self):
        _, tpp, mmu, tcpu = run_two_way("""
            PUSH [Queue:QueueSize]
            POP [Sram:Word3]
        """)
        assert tcpu.verified_executions == 1
        assert mmu.peek_sram(3) == 500
        assert tpp.sp == 0

    def test_hop_relative_multihop(self):
        _, tpp, _, tcpu = run_two_way(
            ".mode hop\n.hops 3\n"
            "LOAD [Switch:SwitchID], [Packet:Hop[0]]", hops=3)
        assert tcpu.verified_executions == 3
        assert tpp.hop == 3

    def test_absolute_arithmetic(self):
        _, tpp, _, tcpu = run_two_way("""
            .data 0 41
            ADD [Packet:0], [Switch:SwitchID]
        """)
        assert tcpu.verified_executions == 1
        assert tpp.read_word(0) == 48

    def test_cstore(self):
        def prepare(mmu):
            mmu.poke_sram(0, 10)

        _, tpp, mmu, tcpu = run_two_way(
            "CSTORE [Sram:Word0], 10, 99", prepare=prepare)
        assert tcpu.verified_executions == 1
        assert mmu.peek_sram(0) == 99

    def test_cexec_uses_general_loop(self):
        reports, _, _, tcpu = run_two_way("""
            CEXEC [Switch:SwitchID], 0xFFFFFFFF, 8
            PUSH [Queue:QueueSize]
        """)
        assert tcpu.verified_executions == 1
        assert reports[0].cexec_disabled_at == 0
        assert reports[0].skipped == 1

    def test_word8(self):
        _, tpp, _, tcpu = run_two_way("""
            .word 8
            .data 0 1
            ADD [Packet:0], [Switch:ClockLo]
        """)
        assert tcpu.verified_executions == 1
        assert tpp.read_word(0) == 123457


class TestGuardFallback:
    """Sections outside the certificate's guard interval fault exactly
    like the interpreter even though the TCPU trusts their program —
    the same two-way equivalence, now on fault-producing inputs."""

    def test_hop_past_capacity_falls_back_and_faults(self):
        # Guard is [0, 0] (one word, one push/hop): hop 1 is outside it
        # and stamps STACK_OVERFLOW identically.
        reports, tpp, _, tcpu = run_two_way(
            ".hops 1\nPUSH [Switch:SwitchID]", hops=2)
        assert tcpu.verified_executions == 2  # trusted program, any hop
        assert reports[0].fault == FaultCode.NONE
        assert reports[1].fault == FaultCode.STACK_OVERFLOW
        assert tpp.fault == FaultCode.STACK_OVERFLOW

    def test_scrambled_counter_falls_back(self):
        def damage(tpp):
            tpp.hop_or_sp = 500

        reports, _, _, _ = run_two_way(
            "PUSH [Switch:SwitchID]", damage=damage)
        assert reports[0].fault == FaultCode.STACK_OVERFLOW

    def test_truncated_memory_falls_back(self):
        def damage(tpp):
            del tpp.memory[:]

        reports, _, _, _ = run_two_way(
            "PUSH [Switch:SwitchID]", damage=damage)
        assert reports[0].fault == FaultCode.STACK_OVERFLOW

    def test_runtime_fault_inside_verified_loop(self):
        """Statically clean, dynamically faulting: a trusted program
        still stamps MMU faults (unbound statistic) identically — the
        certificate covers the program, not this switch's bindings."""
        program = assemble("PUSH [Switch:SwitchID]")
        result = verify_program(program, memory_map=_MAP)
        assert result.ok
        runs = []
        for compile_flag in (True, False):
            mmu = MMU(name="unbound")  # SwitchID is *not* bound
            tcpu = TCPU(mmu, compile=compile_flag)
            if compile_flag:
                tcpu.trust(result.certificate)
            tpp = program.build()
            runs.append((tcpu.execute(tpp, make_ctx()), tpp, tcpu))
        (fast_report, fast_tpp, fast_tcpu), (ref_report, ref_tpp, _) = runs
        assert fast_tcpu.verified_executions == 1
        assert report_tuple(fast_report) == report_tuple(ref_report)
        assert fast_report.fault == FaultCode.BAD_ADDRESS
        assert fast_tpp.encode() == ref_tpp.encode()


class TestTrustManagement:
    """Certificate lifecycle on the TCPU."""

    def program_and_cert(self, source="PUSH [Switch:SwitchID]", **kwargs):
        program = assemble(source, **kwargs)
        return program, verify_program(
            program, memory_map=_MAP).certificate

    def test_trust_and_distrust(self):
        program, cert = self.program_and_cert()
        tcpu = TCPU(make_mmu())
        tcpu.trust(cert)
        assert tcpu.certificates == 1
        tpp = program.build()
        tcpu.execute(tpp, make_ctx())
        assert tcpu.verified_executions == 1
        tcpu.distrust(cert)
        assert tcpu.certificates == 0
        tpp = program.build()
        tcpu.execute(tpp, make_ctx())
        assert tcpu.verified_executions == 1  # unchanged

    def test_trust_is_idempotent(self):
        """Re-pushing the same certificate must not evict the warm
        compiled entry (admission policies push per arrival)."""
        program, cert = self.program_and_cert()
        tcpu = TCPU(make_mmu())
        tcpu.trust(cert)
        tpp = program.build()
        tcpu.execute(tpp, make_ctx())
        misses_after_first = tcpu.cache.misses
        for _ in range(5):
            tcpu.trust(cert)
            tpp = program.build()
            tcpu.execute(tpp, make_ctx())
        assert tcpu.verified_executions == 6
        assert tcpu.cache.misses == misses_after_first

    def test_certificate_survives_cache_eviction(self):
        program, cert = self.program_and_cert()
        tcpu = TCPU(make_mmu())
        tcpu.trust(cert)
        tpp = program.build()
        tcpu.execute(tpp, make_ctx())
        tcpu.cache.clear()
        tpp = program.build()
        tcpu.execute(tpp, make_ctx())
        assert tcpu.verified_executions == 2

    def test_switch_stats_expose_verified_counters(self):
        from repro import units
        from repro.net.routing import install_shortest_path_routes
        from repro.net.topology import TopologyBuilder

        builder = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC)
        net = builder.star(n_hosts=2)
        install_shortest_path_routes(net)
        switch = next(iter(net.switches.values()))
        stats = switch.fastpath_stats()
        assert stats["certificates"] == 0
        assert stats["verified_executions"] == 0


class TestRandomizedVerifiedSweep:
    """Seeded fuzz: every program that *passes* verification must run
    bit-identically to the interpreter on a TCPU that trusts it, across
    its whole hop budget."""

    TEMPLATES = [
        "PUSH [Switch:SwitchID]",
        "PUSH [Queue:QueueSize]",
        "PUSH [Switch:ClockLo]",
        "POP [Sram:Word{word}]",
        "LOAD [Switch:ClockLo], [Packet:{slot}]",
        "STORE [Sram:Word{word}], [Packet:{slot}]",
        "CSTORE [Sram:Word{word}], {imm}, {imm2}",
        "CEXEC [Switch:SwitchID], 0xFF, {imm}",
        "ADD [Packet:{slot}], [Switch:SwitchID]",
        "XOR [Packet:{slot}], [Switch:ClockLo]",
        "NOP",
    ]

    def test_random_verified_programs_agree(self):
        rng = random.Random(20260807)
        verified_runs = 0
        for _ in range(120):
            n = rng.randint(1, 5)
            lines = [f".mode {rng.choice(['stack', 'absolute'])}",
                     f".memory {rng.randint(0, 6)}"]
            for _ in range(n):
                template = rng.choice(self.TEMPLATES)
                lines.append(template.format(
                    word=rng.randint(0, 5),
                    slot=rng.randint(0, 7),
                    imm=rng.randint(0, 255),
                    imm2=rng.randint(0, 255),
                ))
            source = "\n".join(lines)
            hops = rng.randint(1, 3)
            program = assemble(source)
            if not verify_program(program, memory_map=_MAP,
                                  max_hops=hops).ok:
                continue
            _, _, _, tcpu = run_two_way(source, hops=hops)
            verified_runs += tcpu.verified_executions
        assert verified_runs > 50  # the sweep actually ran trusted programs


class TestCertificateStaleness:
    """MMU layout bumps must sweep the certificate table.

    A certificate pins address-resolution facts (TPP005) proven against
    the accessor bindings in force at verification time; a
    ``bind_reader`` re-binding silently changes those facts, so a batch
    plan built under the old certificate would replay stale reads.
    Regression for the pre-sweep behaviour where only the compiled
    cache was invalidated and ``_verified`` survived the bump.
    """

    def _trusted(self, source="PUSH [Switch:ClockLo]"):
        program = assemble(source)
        cert = verify_program(program, memory_map=_MAP).certificate
        mmu = make_mmu(clock=5)
        tcpu = TCPU(mmu)
        assert tcpu.trust(cert)
        return program, cert, mmu, tcpu

    def test_layout_bump_sweeps_certificate_table(self):
        program, cert, mmu, tcpu = self._trusted()
        tcpu.execute(program.build(), make_ctx())
        assert tcpu.verified_executions == 1
        mmu.bind_reader("Switch:ClockLo", lambda ctx: 42)
        assert tcpu.certificates == 0
        assert tcpu.certificates_swept == 1
        tcpu.execute(program.build(), make_ctx())
        assert tcpu.verified_executions == 1  # no stale trust

    def test_rebound_reader_value_observed_after_bump(self):
        """Executing after a re-bind must see the new binding — the
        stale-certificate TCPU and a fresh TCPU must agree bit for
        bit on the packet memory."""
        program, _, mmu, tcpu = self._trusted()
        tcpu.execute(program.build(), make_ctx())
        mmu.bind_reader("Switch:ClockLo", lambda ctx: 42)
        stale = program.build()
        tcpu.execute(stale, make_ctx())
        fresh = program.build()
        TCPU(mmu).execute(fresh, make_ctx())
        assert bytes(stale.memory) == bytes(fresh.memory)

    def test_retrust_after_bump_restores_verified_path(self):
        program, cert, mmu, tcpu = self._trusted()
        mmu.bind_reader("Switch:ClockLo", lambda ctx: 42)
        assert tcpu.certificates == 0
        assert tcpu.trust(cert)
        assert tcpu.certificates == 1
        tcpu.execute(program.build(), make_ctx())
        assert tcpu.verified_executions == 1

    def test_layout_bump_resets_race_fleet(self):
        writer_a = assemble(".memory 1\nSTORE [Sram:Word0], [Packet:0]")
        writer_b = assemble(".memory 2\nSTORE [Sram:Word0], [Packet:1]")
        mmu = make_mmu()
        tcpu = TCPU(mmu, race_mode="warn")
        for program in (writer_a, writer_b):
            cert = verify_program(program, memory_map=_MAP).certificate
            assert tcpu.trust(cert)
        assert len(tcpu.fleet) == 2
        assert any(d.code == "TPP020" for d in tcpu.race_conflicts)
        mmu.bind_reader("Switch:ClockLo", lambda ctx: 42)
        assert tcpu.certificates == 0  # triggers the sweep
        assert len(tcpu.fleet) == 0
        assert tcpu.certificates_swept == 2


class TestTrustRaceGating:
    """Fleet race policy at the ``TCPU.trust`` admission point."""

    def _certs(self):
        a = assemble(".memory 1\nSTORE [Sram:Word0], [Packet:0]")
        b = assemble(".memory 2\nSTORE [Sram:Word0], [Packet:1]")
        return (verify_program(a, memory_map=_MAP).certificate,
                verify_program(b, memory_map=_MAP).certificate)

    def test_invalid_race_mode_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            TCPU(make_mmu(), race_mode="paranoid")

    def test_warn_mode_trusts_and_records_conflicts(self):
        cert_a, cert_b = self._certs()
        tcpu = TCPU(make_mmu(), race_mode="warn")
        assert tcpu.trust(cert_a)
        assert tcpu.trust(cert_b)
        assert tcpu.certificates == 2
        assert tcpu.certificates_refused == 0
        assert [d.code for d in tcpu.race_conflicts] == ["TPP020"]

    def test_enforce_mode_refuses_racing_certificate(self):
        cert_a, cert_b = self._certs()
        tcpu = TCPU(make_mmu(), race_mode="enforce")
        assert tcpu.trust(cert_a)
        assert not tcpu.trust(cert_b)
        assert tcpu.certificates == 1
        assert tcpu.certificates_refused == 1
        assert len(tcpu.fleet) == 1
        # The incumbent keeps its slot and the word is freed on
        # distrust, after which the rival admits cleanly.
        tcpu.distrust(cert_a)
        assert tcpu.trust(cert_b)
        assert tcpu.certificates == 1

    def _template_certs(self):
        """An unfenced writer of Sram:Word0 plus two images of one
        fenced-writer template: aimed at switch 5 and at switch 3."""
        template = assemble(
            "CEXEC [Switch:SwitchID], 0xFFFFFFFF, $Target\n"
            "STORE [Sram:Word0], [Packet:0]\n", symbols={"Target": 5})
        writer = assemble(".memory 1\nSTORE [Sram:Word0], [Packet:0]\n")
        return tuple(
            verify_program(p, memory_map=_MAP, task_id=1).certificate
            for p in (writer, template, template.rebind({"Target": 3})))

    def test_rebound_image_is_its_own_fleet_member(self):
        writer, here, elsewhere = self._template_certs()
        assert here.program_key == elsewhere.program_key
        sid = _MAP.resolve("Switch:SwitchID")
        tcpu = TCPU(make_mmu(), race_mode="warn", fence_values={sid: 5})
        assert tcpu.trust(writer) and tcpu.trust(here)
        assert [d.code for d in tcpu.fleet.diagnostics()] == ["TPP020"]
        # The Target=5 packets are still in flight: trusting the image
        # aimed at switch 3 must not make their race disappear.
        assert tcpu.trust(elsewhere)
        assert [d.code for d in tcpu.fleet.diagnostics()] == ["TPP020"]
        assert len(tcpu.fleet) == 3
        assert tcpu.certificates == 2  # execution: one per program key
        assert tcpu.trust(here) and len(tcpu.fleet) == 3  # idempotent
        tcpu.distrust(elsewhere)       # retires exactly that image
        assert len(tcpu.fleet) == 2
        assert [d.code for d in tcpu.fleet.diagnostics()] == ["TPP020"]
        tcpu.distrust(here)
        assert tcpu.fleet.diagnostics() == []
        assert tcpu.certificates == 1

    def test_enforce_refuses_the_racy_image_only(self):
        writer, here, elsewhere = self._template_certs()
        sid = _MAP.resolve("Switch:SwitchID")
        tcpu = TCPU(make_mmu(), race_mode="enforce",
                    fence_values={sid: 5})
        assert tcpu.trust(writer)
        assert tcpu.trust(elsewhere)   # fenced off this switch
        assert not tcpu.trust(here)    # races the writer here
        assert tcpu.certificates_refused == 1
        assert len(tcpu.fleet) == 2
        assert tcpu.fleet.diagnostics() == []
        assert tcpu.certificates == 2

    def test_interleaved_images_keep_the_compiled_entry(self):
        """Nothing execution reads depends on the image, so alternating
        images of one template (one certificate each) must not
        recompile the program or re-record its race per arrival."""
        writer, here, elsewhere = self._template_certs()
        assert here is not elsewhere
        assert here.execution_facts == elsewhere.execution_facts
        sid = _MAP.resolve("Switch:SwitchID")
        tcpu = TCPU(make_mmu(), race_mode="warn", fence_values={sid: 5})
        assert tcpu.trust(writer)
        template = assemble(
            "CEXEC [Switch:SwitchID], 0xFFFFFFFF, $Target\n"
            "STORE [Sram:Word0], [Packet:0]\n", symbols={"Target": 5})
        for arrival in range(100):
            cert = (here, elsewhere)[arrival % 2]
            assert tcpu.trust(cert)
            tcpu.execute(template.build(task_id=1), make_ctx(1))
        assert (tcpu.cache.misses, tcpu.cache.hits) == (1, 99)
        assert tcpu.verified_executions == 100
        assert [d.code for d in tcpu.race_conflicts] == ["TPP020"]

    def test_distrust_keeps_the_program_while_an_image_remains(self):
        writer, here, elsewhere = self._template_certs()
        tcpu = TCPU(make_mmu(), race_mode="warn")
        assert tcpu.trust(here) and tcpu.trust(elsewhere)
        assert tcpu.certificates == 1
        tcpu.distrust(elsewhere)   # `here` is still trusted
        assert tcpu.certificates == 1 and len(tcpu.fleet) == 1
        tcpu.distrust(here)
        assert tcpu.certificates == 0 and len(tcpu.fleet) == 0
        # Re-trusting re-admits the image even though the certificate
        # object was the one execution held before.
        assert tcpu.trust(here) and here in tcpu.fleet
        import pytest
        with pytest.raises(TypeError):
            tcpu.distrust(here.program_key)
        # race_mode off tracks no images: distrust retires the program.
        off = TCPU(make_mmu(), race_mode="off")
        assert off.trust(here) and off.trust(elsewhere)
        off.distrust(elsewhere)
        assert off.certificates == 0

    def test_off_mode_skips_fleet_analysis(self):
        cert_a, cert_b = self._certs()
        tcpu = TCPU(make_mmu(), race_mode="off")
        assert tcpu.trust(cert_a)
        assert tcpu.trust(cert_b)
        assert tcpu.certificates == 2
        assert tcpu.race_conflicts == []
        assert len(tcpu.fleet) == 0
