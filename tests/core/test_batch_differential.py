"""Differential proof: batched execution ≡ reference interpreter.

Every case runs the same batch of same-program sections twice — once
through :meth:`TCPU.execute_batch` on a compiled TCPU and once
packet-at-a-time through a ``compile=False`` interpreter — against two
independent, identically-prepared MMUs, then asserts bit-identity of
reports, section state (flags, hop/SP, memory bytes, wire encoding) and
switch-side state (SRAM, link scratch).  Batch sizes 1, 2 and 32 are
swept so the degenerate, pair and full-burst shapes all stay honest.

Certified programs made solely of accumulate / claim updates of
scratch SRAM go through the vectorized numpy lane (asserted explicitly
below); everything else — reads, stack or hop addressing, other writes,
CEXEC, non-uniform batches — takes the packet-at-a-time safe lane, and
the differential assertions are the same either way.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asic.metadata import PacketMetadata
from repro.core.assembler import assemble
from repro.core.batch import HAVE_NUMPY, BatchArena
from repro.core.exceptions import FaultCode
from repro.core.memory_map import SRAM_WORDS, MemoryMap
from repro.core.mmu import MMU, ExecutionContext
from repro.core.tcpu import TCPU, pipeline_cycles
from repro.core.verifier import verify_program

SIZES = (1, 2, 32)


class FakeQueue:
    def __init__(self, occupancy=500):
        self.occupancy_bytes = occupancy


class FakePort:
    def __init__(self, index=0):
        self.index = index
        self.queue = FakeQueue()


def make_mmu(clock=123456):
    mmu = MMU(name="batchdiff")
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


def certificate_for(program, max_instructions):
    """A verifier certificate when the program earns one, else None."""
    try:
        result = verify_program(program, memory_map=MemoryMap.standard(),
                                max_instructions=max_instructions)
        return result.raise_on_error().certificate
    except Exception:
        return None


def run_batch_vs_interpreter(source, sizes=SIZES, hops=1, task_ids=None,
                             max_instructions=5, prepare=None, damage=None,
                             shared_ctx=False, rebind=None,
                             **assemble_kwargs):
    """Assert batched ≡ interpreter for every batch size; return the
    per-size ``(batched_side, reference_side)`` tuples, where each side
    is ``(reports_per_hop, sections, mmu, tcpu)``.

    ``damage(section, index)`` mangles individual sections before the
    first hop (mid-batch corruption); ``task_ids`` sets per-section task
    ids (SRAM protection domains); ``shared_ctx`` aliases one context
    across the whole batch (the switch's warm steady state);
    ``rebind(index)`` returns the ``$symbol`` values section ``index``
    is rebound to — same program key, its own memory image — while the
    trusted certificate stays the one verified on the template's image.
    """
    program = assemble(source, **assemble_kwargs)
    certificate = certificate_for(program, max_instructions)
    out = []
    for n in sizes:
        tasks = list(task_ids) if task_ids is not None else [0] * n
        assert len(tasks) == n, "task_ids must match the batch size"
        sides = []
        for batched in (True, False):
            mmu = make_mmu()
            if prepare is not None:
                prepare(mmu)
            tcpu = TCPU(mmu, max_instructions=max_instructions,
                        compile=batched)
            if certificate is not None:
                tcpu.trust(certificate)
            images = ([program] * n if rebind is None else
                      [program.rebind(rebind(i)) for i in range(n)])
            sections = [image.build(task_id=t)
                        for image, t in zip(images, tasks)]
            if damage is not None:
                for index, section in enumerate(sections):
                    damage(section, index)
                    section.invalidate_caches()
            reports_per_hop = []
            for _ in range(hops):
                if shared_ctx:
                    ctx = make_ctx(tasks[0])
                    ctxs = [ctx] * n
                else:
                    ctxs = [make_ctx(t) for t in tasks]
                if batched:
                    reports_per_hop.append(
                        tcpu.execute_batch(sections, ctxs))
                else:
                    reports_per_hop.append(
                        [tcpu.execute(s, c)
                         for s, c in zip(sections, ctxs)])
            sides.append((reports_per_hop, sections, mmu, tcpu))

        (b_reports, b_sections, b_mmu, _) = sides[0]
        (r_reports, r_sections, r_mmu, _) = sides[1]
        for hop in range(hops):
            for index, (fast, ref) in enumerate(zip(b_reports[hop],
                                                    r_reports[hop])):
                assert report_tuple(fast) == report_tuple(ref), \
                    f"size {n}, hop {hop}, packet {index}"
                assert fast.cycles == pipeline_cycles(fast.executed)
        for index, (fast, ref) in enumerate(zip(b_sections, r_sections)):
            assert fast.flags == ref.flags, f"size {n}, packet {index}"
            assert fast.hop_or_sp == ref.hop_or_sp
            assert bytes(fast.memory) == bytes(ref.memory)
            assert fast.encode() == ref.encode()
        sram = [b_mmu.peek_sram(i) for i in range(SRAM_WORDS)]
        assert sram == [r_mmu.peek_sram(i) for i in range(SRAM_WORDS)]
        assert ([b_mmu.peek_link_scratch(0, s) for s in range(4)]
                == [r_mmu.peek_link_scratch(0, s) for s in range(4)])
        out.append(tuple(sides))
    return out


class TestOpcodes:
    def test_nop(self):
        run_batch_vs_interpreter("NOP")

    def test_push(self):
        run_batch_vs_interpreter("PUSH [Switch:SwitchID]")

    def test_push_pop_roundtrip(self):
        results = run_batch_vs_interpreter("""
            PUSH [Queue:QueueSize]
            POP [Sram:Word3]
        """)
        (_, _, mmu, _), _ = results[-1]
        assert mmu.peek_sram(3) == 500

    def test_load_hop_relative_multihop(self):
        run_batch_vs_interpreter(
            ".mode hop\n.hops 3\n"
            "LOAD [Switch:SwitchID], [Packet:Hop[0]]", hops=3)

    def test_load_absolute(self):
        run_batch_vs_interpreter(".mode absolute\n.memory 2\n"
                                 "LOAD [Switch:ClockLo], [Packet:1]")

    def test_store(self):
        results = run_batch_vs_interpreter("""
            .data 0 0xCAFE
            STORE [Sram:Word2], [Packet:0]
        """)
        (_, _, mmu, _), _ = results[0]
        assert mmu.peek_sram(2) == 0xCAFE

    def test_cstore(self):
        def seed(mmu):
            mmu.poke_sram(0, 10)

        run_batch_vs_interpreter("CSTORE [Sram:Word0], 10, 99",
                                 prepare=seed)

    def test_cexec(self):
        run_batch_vs_interpreter("""
            CEXEC [Switch:SwitchID], 0xFFFFFFFF, 8
            PUSH [Queue:QueueSize]
        """)

    @pytest.mark.parametrize("op", ["ADD", "SUB", "AND", "OR", "XOR",
                                    "MIN", "MAX"])
    def test_arithmetic(self, op):
        run_batch_vs_interpreter(f"""
            .data 0 41
            {op} [Packet:{{0}}], [Switch:SwitchID]
        """.format(0))

    def test_arithmetic_wraps_identically(self):
        results = run_batch_vs_interpreter("""
            .data 0 3
            SUB [Packet:0], [Switch:SwitchID]
        """)
        (_, sections, _, _), _ = results[-1]
        assert sections[0].read_word(0) == (3 - 7) & 0xFFFFFFFF


def assert_safe_lane(results, reason="write_dataflow"):
    """Every batch of ``results`` ran packet-at-a-time, demoted once for
    ``reason`` (without numpy the only reason is ``no_numpy``)."""
    for sides in results:
        tcpu = sides[0][3]
        assert tcpu.vector_tpps == 0
        assert tcpu.batch_demotions == {
            reason if HAVE_NUMPY else "no_numpy": tcpu.batches_executed}


class TestLaneSelection:
    """The vector lane must engage for accumulate / claim updates only
    (``TestWriteLanes``) — and must not over-engage."""

    def test_certified_read_only_takes_the_safe_lane(self):
        # Stateless reads are not a lane: the compiled closures already
        # decode the program once.
        assert_safe_lane(run_batch_vs_interpreter("""
            PUSH [Switch:SwitchID]
            PUSH [Queue:QueueSize]
        """))

    def test_private_scatter_takes_the_safe_lane(self):
        # A store of per-packet data to a word the program never reads
        # back (last-writer-wins) is not an accumulate or a claim.
        assert_safe_lane(run_batch_vs_interpreter("""
            PUSH [Switch:SwitchID]
            POP [Sram:Word0]
        """))

    def test_non_additive_rmw_takes_the_safe_lane(self):
        # XOR is not an additive chain: the read-modify-write of Word0
        # has no vectorizable dataflow class, the batch demotes.
        results = run_batch_vs_interpreter("""
            .mode absolute
            .memory 1
            LOAD [Sram:Word0], [Packet:0]
            XOR [Packet:0], [Switch:SwitchID]
            STORE [Sram:Word0], [Packet:0]
        """)
        for (_, _, _, tcpu), _ in results:
            assert tcpu.vector_batches == 0
            if HAVE_NUMPY:
                assert tcpu.batch_demotions.get("write_dataflow", 0) >= 1

    def test_unstable_readers_take_the_safe_lane(self):
        # A reader whose value moves with every call (as
        # ``Switch:TPPsExecuted`` does) is read once per packet, in
        # arrival order.
        def counting_clock(mmu):
            ticks = iter(range(10 ** 6))
            mmu.bind_reader("Switch:ClockLo", lambda ctx: next(ticks))

        results = run_batch_vs_interpreter("""
            PUSH [Switch:ClockLo]
            PUSH [Switch:ClockLo]
        """, prepare=counting_clock)
        assert_safe_lane(results)
        (_, sections, _, _), _ = results[-1]
        assert [s.read_word(0) for s in sections] == list(range(0, 64, 2))

    def test_uncertified_program_takes_the_safe_lane(self):
        # An unmapped read can never earn a certificate; the batch must
        # still fault identically to the interpreter, packet by packet.
        results = run_batch_vs_interpreter(
            ".memory 1\nLOAD [0x0999], [Packet:0]")
        for (b_reports, _, _, tcpu), _ in results:
            assert tcpu.vector_batches == 0
            assert all(r.fault == FaultCode.BAD_ADDRESS
                       for r in b_reports[0])

    @pytest.mark.skipif(not HAVE_NUMPY, reason="vector lane needs numpy")
    def test_non_uniform_hop_counters_take_the_safe_lane(self):
        def advance_one(section, index):
            if index == 1:
                section.hop_or_sp += 4

        results = run_batch_vs_interpreter("PUSH [Switch:SwitchID]",
                                           sizes=(2,), damage=advance_one)
        (_, _, _, tcpu), _ = results[0]
        assert tcpu.vector_batches == 0

    def test_shared_context_batch_is_identical(self):
        assert_safe_lane(run_batch_vs_interpreter("""
            PUSH [Switch:SwitchID]
            PUSH [Queue:QueueSize]
        """, shared_ctx=True))


class TestFaults:
    def test_bad_address_read(self):
        run_batch_vs_interpreter(".memory 1\nLOAD [0x0999], [Packet:0]")

    def test_write_protected(self):
        results = run_batch_vs_interpreter("""
            PUSH [Switch:SwitchID]
            POP [Queue:QueueSize]
        """)
        assert results[0][0][0][0][0].fault == FaultCode.WRITE_PROTECTED

    def test_memory_bounds(self):
        run_batch_vs_interpreter(".mode absolute\n.memory 1\n"
                                 "LOAD [Switch:SwitchID], [Packet:5]")

    def test_stack_overflow_on_second_hop(self):
        results = run_batch_vs_interpreter(
            ".hops 1\nPUSH [Switch:SwitchID]", hops=2)
        (b_reports, _, _, _), _ = results[-1]
        assert all(r.fault == FaultCode.STACK_OVERFLOW
                   for r in b_reports[1])

    def test_stack_underflow(self):
        run_batch_vs_interpreter("POP [Sram:Word0]")

    def test_too_many_instructions(self):
        results = run_batch_vs_interpreter("\n".join(["NOP"] * 4),
                                           max_instructions=3)
        (b_reports, _, _, _), _ = results[-1]
        assert all(r.fault == FaultCode.TOO_MANY_INSTRUCTIONS
                   for r in b_reports[0])

    def test_sram_protection_mid_batch(self):
        """Mixed task ids: only the intruding packets fault."""
        def prepare(mmu):
            mmu.allocate_sram(0, 2, task_id=1)
            mmu.enforce_sram_protection = True

        results = run_batch_vs_interpreter("""
            PUSH [Switch:SwitchID]
            POP [Sram:Word0]
        """, sizes=(4,), task_ids=[1, 2, 1, 2], prepare=prepare)
        (b_reports, _, _, _), _ = results[0]
        faults = [r.fault for r in b_reports[0]]
        assert faults == [FaultCode.NONE, FaultCode.SRAM_PROTECTION,
                          FaultCode.NONE, FaultCode.SRAM_PROTECTION]

    def test_mid_batch_corrupted_section(self):
        """One truncated section inside an otherwise healthy batch."""
        def truncate_one(section, index):
            if index == 1:
                del section.memory[:]

        results = run_batch_vs_interpreter(
            ".mode hop\n.hops 2\n"
            "LOAD [Switch:SwitchID], [Packet:Hop[0]]",
            sizes=(3,), damage=truncate_one)
        (b_reports, _, _, _), _ = results[0]
        faults = [r.fault for r in b_reports[0]]
        assert faults == [FaultCode.NONE, FaultCode.MEMORY_BOUNDS,
                          FaultCode.NONE]

    def test_scrambled_hop_counter_mid_batch(self):
        def scramble_one(section, index):
            if index == 0:
                section.hop_or_sp ^= 1 << 9

        run_batch_vs_interpreter(
            ".mode hop\n.hops 2\n"
            "LOAD [Switch:SwitchID], [Packet:Hop[0]]",
            sizes=(2,), damage=scramble_one)


class TestMultiCEXEC:
    """First-occurrence ``cexec_disabled_at`` on every execution path."""

    PASS = "CEXEC [Switch:SwitchID], 0xFFFFFFFF, 7"
    FAIL = "CEXEC [Switch:SwitchID], 0xFFFFFFFF, 8"
    TAIL = "PUSH [Queue:QueueSize]"

    def _all_paths(self, source, max_instructions=5):
        """Reports from interpreter, checked fast path, and batch."""
        program = assemble(source)
        reports = {}
        for name, compile_flag in (("interp", False), ("fastpath", True)):
            tcpu = TCPU(make_mmu(), max_instructions=max_instructions,
                        compile=compile_flag)
            reports[name] = tcpu.execute(program.build(), make_ctx())
        tcpu = TCPU(make_mmu(), max_instructions=max_instructions,
                    compile=True, batch=True)
        reports["batch"] = tcpu.execute_batch(
            [program.build(), program.build()],
            [make_ctx(), make_ctx()])[0]
        return reports

    def test_pass_then_fail_records_second_index(self):
        source = "\n".join([self.PASS, self.FAIL, self.TAIL])
        for name, report in self._all_paths(source).items():
            assert report.cexec_disabled_at == 1, name
            assert report.executed == 2, name
            assert report.skipped == 1, name

    def test_fail_then_fail_records_first_index(self):
        source = "\n".join([self.FAIL, self.FAIL, self.TAIL])
        for name, report in self._all_paths(source).items():
            assert report.cexec_disabled_at == 0, name
            assert report.executed == 1, name
            assert report.skipped == 2, name

    def test_all_pass_records_none(self):
        source = "\n".join([self.PASS, self.PASS, self.TAIL])
        for name, report in self._all_paths(source).items():
            assert report.cexec_disabled_at is None, name
            assert report.skipped == 0, name

    def test_differential_multi_cexec(self):
        run_batch_vs_interpreter(
            "\n".join([self.PASS, self.FAIL, self.TAIL]))
        run_batch_vs_interpreter(
            "\n".join([self.FAIL, self.PASS, self.TAIL]))


class TestWideWords:
    def test_word8_push(self):
        run_batch_vs_interpreter(".word 8\nPUSH [Switch:ClockLo]")

    def test_word8_arithmetic(self):
        results = run_batch_vs_interpreter("""
            .word 8
            .data 0 1
            ADD [Packet:0], [Switch:ClockLo]
        """)
        (_, sections, _, _), _ = results[-1]
        assert sections[0].read_word(0) == 123457


class TestBatchMechanics:
    def test_length_mismatch_raises(self):
        tcpu = TCPU(make_mmu())
        with pytest.raises(ValueError):
            tcpu.execute_batch([], [make_ctx()])

    def test_empty_batch(self):
        assert TCPU(make_mmu()).execute_batch([], []) == []

    def test_mixed_program_keys_degrade_to_scalar(self):
        """A caller bug (mixed programs in one batch) must not corrupt
        anything: every section still executes its own program."""
        a = assemble("PUSH [Switch:SwitchID]").build()
        b = assemble("PUSH [Queue:QueueSize]").build()
        tcpu = TCPU(make_mmu())
        reports = tcpu.execute_batch([a, b], [make_ctx(), make_ctx()])
        assert [r.executed for r in reports] == [1, 1]
        assert a.read_word(0) == 7
        assert b.read_word(0) == 500

    def test_batch_opt_out(self):
        tcpu = TCPU(make_mmu(), batch=False)
        assert tcpu.batch_enabled is False
        program = assemble("PUSH [Switch:SwitchID]")
        sections = [program.build() for _ in range(3)]
        reports = tcpu.execute_batch(sections,
                                     [make_ctx() for _ in range(3)])
        # Degenerates to the scalar loop: no batch accounting at all.
        assert tcpu.batches_executed == 0
        assert [r.executed for r in reports] == [1, 1, 1]
        assert all(s.read_word(0) == 7 for s in sections)


@pytest.mark.skipif(not HAVE_NUMPY, reason="arena needs numpy")
class TestBatchArena:
    def test_adopt_aliases_rows(self):
        sections = [assemble(".memory 1\n.data 0 1\nNOP").build()
                    for _ in range(2)]
        arena = BatchArena(sections)
        arena.matrix[0, 0] = 0xAB
        assert sections[0].memory[0] == 0xAB
        sections[1].memory[0] = 0xCD
        assert arena.matrix[1, 0] == 0xCD

    def test_release_restores_bytearrays(self):
        sections = [assemble(".memory 1\n.data 0 7\nNOP").build()]
        before = bytes(sections[0].memory)
        arena = BatchArena(sections)
        arena.release()
        assert isinstance(sections[0].memory, bytearray)
        assert bytes(sections[0].memory) == before
        # A released section survives the corruption injector's resize.
        del sections[0].memory[:]

    def test_mismatched_lengths_rejected(self):
        a = assemble(".memory 1\nNOP").build()
        b = assemble(".memory 2\nNOP").build()
        with pytest.raises(ValueError):
            BatchArena([a, b])


class TestWriteLanes:
    """The SRAM write lane: batched ≡ interpreter with SRAM mutation in
    flight — accumulate and claim vectorized, every other write shape
    through the safe lane."""

    def test_accumulate_counter(self):
        # The canonical per-switch counter: every packet adds its own
        # delta to Word7 — sequential order reproduced by prefix-scan,
        # so every packet also *observes* a distinct intermediate value.
        def seed(mmu):
            mmu.poke_sram(7, 100)

        results = run_batch_vs_interpreter("""
            .mode absolute
            .memory 1
            .data 0 1
            ADD [Packet:0], [Sram:Word7]
            STORE [Sram:Word7], [Packet:0]
        """, prepare=seed)
        for n, ((_, sections, mmu, tcpu), _) in zip(SIZES, results):
            assert mmu.peek_sram(7) == 100 + n
            # Packet i saw the counter after i predecessors bumped it.
            assert [s.read_word(0) for s in sections] == \
                [100 + i + 1 for i in range(n)]
            if HAVE_NUMPY:
                assert tcpu.vector_batches == 1
                assert tcpu.vector_tpps == n

    def test_accumulate_load_chain(self):
        # LOAD w; ADD delta; STORE w — accumulation through a LOAD is
        # outside the lane's two shapes: safe lane, same result.
        def seed(mmu):
            mmu.poke_sram(2, 9)

        results = run_batch_vs_interpreter("""
            .mode absolute
            .memory 1
            LOAD [Sram:Word2], [Packet:0]
            ADD [Packet:0], [Switch:SwitchID]
            STORE [Sram:Word2], [Packet:0]
        """, prepare=seed)
        assert_safe_lane(results)
        for n, ((_, _, mmu, _), _) in zip(SIZES, results):
            assert mmu.peek_sram(2) == 9 + 7 * n

    def test_accumulate_wraps_identically(self):
        # Start the counter near the word boundary so the prefix scan
        # must wrap mod 2^32 exactly like the scalar packing does.
        def seed(mmu):
            mmu.poke_sram(1, 0xFFFFFFF0)

        run_batch_vs_interpreter("""
            .mode absolute
            .memory 1
            .data 0 3
            ADD [Packet:0], [Sram:Word1]
            STORE [Sram:Word1], [Packet:0]
        """, prepare=seed)

    def test_accumulate_oversized_control_plane_seed(self):
        # A control-plane poke can exceed the 32-bit word; the scalar
        # path masks at LOAD time and the kernel must agree.
        def seed(mmu):
            mmu.poke_sram(3, (1 << 40) | 5)

        run_batch_vs_interpreter("""
            .mode absolute
            .memory 1
            .data 0 2
            ADD [Packet:0], [Sram:Word3]
            STORE [Sram:Word3], [Packet:0]
        """, prepare=seed)

    def test_accumulate_stack_identity(self):
        # PUSH w; POP w is a delta-zero additive chain, but stack
        # addressed: safe lane.
        def seed(mmu):
            mmu.poke_sram(4, 77)

        results = run_batch_vs_interpreter("""
            PUSH [Sram:Word4]
            POP [Sram:Word4]
        """, prepare=seed)
        assert_safe_lane(results)
        (_, _, mmu, _), _ = results[-1]
        assert mmu.peek_sram(4) == 77

    def test_accumulate_hop_mode_multihop(self):
        def seed(mmu):
            mmu.poke_sram(5, 40)

        assert_safe_lane(run_batch_vs_interpreter("""
            .mode hop
            .hops 3
            .perhop 1
            LOAD [Sram:Word5], [Packet:Hop[0]]
            ADD [Packet:Hop[0]], [Switch:SwitchID]
            STORE [Sram:Word5], [Packet:Hop[0]]
        """, hops=3, prepare=seed))

    def test_accumulate_word8(self):
        def seed(mmu):
            mmu.poke_sram(6, 2 ** 40)

        run_batch_vs_interpreter("""
            .word 8
            .mode absolute
            .memory 1
            .data 0 1
            ADD [Packet:0], [Sram:Word6]
            STORE [Sram:Word6], [Packet:0]
        """, prepare=seed)

    def test_claim_first_match_wins(self):
        # Every packet offers its own id for an all-zero word: exactly
        # the first one in arrival order may win (paper §claim).
        def seed(mmu):
            mmu.poke_sram(0, 0)

        def stamp(section, index):
            section.write_word(0, 0)            # cond: expect unclaimed
            section.write_word(4, 1000 + index)  # src: my claim


        results = run_batch_vs_interpreter("""
            .mode absolute
            .memory 2
            CSTORE [Sram:Word0], [Packet:0], [Packet:1]
        """, prepare=seed, damage=stamp)
        for n, ((b_reports, _, mmu, tcpu), _) in zip(SIZES, results):
            assert mmu.peek_sram(0) == 1000
            wins = [r.switch_writes for r in b_reports[0]]
            assert wins[0] == [(mmu.memory_map.resolve("Sram:Word0"),
                                1000)]
            assert all(w == [] for w in wins[1:])
            if HAVE_NUMPY:
                assert tcpu.vector_batches == 1

    def test_claim_chained_wins(self):
        # Packet i expects value i and claims i+1: sequential chaining
        # means *every* packet wins — the exact-integer replay must not
        # stop at the first match.
        def stamp(section, index):
            section.write_word(0, index)
            section.write_word(4, index + 1)

        results = run_batch_vs_interpreter("""
            .mode absolute
            .memory 2
            CSTORE [Sram:Word0], [Packet:0], [Packet:1]
        """, damage=stamp)
        for n, ((b_reports, _, mmu, _), _) in zip(SIZES, results):
            assert mmu.peek_sram(0) == n
            assert all(len(r.switch_writes) == 1 for r in b_reports[0])

    def test_claim_unclaimed_leaves_oversized_seed_intact(self):
        # No packet matches: the scalar path never writes the word, so
        # an oversized control-plane seed must survive bit-exactly.
        def seed(mmu):
            mmu.poke_sram(0, (1 << 50) | 3)

        def stamp(section, index):
            section.write_word(0, 1)
            section.write_word(4, 9)

        results = run_batch_vs_interpreter("""
            .mode absolute
            .memory 2
            CSTORE [Sram:Word0], [Packet:0], [Packet:1]
        """, prepare=seed, damage=stamp)
        (_, _, mmu, _), _ = results[-1]
        assert mmu.peek_sram(0) == (1 << 50) | 3

    def test_private_scatter_last_writer_wins(self):
        def stamp(section, index):
            section.write_word(0, 500 + index)

        results = run_batch_vs_interpreter("""
            .mode absolute
            .memory 1
            STORE [Sram:Word9], [Packet:0]
        """, damage=stamp)
        assert_safe_lane(results)
        for n, ((_, _, mmu, _), _) in zip(SIZES, results):
            assert mmu.peek_sram(9) == 500 + n - 1

    def test_two_independent_accumulators(self):
        def seed(mmu):
            mmu.poke_sram(0, 10)
            mmu.poke_sram(1, 20)

        results = run_batch_vs_interpreter("""
            .mode absolute
            .memory 2
            .data 0 1
            .data 1 2
            ADD [Packet:0], [Sram:Word0]
            STORE [Sram:Word0], [Packet:0]
            ADD [Packet:1], [Sram:Word1]
            STORE [Sram:Word1], [Packet:1]
        """, prepare=seed)
        for n, ((_, _, mmu, _), _) in zip(SIZES, results):
            assert mmu.peek_sram(0) == 10 + n
            assert mmu.peek_sram(1) == 20 + 2 * n

    def test_accumulate_under_sram_protection(self):
        # Uniform owner task: the write lane's protection precheck
        # passes and the vectorized result must still be identical.
        def prepare(mmu):
            mmu.allocate_sram(0, 2, task_id=3)
            mmu.enforce_sram_protection = True
            mmu.poke_sram(1, 6)

        results = run_batch_vs_interpreter("""
            .mode absolute
            .memory 1
            .data 0 1
            ADD [Packet:0], [Sram:Word1]
            STORE [Sram:Word1], [Packet:0]
        """, sizes=(4,), task_ids=[3, 3, 3, 3], prepare=prepare)
        (_, _, mmu, tcpu), _ = results[0]
        assert mmu.peek_sram(1) == 10
        if HAVE_NUMPY:
            assert tcpu.vector_batches == 1

    def test_foreign_task_write_demotes_and_faults(self):
        # Uniform *intruder* task: precheck demotes to the safe lane,
        # which reproduces the per-packet protection faults.
        def prepare(mmu):
            mmu.allocate_sram(0, 2, task_id=3)
            mmu.enforce_sram_protection = True

        results = run_batch_vs_interpreter("""
            .mode absolute
            .memory 1
            .data 0 1
            ADD [Packet:0], [Sram:Word0]
            STORE [Sram:Word0], [Packet:0]
        """, sizes=(4,), task_ids=[5, 5, 5, 5], prepare=prepare)
        (b_reports, _, _, _), _ = results[0]
        assert all(r.fault == FaultCode.SRAM_PROTECTION
                   for r in b_reports[0])
        assert_safe_lane(results, "sram_protection")


class TestRawOperandArithmetic:
    """The interpreter applies MIN/MAX to the *raw* operand and masks
    afterwards; no batch lane may pre-mask."""

    def _rebind(self, value):
        def prepare(mmu):
            mmu.bind_reader("Switch:ClockLo", lambda ctx: value)
        return prepare

    @pytest.mark.parametrize("op", ["MIN", "MAX", "ADD", "SUB", "AND",
                                    "OR", "XOR"])
    @pytest.mark.parametrize("raw", [-3, 2 ** 40, (1 << 32) + 6])
    def test_out_of_range_operand(self, op, raw):
        run_batch_vs_interpreter(f"""
            .data 0 41
            {op} [Packet:0], [Switch:ClockLo]
        """, prepare=self._rebind(raw), shared_ctx=True)

    @pytest.mark.parametrize("raw", [-1, 2 ** 33])
    def test_out_of_range_operand_distinct_ctxs(self, raw):
        run_batch_vs_interpreter("""
            .data 0 41
            MIN [Packet:0], [Switch:ClockLo]
            MAX [Packet:0], [Switch:ClockLo]
        """, prepare=self._rebind(raw), shared_ctx=False)


class TestRandomizedSweep:
    """Seeded fuzz across batch sizes: batched ≡ interpreter, always."""

    TEMPLATES = [
        "PUSH [Switch:SwitchID]",
        "PUSH [Queue:QueueSize]",
        "PUSH [Switch:ClockLo]",
        "POP [Sram:Word{word}]",
        "POP [Queue:QueueSize]",
        "LOAD [Switch:ClockLo], [Packet:{slot}]",
        "LOAD [0x0999], [Packet:{slot}]",
        "STORE [Sram:Word{word}], [Packet:{slot}]",
        "CSTORE [Sram:Word{word}], {imm}, {imm2}",
        "CEXEC [Switch:SwitchID], 0xFF, {imm}",
        "ADD [Packet:{slot}], [Switch:SwitchID]",
        "SUB [Packet:{slot}], [Queue:QueueSize]",
        "XOR [Packet:{slot}], [Switch:ClockLo]",
        "MIN [Packet:{slot}], [Switch:SwitchID]",
        "NOP",
    ]

    def test_random_programs_agree(self):
        rng = random.Random(20260808)
        for _ in range(60):
            n = rng.randint(1, 5)
            memory_words = rng.randint(0, 6)
            lines = [f".mode {rng.choice(['stack', 'absolute'])}",
                     f".memory {memory_words}"]
            for _ in range(n):
                template = rng.choice(self.TEMPLATES)
                lines.append(template.format(
                    word=rng.randint(0, 5),
                    slot=rng.randint(0, 7),
                    imm=rng.randint(0, 255),
                    imm2=rng.randint(0, 255),
                ))
            run_batch_vs_interpreter("\n".join(lines),
                                     sizes=(1, 2, 32),
                                     hops=rng.randint(1, 2))

    def test_random_write_programs_agree(self):
        """Write-biased fuzz: every program bears at least one SRAM
        write, sweeping the accumulate and claim classes plus the mixed
        demotions, with seeded SRAM contents and per-packet data."""
        rng = random.Random(0xACC)
        write_templates = [
            "STORE [Sram:Word{word}], [Packet:{slot}]",
            "CSTORE [Sram:Word{word}], [Packet:{slot}], [Packet:{slot1}]",
            "ADD [Packet:{slot}], [Sram:Word{word}]",
            "LOAD [Sram:Word{word}], [Packet:{slot}]",
            "ADD [Packet:{slot}], [Switch:SwitchID]",
            "SUB [Packet:{slot}], [Sram:Word{word}]",
            "XOR [Packet:{slot}], [Sram:Word{word}]",
            "LOAD [Switch:ClockLo], [Packet:{slot}]",
            "STORE [Sram:Word{word2}], [Packet:{slot}]",
            "MIN [Packet:{slot}], [Queue:QueueSize]",
        ]
        for round_index in range(110):
            memory_words = rng.randint(2, 6)
            lines = [".mode absolute", f".memory {memory_words}"]
            for w in range(memory_words):
                if rng.random() < 0.5:
                    lines.append(f".data {w} {rng.randint(0, 9)}")
            n = rng.randint(1, 4)
            has_write = False
            for _ in range(n):
                template = rng.choice(write_templates)
                has_write |= template.startswith(("STORE", "CSTORE"))
                # CSTORE's cond/src packet operands must be consecutive.
                slot = rng.randint(0, memory_words - 2)
                lines.append(template.format(
                    word=rng.randint(0, 3),
                    word2=rng.randint(0, 3),
                    slot=slot,
                    slot1=slot + 1,
                ))
            if not has_write:
                lines.append(
                    f"STORE [Sram:Word{rng.randint(0, 3)}], [Packet:0]")
            # Pre-drawn so both differential sides see identical state
            # (prepare/damage run once per side).
            sram_seed = [rng.randint(0, 2 ** 33) for _ in range(4)]
            base = rng.randint(0, 2 ** 32)

            def seed(mmu, values=sram_seed):
                for w, value in enumerate(values):
                    mmu.poke_sram(w, value)

            def scatter(section, index, base=base):
                for w in range(len(section.memory) // 4):
                    if (base >> w) & 1:
                        section.write_word(
                            w * 4, (base + index * 1009 + w * 131)
                            & 0xFFFFFFFF)

            run_batch_vs_interpreter(
                "\n".join(lines), sizes=(1, 2, 32),
                prepare=seed, damage=scatter,
                shared_ctx=bool(round_index % 2))

    def test_random_write_lane_programs_agree(self):
        """Fuzz inside the vector lane's own vocabulary: accumulate
        chains (several per word, so later ADDs read the running
        delta) and claims on absolute slots, NOPs between them; a third
        of the draws then get one line duplicated, dropped or retargeted
        — the lane's mixed demotions (doubled adds, independent or
        cross-word stores, a claim beside a write)."""
        rng = random.Random(0x16)
        vectorized = 0
        rounds = 120
        for round_index in range(rounds):
            body = []
            for slot in rng.sample(range(4), rng.randint(1, 4)):
                word = rng.randint(0, 1)
                if slot < 3 and rng.random() < 0.3:
                    body.append(f"CSTORE [Sram:Word2], [Packet:{slot}], "
                                f"[Packet:{slot + 1}]")
                    continue
                body += [f"ADD [Packet:{slot}], [Sram:Word{word}]",
                         f"STORE [Sram:Word{word}], [Packet:{slot}]"]
                if rng.random() < 0.2:
                    body.append("NOP")
            if rng.random() < 0.33:
                at = rng.randrange(len(body))
                mutation = rng.choice(("double", "drop", "retarget"))
                if mutation == "double":
                    body.insert(at, body[at])
                elif mutation == "drop":
                    del body[at]
                else:
                    body[at] = body[at].replace(
                        "Word0", "Word1").replace("Word2", "Word0")
            body = body[:5] or ["NOP"]
            lines = [f".mode {rng.choice(['stack', 'absolute'])}",
                     ".memory 4"]
            lines += [f".data {w} {rng.randint(0, 9)}" for w in range(4)]
            sram_seed = [rng.randint(0, 2 ** 33) for _ in range(3)]
            base = rng.randint(0, 2 ** 32)

            def seed(mmu, values=sram_seed):
                for w, value in enumerate(values):
                    mmu.poke_sram(w, value)

            def scatter(section, index, base=base):
                for w in range(4):
                    if (base >> w) & 1:
                        section.write_word(
                            w * 4, (base + index * 1009 + w * 131)
                            & 0xFFFFFFFF)

            results = run_batch_vs_interpreter(
                "\n".join(lines + body), sizes=(1, 2, 32), prepare=seed,
                damage=scatter, shared_ctx=bool(round_index % 2))
            vectorized += all(sides[0][3].vector_batches == 1
                              for sides in results)
        if HAVE_NUMPY:
            assert rounds // 2 <= vectorized < rounds

    def test_random_write_stack_programs_agree(self):
        rng = random.Random(0x5Ac)
        stack_templates = [
            "PUSH [Sram:Word{word}]",
            "PUSH [Switch:SwitchID]",
            "PUSH [Queue:QueueSize]",
            "POP [Sram:Word{word}]",
            "POP [Sram:Word{word2}]",
        ]
        for _ in range(60):
            lines = []
            for _ in range(rng.randint(1, 4)):
                lines.append(rng.choice(stack_templates).format(
                    word=rng.randint(0, 2), word2=rng.randint(0, 2)))
            lines.append(f"POP [Sram:Word{rng.randint(0, 2)}]"
                         if not any("POP" in li for li in lines) else "NOP")
            sram_seed = [rng.randint(0, 255) for _ in range(3)]

            def seed(mmu, values=sram_seed):
                for w, value in enumerate(values):
                    mmu.poke_sram(w, value)

            run_batch_vs_interpreter("\n".join(lines), sizes=(1, 2, 32),
                                     prepare=seed)

    def test_random_hop_write_programs_agree(self):
        rng = random.Random(0xA0)
        hop_templates = [
            "LOAD [Sram:Word{word}], [Packet:Hop[{slot}]]",
            "ADD [Packet:Hop[{slot}]], [Sram:Word{word}]",
            "ADD [Packet:Hop[{slot}]], [Switch:SwitchID]",
            "STORE [Sram:Word{word}], [Packet:Hop[{slot}]]",
            "STORE [Sram:Word{word2}], [Packet:Hop[{slot}]]",
        ]
        for _ in range(40):
            hops = rng.randint(1, 3)
            perhop = rng.randint(1, 3)
            lines = [".mode hop", f".hops {hops}", f".perhop {perhop}"]
            for _ in range(rng.randint(1, 4)):
                lines.append(rng.choice(hop_templates).format(
                    slot=rng.randint(0, perhop - 1),
                    word=rng.randint(0, 2), word2=rng.randint(0, 2)))
            sram_seed = [rng.randint(0, 2 ** 20) for _ in range(3)]

            def seed(mmu, values=sram_seed):
                for w, value in enumerate(values):
                    mmu.poke_sram(w, value)

            run_batch_vs_interpreter("\n".join(lines), sizes=(1, 2, 32),
                                     prepare=seed, hops=hops + 1)

    def test_random_hop_programs_agree(self):
        rng = random.Random(78)
        hop_templates = [
            "LOAD [Switch:ClockLo], [Packet:Hop[{slot}]]",
            "LOAD [Queue:QueueSize], [Packet:Hop[{slot}]]",
            "ADD [Packet:Hop[{slot}]], [Switch:SwitchID]",
            "STORE [Sram:Word{word}], [Packet:Hop[{slot}]]",
        ]
        for _ in range(30):
            hops = rng.randint(1, 4)
            perhop = rng.randint(1, 3)
            lines = [".mode hop", f".hops {hops}", f".perhop {perhop}"]
            for _ in range(rng.randint(1, 3)):
                lines.append(rng.choice(hop_templates).format(
                    slot=rng.randint(0, perhop), word=rng.randint(0, 3)))
            run_batch_vs_interpreter("\n".join(lines), sizes=(1, 2, 32),
                                     hops=hops + 1)


class TestSketchDifferential:
    """Generated sketch update programs through the differential rig:
    accumulate columns vectorize, CSTORE claims vectorize, MAX-RMW
    register updates demote — and every lane stays bit-identical to
    the interpreter at sizes 1/2/32."""

    def _hh_layout(self):
        from repro.telemetry import HeavyHitterLayout
        return HeavyHitterLayout(base_word=0, width=8, depth=2,
                                 n_slots=2)

    def test_count_min_update_rides_the_write_lane(self):
        from repro.telemetry import build_count_min_update
        layout = self._hh_layout().countmin
        update = build_count_min_update(layout, key=42, delta=3)
        results = run_batch_vs_interpreter(update.source)
        for n, ((_, _, mmu, tcpu), _) in zip(SIZES, results):
            # n packets, delta 3, one cell per row: pure accumulate.
            assert [mmu.peek_sram(w) for w in update.words] == \
                [3 * n] * layout.depth
            if HAVE_NUMPY:
                assert tcpu.vector_batches == 1
                assert tcpu.batch_demotions == {}

    def test_heavy_hitter_update_accumulate_plus_claim(self):
        from repro.telemetry import build_heavy_hitter_update
        layout = self._hh_layout()
        update = build_heavy_hitter_update(layout, key=42)
        results = run_batch_vs_interpreter(update.source)
        slot = layout.slot_word(42)
        for n, ((_, _, mmu, tcpu), _) in zip(SIZES, results):
            for word in update.words[:-1]:
                assert mmu.peek_sram(word) == n
            # First packet claims the slot; the rest find key 42 there
            # (CSTORE only writes on match) and leave it intact.
            assert mmu.peek_sram(slot) == 42
            if HAVE_NUMPY:
                assert tcpu.vector_batches == 1
                assert tcpu.batch_demotions == {}

    def test_claimed_slot_survives_rival_batch(self):
        # A batch of updates for a *different* key that hashes to the
        # same slot must not displace the incumbent claim.
        from repro.telemetry import build_heavy_hitter_update
        layout = self._hh_layout()
        rival = next(k for k in range(43, 512)
                     if layout.slot_word(k) == layout.slot_word(42))
        update = build_heavy_hitter_update(layout, key=rival)

        def seed(mmu):
            mmu.poke_sram(layout.slot_word(42), 42)

        results = run_batch_vs_interpreter(update.source, prepare=seed)
        for (_, _, mmu, _), _ in results:
            assert mmu.peek_sram(layout.slot_word(42)) == 42

    def test_distinct_update_demotes_to_safe_lane(self):
        from repro.telemetry import (DistinctCountLayout,
                                     build_distinct_update)
        layout = DistinctCountLayout(base_word=32, m=8)
        update = build_distinct_update(layout, key=5)
        _, rank = layout.bucket_and_rank(5)
        results = run_batch_vs_interpreter(update.source)
        for n, ((_, _, mmu, tcpu), _) in zip(SIZES, results):
            # Idempotent MAX: any number of packets leaves the rank.
            assert mmu.peek_sram(update.words[0]) == rank
            if HAVE_NUMPY:
                assert tcpu.vector_batches == 0
                assert tcpu.batch_demotions.get("write_dataflow", 0) >= 1

    def test_mixed_key_sketch_batch_degrades_to_scalar(self):
        # Different keys are different programs (the hash is baked into
        # the bytes): a mixed batch is the caller-bug path and must
        # still produce each key's own update.
        from repro.telemetry import build_count_min_update
        layout = self._hh_layout().countmin
        a = build_count_min_update(layout, key=42)
        b = build_count_min_update(layout, key=43)
        assert a.certificate.program_key != b.certificate.program_key
        tcpu = TCPU(make_mmu())
        reports = tcpu.execute_batch([a.build(), b.build()],
                                     [make_ctx(), make_ctx()])
        assert all(r.ok for r in reports)
        for update in (a, b):
            for word in update.words:
                expect = 2 if word in set(a.words) & set(b.words) else 1
                assert tcpu.mmu.peek_sram(word) == expect

    def test_mixed_task_ids_demote_before_kernel(self):
        """Mixed task ids on a write-lane batch have per-packet SRAM
        protection domains: the batch demotes before the kernel, counted
        as ``non_uniform``."""
        from repro.telemetry import build_count_min_update
        from repro.telemetry.layout import CountMinLayout
        layout = CountMinLayout(base_word=0, width=8, depth=2)
        update = build_count_min_update(layout, key=42)
        program = assemble(update.source)
        certificate = certificate_for(program, 5)
        task_ids = [1, 1, 2, 1]
        tcpu = TCPU(make_mmu(), compile=True, batch=True)
        tcpu.trust(certificate)
        sections = [program.build(task_id=t) for t in task_ids]
        reports = tcpu.execute_batch(sections,
                                     [make_ctx(t) for t in task_ids])
        assert all(r.ok for r in reports)
        if HAVE_NUMPY:
            assert tcpu.batch_demotions == {"non_uniform": 1}
        for word in update.words:
            assert tcpu.mmu.peek_sram(word) == 4


class TestDeadFenceVector:
    """Relationally-dead CEXEC suffixes: reports, packet memory and
    switch state must stay bit-identical to the interpreter whichever
    lane the batch takes (since PR 14: the safe lane, reason
    ``cexec``)."""

    DEAD_FENCE = (".memory 2\n"
                  "LOAD [Switch:ClockLo], [Packet:0]\n"
                  "CEXEC [Switch:SwitchID], 0x0F, 0xF0\n"
                  "STORE [Sram:Word0], [Packet:0]")

    def test_dead_fence_agrees(self):
        run_batch_vs_interpreter(self.DEAD_FENCE, max_instructions=8)

    def test_dead_fence_agrees_shared_ctx(self):
        run_batch_vs_interpreter(self.DEAD_FENCE, max_instructions=8,
                                 shared_ctx=True)

    def test_dead_fence_on_sram_fence_register(self):
        # The fence register itself lives in SRAM: the per-packet
        # disabling read is task-dependent.
        source = (".memory 2\n"
                  "LOAD [Switch:ClockLo], [Packet:0]\n"
                  "CEXEC [Sram:Word7], 0x0F, 0xF0\n"
                  "STORE [Sram:Word0], [Packet:0]")
        run_batch_vs_interpreter(source, max_instructions=8)

    def test_dead_fence_multihop(self):
        run_batch_vs_interpreter(self.DEAD_FENCE, max_instructions=8,
                                 hops=3)


class TestTemplateImages:
    """One template, many memory images (``rebind``): every section of
    a batch shares the program key and the certificate, but what a
    CEXEC or CSTORE does depends on the words *that* section carries.
    The certificate was proved on one image; the batch guard checks
    geometry and the hop/SP counter, never memory contents — so no
    lane may act on a fact the certificate's image made true."""

    FENCED = ("LOAD [Switch:SwitchID], [Packet:0]\n"
              "CEXEC [Switch:SwitchID], $Mask, $Want\n"
              "STORE [Sram:Word0], [Packet:0]\n")
    DEAD = {"Mask": 0x0F, "Want": 0x100}   # TPP008/TPP012 on this image
    LIVE = {"Mask": 0xFF, "Want": 7}       # passes on SwitchID 7

    def test_certificate_from_dead_image_live_sections(self):
        results = run_batch_vs_interpreter(
            self.FENCED, symbols=self.DEAD, rebind=lambda i: self.LIVE)
        for (reports, sections, mmu, tcpu), _ in results:
            assert mmu.peek_sram(0) == 7  # the live STORE ran
            for report in reports[0]:
                assert (report.executed, report.skipped) == (3, 0)
                assert report.cexec_disabled_at is None
            assert tcpu.vector_tpps == 0
            if HAVE_NUMPY:
                assert tcpu.batch_demotions == {"cexec": 1}

    def test_mixed_images_in_one_batch(self):
        results = run_batch_vs_interpreter(
            self.FENCED, symbols=self.LIVE,
            rebind=lambda i: self.DEAD if i % 2 else self.LIVE)
        (reports, _, mmu, _), _ = results[-1]
        assert [r.cexec_disabled_at for r in reports[0][:2]] == [None, 1]
        assert mmu.peek_sram(0) == 7

    CLAIM = "CSTORE [Sram:Word0], $Cond, $Src\nPUSH [Sram:Word0]\n"

    def test_claim_template_images(self):
        # Vector claim lane: cond/src come from each section's own row.
        run_batch_vs_interpreter(
            self.CLAIM, symbols={"Cond": 0, "Src": 1},
            rebind=lambda i: {"Cond": i % 3, "Src": i + 1})

    _WORDS = st.one_of(st.sampled_from([0, 1, 7, 0x0F, 0xFF, 0x100,
                                        0xFFFFFFFF]),
                       st.integers(0, 0xFFFFFFFF))

    @settings(max_examples=40, deadline=None)
    @given(template=st.sampled_from([(FENCED, ("Mask", "Want")),
                                     (CLAIM, ("Cond", "Src"))]),
           trusted=st.tuples(_WORDS, _WORDS),
           images=st.lists(st.tuples(_WORDS, _WORDS),
                           min_size=1, max_size=6))
    def test_random_pool_words_per_section(self, template, trusted,
                                           images):
        source, names = template
        run_batch_vs_interpreter(
            source, sizes=(len(images),),
            symbols=dict(zip(names, trusted)),
            rebind=lambda i: dict(zip(names, images[i])))
