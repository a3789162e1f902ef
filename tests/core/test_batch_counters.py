"""Demotion observability: every safe-lane detour is counted, by reason.

The batched engine (:mod:`repro.core.batch`) increments
``TCPU.batch_demotions[reason]`` exactly once per demoted batch, and the
switch surfaces the dict via ``fastpath_stats()`` / ``counters_table``.
Each test here drives one demotion path end to end and asserts both the
reason and that the batch still executed correctly through the safe
lane.
"""

import pytest

from repro.asic.metadata import PacketMetadata
from repro.core.assembler import assemble
from repro.core.batch import HAVE_NUMPY
from repro.core.exceptions import FaultCode
from repro.core.memory_map import MemoryMap
from repro.core.mmu import MMU, ExecutionContext
from repro.core.tcpu import TCPU
from repro.core.verifier import verify_program

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="vector lane needs numpy")


class FakeQueue:
    occupancy_bytes = 640


class FakePort:
    index = 0
    queue = FakeQueue()


def make_mmu():
    mmu = MMU(name="counters")
    mmu.bind_reader("Switch:SwitchID", lambda ctx: 9)
    mmu.bind_reader("Queue:QueueSize",
                    lambda ctx: ctx.queue.occupancy_bytes)
    return mmu


def make_ctx(task_id=0):
    return ExecutionContext(metadata=PacketMetadata(),
                            egress_port=FakePort(), time_ns=0,
                            task_id=task_id)


def certified_tcpu(source, mmu=None, max_instructions=5, trust=True):
    mmu = mmu if mmu is not None else make_mmu()
    tcpu = TCPU(mmu, max_instructions=max_instructions,
                compile=True, batch=True)
    program = assemble(source)
    if trust:
        result = verify_program(program,
                                memory_map=MemoryMap.standard(),
                                max_instructions=max_instructions)
        tcpu.trust(result.raise_on_error().certificate)
    return tcpu, program


def run_batch(tcpu, program, n=4, task_ids=None, ctxs=None, mutate=None):
    tasks = task_ids if task_ids is not None else [0] * n
    sections = [program.build(task_id=t) for t in tasks]
    if mutate is not None:
        for index, section in enumerate(sections):
            mutate(section, index)
            section.invalidate_caches()
    if ctxs is None:
        ctxs = [make_ctx(t) for t in tasks]
    return tcpu.execute_batch(sections, ctxs), sections


READ_ONLY = "PUSH [Switch:SwitchID]"
#: The one shape the vector lane takes: an accumulate update.
ACCUMULATE = (".mode absolute\n.memory 1\n.data 0 1\n"
              "ADD [Packet:0], [Sram:Word0]\n"
              "STORE [Sram:Word0], [Packet:0]")


class TestDemotionReasons:
    @needs_numpy
    def test_vectorized_batch_records_no_demotion(self):
        tcpu, program = certified_tcpu(ACCUMULATE)
        run_batch(tcpu, program)
        assert tcpu.batch_demotions == {}
        assert tcpu.vector_batches == 1

    def test_no_numpy(self, monkeypatch):
        monkeypatch.setattr("repro.core.batch.HAVE_NUMPY", False)
        tcpu, program = certified_tcpu(ACCUMULATE)
        reports, _ = run_batch(tcpu, program)
        assert tcpu.batch_demotions == {"no_numpy": 1}
        assert tcpu.vector_batches == 0
        assert all(r.ok for r in reports)

    @needs_numpy
    def test_uncertified_program(self):
        tcpu, program = certified_tcpu(ACCUMULATE, trust=False)
        run_batch(tcpu, program)
        assert tcpu.batch_demotions == {"uncertified": 1}

    @needs_numpy
    def test_uncertified_guard_miss(self):
        # Certified, but the uniform hop/SP counter sits outside the
        # certificate guard: the batch must not trust the vector
        # precondition.
        tcpu, program = certified_tcpu(ACCUMULATE)

        def scramble_sp(section, index):
            section.hop_or_sp = 1 << 16

        reports, _ = run_batch(tcpu, program, mutate=scramble_sp)
        assert tcpu.batch_demotions == {"uncertified": 1}
        assert all(r.ok for r in reports)
        assert tcpu.mmu.peek_sram(0) == 4

    @needs_numpy
    def test_oversized_program_counts_uncertified(self):
        tcpu, program = certified_tcpu("\n".join(["NOP"] * 4),
                                       max_instructions=3, trust=False)
        reports, _ = run_batch(tcpu, program)
        assert tcpu.batch_demotions == {"uncertified": 1}
        assert all(r.fault == FaultCode.TOO_MANY_INSTRUCTIONS
                   for r in reports)

    @needs_numpy
    def test_cexec(self):
        tcpu, program = certified_tcpu(
            "CEXEC [Switch:SwitchID], 0xFF, 9\nPUSH [Queue:QueueSize]")
        run_batch(tcpu, program)
        assert tcpu.batch_demotions == {"cexec": 1}

    @needs_numpy
    def test_write_dataflow(self):
        # Non-additive read-modify-write: no dataflow class fits.
        tcpu, program = certified_tcpu(
            ".mode absolute\n.memory 1\n"
            "LOAD [Sram:Word0], [Packet:0]\n"
            "XOR [Packet:0], [Switch:SwitchID]\n"
            "STORE [Sram:Word0], [Packet:0]")
        run_batch(tcpu, program)
        assert tcpu.batch_demotions == {"write_dataflow": 1}

    @needs_numpy
    def test_link_scratch_write_counts_write_dataflow(self):
        # Link scratch certifies, but the target register depends on
        # each packet's egress port: not scratch SRAM, no dataflow class.
        tcpu, program = certified_tcpu(
            "PUSH [Switch:SwitchID]\nPOP [Link:Reg0]")
        run_batch(tcpu, program)
        assert tcpu.batch_demotions == {"write_dataflow": 1}

    @needs_numpy
    def test_non_uniform_hop_counters(self):
        tcpu, program = certified_tcpu(ACCUMULATE)

        def advance_one(section, index):
            if index == 1:
                section.hop_or_sp += 4

        run_batch(tcpu, program, mutate=advance_one)
        assert tcpu.batch_demotions == {"non_uniform": 1}

    @needs_numpy
    def test_mixed_program_keys_count_non_uniform(self):
        tcpu, _ = certified_tcpu(READ_ONLY, trust=False)
        a = assemble(READ_ONLY).build()
        b = assemble("PUSH [Queue:QueueSize]").build()
        tcpu.execute_batch([a, b], [make_ctx(), make_ctx()])
        assert tcpu.batch_demotions == {"non_uniform": 1}

    @needs_numpy
    def test_mixed_task_ids_with_writes_count_non_uniform(self):
        tcpu, program = certified_tcpu(ACCUMULATE)
        run_batch(tcpu, program, task_ids=[1, 2, 1, 2])
        assert tcpu.batch_demotions == {"non_uniform": 1}
        assert tcpu.vector_batches == 0

    @needs_numpy
    def test_aliased_ctx_mixed_task_ids_count_non_uniform(self):
        tcpu, program = certified_tcpu(ACCUMULATE)
        ctx = make_ctx()
        run_batch(tcpu, program, task_ids=[1, 2, 1, 2],
                  ctxs=[ctx, ctx, ctx, ctx])
        assert tcpu.batch_demotions == {"non_uniform": 1}

    @needs_numpy
    def test_sram_protection_precheck(self):
        mmu = make_mmu()
        mmu.allocate_sram(0, 2, task_id=3)
        mmu.enforce_sram_protection = True
        tcpu, program = certified_tcpu(ACCUMULATE, mmu=mmu)
        reports, _ = run_batch(tcpu, program, task_ids=[5, 5, 5, 5])
        assert tcpu.batch_demotions == {"sram_protection": 1}
        assert all(r.fault == FaultCode.SRAM_PROTECTION for r in reports)
        # SRAM commits never ran: the owner's words are untouched.
        assert mmu.peek_sram(0) == 0

    @needs_numpy
    def test_reasons_accumulate_across_batches(self):
        tcpu, program = certified_tcpu(READ_ONLY, trust=False)
        for _ in range(3):
            run_batch(tcpu, program)
        assert tcpu.batch_demotions == {"uncertified": 3}


class TestCounterSurface:
    def _switch(self):
        from repro import units
        from repro.net.topology import TopologyBuilder

        builder = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC,
                                  delay_ns=1_000)
        net = builder.star(n_hosts=2)
        return net.switch("sw0")

    def test_fastpath_stats_exposes_write_and_demotion_counters(self):
        switch = self._switch()
        stats = switch.fastpath_stats()
        assert stats["vector_batches"] == 0
        assert stats["vector_tpps"] == 0
        assert stats["batch_demotions"] == {}
        switch.tcpu.batch_demotions["cexec"] = 2
        switch.tcpu.vector_batches = 1
        fresh = switch.fastpath_stats()
        assert fresh["batch_demotions"] == {"cexec": 2}
        assert fresh["vector_batches"] == 1
        # The stats dict is a snapshot, not a live alias.
        fresh["batch_demotions"]["cexec"] = 99
        assert switch.tcpu.batch_demotions["cexec"] == 2

    def test_counters_table_renders_demotions(self):
        from repro.analysis.reporting import counters_table

        switch = self._switch()
        switch.tcpu.batch_demotions.update(
            {"cexec": 2, "write_dataflow": 1})
        switch.tcpu.vector_batches = 4
        text = counters_table({"sw0": switch.fastpath_stats()})
        assert [line.split("|")[1].strip() for line in text.splitlines()
                if line.startswith("vector_batches ")] == ["4"]
        assert "batch_demotions" in text
        assert "cexec×2 write_dataflow×1" in text


DEAD_FENCE = (".memory 2\n"
              "LOAD [Queue:QueueSize], [Packet:0]\n"
              "CEXEC [Switch:SwitchID], 0x0F, 0xF0\n"
              "STORE [Sram:Word0], [Packet:0]")


class TestDeadFenceVectorization:
    """Any CEXEC demotes, statically false or not: "dead" is a fact
    about the memory image the program was verified with, and the batch
    guard never looks at packet-memory contents (a rebound template
    shares the program key).  The scalar CEXEC bookkeeping is the safe
    lane's own."""

    @needs_numpy
    def test_dead_fence_batch_demotes(self):
        tcpu, program = certified_tcpu(DEAD_FENCE, max_instructions=8)
        mmu = tcpu.mmu
        mmu.poke_sram(0, 0xBEEF)
        reports, sections = run_batch(tcpu, program)
        assert tcpu.batch_demotions == {"cexec": 1}
        assert tcpu.vector_batches == 0
        for report in reports:
            assert report.executed == 2   # LOAD + the disabling CEXEC
            assert report.skipped == 1    # the relationally-dead STORE
            assert report.cexec_disabled_at == 1
        assert mmu.peek_sram(0) == 0xBEEF  # the dead STORE never ran

    @needs_numpy
    def test_live_cexec_still_demotes(self):
        tcpu, program = certified_tcpu(
            ".memory 2\n"
            "LOAD [Queue:QueueSize], [Packet:0]\n"
            "CEXEC [Switch:SwitchID], 0x0F, 0x09\n"
            "STORE [Sram:Word0], [Packet:0]", max_instructions=8)
        run_batch(tcpu, program)
        assert tcpu.batch_demotions == {"cexec": 1}
        assert tcpu.vector_batches == 0

    @needs_numpy
    def test_write_in_live_prefix_still_demotes(self):
        tcpu, program = certified_tcpu(
            "PUSH [Switch:SwitchID]\n"
            "POP [Sram:Word1]\n"
            "CEXEC [Switch:SwitchID], 0x0F, 0xF0\n"
            "PUSH [Queue:QueueSize]", max_instructions=8)
        run_batch(tcpu, program)
        assert tcpu.vector_batches == 0
        assert "cexec" in tcpu.batch_demotions
