"""Relational abstract interpretation: domain facts vs ground truth.

Every static fact the relational layer produces is checked two ways:
once against the domain's own contract (the summary says what it
should), and once against the reference interpreter — a fact that
claims an instruction can never execute, a claim can never fire, or a
fleet is order-insensitive must match what actually happens when the
programs run.  The fleet-level claim-epoch refinement is additionally
held to the :func:`check_fleet` reference semantics from the
incremental :class:`FleetRaceTable`.
"""

import pytest

from repro.asic.metadata import PacketMetadata
from repro.core.assembler import assemble
from repro.core.memory_map import MemoryMap
from repro.core.exceptions import FaultCode
from repro.core.mmu import MMU, ExecutionContext
from repro.core.racecheck import (
    FleetRaceTable,
    SwitchBinding,
    check_fleet,
    check_fleet_multiswitch,
    summarize_program,
)
from repro.core.relational import (
    FIRE_ENTRY,
    analyze_relations,
    claim_can_fire,
    reachable_values,
)
from repro.core.tcpu import TCPU
from repro.core.verifier import verify_program

_MAP = MemoryMap.standard()

# A statically-false fence (expected bits outside the mask) with a
# switch-writing instruction stranded behind it.
DEAD_FENCE = """.memory 2
LOAD [Switch:ClockLo], [Packet:0]
CEXEC [Switch:SwitchID], 0x0F, 0xF0
STORE [Sram:Word0], [Packet:0]
"""

# Claim pair on one word with disjoint claim epochs: a moves 0 -> 1,
# b moves 2 -> 3.  (The trailing NOP keeps the program keys distinct —
# the literal pool differs but the instruction stream alone would not.)
CLAIM_A = "CSTORE [Sram:Word0], 0, 1"
CLAIM_B = "CSTORE [Sram:Word0], 2, 3\nNOP"


class FakeQueue:
    occupancy_bytes = 500


class FakePort:
    index = 0
    queue = FakeQueue()


def make_ctx(task_id=0):
    return ExecutionContext(metadata=PacketMetadata(),
                            egress_port=FakePort(), time_ns=1000,
                            task_id=task_id)


def make_mmu(**poked):
    mmu = MMU(name="relational")
    mmu.bind_reader("Switch:SwitchID", lambda ctx: 7)
    mmu.bind_reader("Switch:ClockLo", lambda ctx: 123456)
    mmu.bind_reader("Queue:QueueSize",
                    lambda ctx: ctx.queue.occupancy_bytes)
    for word, value in poked.items():
        mmu.poke_sram(int(word), value)
    return mmu


def relations_of(program, entry=0):
    return analyze_relations(
        program.instructions, mode=program.mode,
        word_size=program.word_size,
        memory_len=len(program.initial_memory),
        perhop_len_bytes=program.perhop_len_bytes,
        initial_memory=bytes(program.initial_memory),
        entry=entry, memory_map=_MAP)


class TestDomain:
    def test_const_cexec_yields_dead_suffix(self):
        rel = relations_of(assemble(DEAD_FENCE))
        assert rel.dead_suffix_at == 1
        # (index, word-ish, mask, expected) with expected & ~mask != 0.
        assert rel.const_cexecs
        index, _, mask, expected = rel.const_cexecs[0]
        assert index == 1 and expected & ~mask

    def test_reachable_fence_is_not_dead(self):
        rel = relations_of(assemble("""
            .memory 2
            CEXEC [Switch:SwitchID], 0x0F, 0x07
            STORE [Sram:Word0], [Packet:0]
        """))
        assert rel.dead_suffix_at is None

    def test_claim_effects_record_epochs(self):
        rel = relations_of(assemble(CLAIM_A))
        assert len(rel.claims) == 1
        claim = rel.claims[0]
        assert claim.word == 0
        assert claim.fire == FIRE_ENTRY
        assert claim.conds == ((("c", 0),))
        assert claim.srcs == ((("c", 1),))

    def test_entry_none_degrades_push_tracking(self):
        """Unpinned entry counters quantify PUSH over the whole guard
        interval: no slot is trackable, so no dead-suffix fact — a
        documented precision loss, never an unsound fact."""
        source = """.memory 3
            PUSH [Switch:SwitchID]
            CEXEC [Switch:SwitchID], 0x0F, 0xF0
            STORE [Sram:Word0], [Packet:0]
        """
        program = assemble(source, hops=1)
        pinned = relations_of(program, entry=0)
        unpinned = relations_of(program, entry=None)
        assert pinned.dead_suffix_at == 1
        assert unpinned.dead_suffix_at == 1 or \
            unpinned.dead_suffix_at is None
        # The CEXEC literals here are program constants independent of
        # the counter, so even the unpinned pass may keep the fact; a
        # PUSH landing *on* the literal pool must kill it.  Force the
        # collision: one word of declared memory, pool right after it.

    def test_summary_roundtrips_through_dict(self):
        rel = relations_of(assemble(DEAD_FENCE))
        blob = rel.to_dict()
        assert blob["dead_suffix_at"] == 1
        assert blob["const_cexecs"]

    def test_reachable_values_closes_over_claims(self):
        sa = summarize_program(assemble(CLAIM_A), task_id=0, name="a")
        reach = reachable_values([(sa, sa.relational)], {0: 0})
        # 0 is the initial value; 1 becomes reachable once a fires.
        assert reach[(0, 0)] == frozenset({0, 1})

    def test_reachable_values_floor_is_monotone(self):
        sa = summarize_program(assemble(CLAIM_A), task_id=0, name="a")
        floor = {(0, 0): frozenset({9})}
        reach = reachable_values([(sa, sa.relational)], {0: 0},
                                 floor=floor)
        assert reach[(0, 0)] >= frozenset({0, 1, 9})

    def test_claim_can_fire_respects_epochs(self):
        sb = summarize_program(assemble(CLAIM_B), task_id=0, name="b")
        claim = sb.relational.claims[0]
        mask = (1 << 32) - 1
        assert claim_can_fire(claim, 0, {(0, 0): frozenset({2})}, mask)
        assert not claim_can_fire(claim, 0,
                                  {(0, 0): frozenset({0, 1})}, mask)
        # Top (unknown value) must stay conservative.
        assert claim_can_fire(claim, 0, {(0, 0): None}, mask)


class TestVerifierTPP012:
    def test_dead_fence_program_diagnoses(self):
        result = verify_program(assemble(DEAD_FENCE), memory_map=_MAP,
                                max_instructions=8)
        by_code = {d.code: d for d in result.diagnostics}
        assert "TPP012" in by_code
        dead_write = by_code["TPP012"]
        assert dead_write.severity == "info"
        assert dead_write.instruction == 2
        assert "unreachable" in dead_write.message
        assert result.ok  # info-only: never a rejection

    def test_certificate_pins_relational_facts(self):
        result = verify_program(assemble(DEAD_FENCE), memory_map=_MAP,
                                max_instructions=8)
        cert = result.certificate
        assert cert is not None
        assert cert.summary.relational is not None
        assert cert.summary.relational.dead_suffix_at == 1
        blob = cert.to_dict()
        assert blob["summary"]["relational"]["dead_suffix_at"] == 1

    def test_live_program_gets_no_tpp012(self):
        result = verify_program(
            assemble(".memory 2\n"
                     "CEXEC [Switch:SwitchID], 0x0F, 0x07\n"
                     "STORE [Sram:Word0], [Packet:0]"),
            memory_map=_MAP, max_instructions=8)
        assert "TPP012" not in [d.code for d in result.diagnostics]

    def test_tpp012_matches_runtime(self):
        """Fault-for-fault: the write TPP012 names never executes."""
        program = assemble(DEAD_FENCE)
        mmu = make_mmu()
        sentinel = 0xDEAD
        mmu.poke_sram(0, sentinel)
        tcpu = TCPU(mmu, max_instructions=8, compile=False)
        section = program.build(task_id=0)
        report = tcpu.execute(section, make_ctx())
        assert report.fault == FaultCode.NONE
        assert report.cexec_disabled_at == 1
        assert report.executed == 2  # the disabling CEXEC counts
        assert report.skipped == 1   # exactly the diagnosed STORE
        assert mmu.peek_sram(0) == sentinel


class TestClaimEpochGroundTruth:
    """The fleet verdict under an SRAM binding vs what execution does."""

    def run_fleet(self, word0, order):
        a = assemble(CLAIM_A)
        b = assemble(CLAIM_B)
        mmu = make_mmu()
        mmu.poke_sram(0, word0)
        tcpu = TCPU(mmu, max_instructions=8, compile=False)
        sections = {"a": a.build(task_id=0), "b": b.build(task_id=0)}
        for name in order:
            report = tcpu.execute(sections[name], make_ctx())
            assert report.fault == FaultCode.NONE
        return (mmu.peek_sram(0), bytes(sections["a"].memory),
                bytes(sections["b"].memory))

    def summaries(self):
        return [summarize_program(assemble(CLAIM_A), 0, name="a"),
                summarize_program(assemble(CLAIM_B), 0, name="b")]

    def test_unbound_pair_is_claim_coordinated(self):
        report = check_fleet(self.summaries())
        assert [d.code for d in report.diagnostics] == ["TPP023"]

    def test_dead_epochs_downgrade_to_race_free(self):
        """word0=5 strands both claims: the static verdict is
        race-free, and indeed execution is order-insensitive."""
        report = check_fleet(self.summaries(), sram_values={0: 5})
        assert report.race_free
        assert self.run_fleet(5, "ab") == self.run_fleet(5, "ba")
        assert self.run_fleet(5, "ab")[0] == 5  # neither claim fired

    def test_live_epoch_keeps_order_sensitivity_visible(self):
        """word0=0 lets a fire; b's write-back observes 0 or 1
        depending on order — the surviving TPP021 is a true positive,
        so the refinement must NOT discharge it."""
        report = check_fleet(self.summaries(), sram_values={0: 0})
        assert [d.code for d in report.diagnostics] == ["TPP021"]
        ab, ba = self.run_fleet(0, "ab"), self.run_fleet(0, "ba")
        assert ab[0] == ba[0] == 1      # SRAM converges either way...
        assert ab[2] != ba[2]           # ...but b's packet memory tears


class TestMultiSwitch:
    def bindings(self):
        return [SwitchBinding("tor-1", sram_values={0: 0}),
                SwitchBinding("tor-2", sram_values={0: 5})]

    def summaries(self):
        return [summarize_program(assemble(CLAIM_A), 0, name="a"),
                summarize_program(assemble(CLAIM_B), 0, name="b")]

    def test_verdicts_diverge_per_switch(self):
        multi = check_fleet_multiswitch(self.summaries(),
                                        self.bindings())
        assert multi.ok                  # warnings only
        assert not multi.race_free       # tor-1 keeps TPP021
        assert multi.racy_switches == []
        codes = {name: [d.code for d in report.diagnostics]
                 for name, report in multi.switches.items()}
        assert codes == {"tor-1": ["TPP021"], "tor-2": []}

    def test_empty_bindings_fall_back_to_conservative(self):
        multi = check_fleet_multiswitch(self.summaries(), [])
        assert list(multi.switches) == ["*"]
        assert [d.code for d in multi.switches["*"].diagnostics] \
            == ["TPP023"]

    def test_duplicate_binding_names_rejected(self):
        with pytest.raises(ValueError):
            check_fleet_multiswitch(
                self.summaries(),
                [SwitchBinding("tor-1"), SwitchBinding("tor-1")])

    def test_matches_one_check_fleet_per_binding(self):
        summaries = self.summaries()
        multi = check_fleet_multiswitch(summaries, self.bindings())
        for binding in self.bindings():
            solo = check_fleet(summaries,
                               fence_values=binding.fence_values,
                               sram_values=binding.sram_values)
            got = multi.switches[binding.name]
            assert [d.to_dict() for d in got.diagnostics] \
                == [d.to_dict() for d in solo.diagnostics]

    def test_to_dict_shape(self):
        blob = check_fleet_multiswitch(self.summaries(),
                                       self.bindings()).to_dict()
        assert set(blob) == {"ok", "race_free", "racy_switches",
                             "switches"}
        assert set(blob["switches"]) == {"tor-1", "tor-2"}
        assert blob["switches"]["tor-2"]["race_free"] is True


class TestTableConformance:
    """Incremental table vs the from-scratch reference, with the
    claim-epoch refinement bound."""

    def summaries(self):
        return [summarize_program(assemble(CLAIM_A), 0, name="a"),
                summarize_program(assemble(CLAIM_B), 0, name="b")]

    def test_admit_only_matches_check_fleet(self):
        for image in ({0: 0}, {0: 5}, {0: 2}):
            summaries = self.summaries()
            table = FleetRaceTable(sram_values=image)
            for summary in summaries:
                table.admit(summary)
            reference = check_fleet(summaries, sram_values=image)
            assert [d.to_dict() for d in table.diagnostics()] \
                == [d.to_dict() for d in reference.diagnostics], image

    def test_admission_can_revive_a_discounted_claim(self):
        """b alone is inert under word0=0; admitting a writer that
        reaches b's epoch must resurrect b's claim fleet-wide."""
        summaries = self.summaries()
        writer = summarize_program(
            assemble(".memory 1\n"
                     "LOAD [Queue:QueueSize], [Packet:0]\n"
                     "STORE [Sram:Word0], [Packet:0]"),
            0, name="w")
        table = FleetRaceTable(sram_values={0: 0})
        table.admit(summaries[1])            # b: claim 2 -> 3, inert
        assert table.diagnostics() == []
        table.admit(writer)                  # word0 goes to top
        codes = {d.code for d in table.diagnostics()}
        assert "TPP022" in codes             # b's claim is live again
        reference = check_fleet([summaries[1], writer],
                                sram_values={0: 0})
        assert sorted(d.code for d in table.diagnostics()) \
            == sorted(d.code for d in reference.diagnostics)

    def test_revocation_stays_sound_but_conservative(self):
        """The reachable floor is history-monotone: revoking a never
        un-reaches the values it may have left in SRAM, so survivors'
        verdicts never get *less* conservative than the reference."""
        summaries = self.summaries()
        table = FleetRaceTable(sram_values={0: 0})
        for summary in summaries:
            table.admit(summary)
        table.revoke(summaries[0])
        survivors = table.diagnostics()
        reference = check_fleet([summaries[1]], sram_values={0: 0})
        assert {d.code for d in survivors} \
            >= {d.code for d in reference.diagnostics}
