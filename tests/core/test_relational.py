"""Relational abstract interpretation: domain facts vs ground truth.

Every static fact the relational layer produces is checked two ways:
once against the domain's own contract (the summary says what it
should), and once against the reference interpreter — a fact that
claims an instruction can never execute, a claim can never fire, or a
fleet is order-insensitive must match what actually happens when the
programs run.  Facts come *pinned* (``summarize_program``: the first
execution, from the image as built) or *unpinned* (a certificate: the
execution at every hop of the budget); the unpinned ones are also run
across two switches, because that is where a first-hop fact goes wrong.
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
        """Unpinned entry counters quantify PUSH over every SP the hop
        horizon can reach: the slots it may land on are untrackable —
        a documented precision loss, never an unsound fact."""
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
    """The claim-epoch refinement is fleet-coupled: what one member can
    store decides which of another member's claims can fire."""

    def summaries(self):
        return [summarize_program(assemble(CLAIM_A), 0, name="a"),
                summarize_program(assemble(CLAIM_B), 0, name="b")]

    def test_admission_can_revive_a_discounted_claim(self):
        """b alone is inert under word0=0; a fleet with a writer that
        reaches b's epoch must resurrect b's claim."""
        b = self.summaries()[1]
        writer = summarize_program(
            assemble(".memory 1\n"
                     "LOAD [Queue:QueueSize], [Packet:0]\n"
                     "STORE [Sram:Word0], [Packet:0]"),
            0, name="w")
        alone = check_fleet([b], sram_values={0: 0})
        assert alone.race_free               # b: claim 2 -> 3, inert
        joined = check_fleet([b, writer], sram_values={0: 0})
        assert "TPP022" in joined.by_code()  # word0 at top: live again
        table = FleetRaceTable()             # a table binds no SRAM
        table.admit(b)
        table.admit(writer)
        assert "TPP022" in {d.code for d in table.diagnostics()}


def certificate_summary(source, name, max_hops=2):
    result = verify_program(assemble(source), memory_map=_MAP,
                            max_instructions=8, max_hops=max_hops)
    assert result.ok, result.format()
    summary = result.certificate.summary
    summary.name = name
    return summary


class TestUnpinnedFactsHoldAtEveryHop:
    """Regressions for facts a certificate used to prove on the first
    hop's image and counter only (each red on the parent)."""

    SELF_CLAIM = (".mode absolute\n.memory 2\n.data 0 {v}\n.data 1 {v}\n"
                  "CSTORE [Sram:Word0], [Packet:0], [Packet:1]")

    def test_claim_condition_is_unknown_after_the_first_hop(self):
        """``CSTORE w, c, c`` stores what it matched — on hop 0.  The
        write-back replaces ``c`` with switch A's old value, so on B
        the claim is ``CSTORE w, 3, c`` and really writes."""
        sources = [self.SELF_CLAIM.format(v=7),
                   self.SELF_CLAIM.format(v=9)]
        pinned = [summarize_program(assemble(src), 0, name=f"p{i}")
                  for i, src in enumerate(sources)]
        assert all(s.claims == {} for s in pinned)      # first hop: inert
        summaries = [certificate_summary(src, f"p{i}")
                     for i, src in enumerate(sources)]
        for summary in summaries:
            assert summary.claims == {0: (0,)}
            assert summary.relational.claims[0].conds is None
        assert [d.code for d in check_fleet(summaries).diagnostics] \
            == ["TPP023"]
        # Ground truth: A (word 0 = 3) fires neither and leaves 3 in
        # both condition words; B (word 0 = 3) then depends on order.
        finals = []
        for order in ((0, 1), (1, 0)):
            sections = [assemble(src).build(task_id=0) for src in sources]
            for mmu in (make_mmu(**{"0": 3}), make_mmu(**{"0": 3})):
                tcpu = TCPU(mmu, max_instructions=8, compile=False)
                for index in order:
                    report = tcpu.execute(sections[index], make_ctx())
                    assert report.fault == FaultCode.NONE
            finals.append(mmu.peek_sram(0))
        assert finals == [7, 9]

    def test_read_with_an_imprecise_destination_stays_live(self):
        """At SP = 4 the PUSH lands in word 1, which nothing
        overwrites: the read reaches final packet memory."""
        reader = certificate_summary(
            ".memory 3\nPUSH [Sram:Word0]\n"
            "LOAD [Switch:SwitchID], [Packet:0]", "reader")
        assert reader.reads == {0: (0,)}
        assert reader.relational.dead_reads == ()
        writer = certificate_summary(
            ".memory 1\n.data 0 5\nSTORE [Sram:Word0], [Packet:0]",
            "writer")
        assert [d.code for d in check_fleet([reader, writer]).diagnostics] \
            == ["TPP021"]
        # Pinned to the first hop the LOAD does overwrite it.
        first_hop = summarize_program(assemble(
            ".memory 3\nPUSH [Sram:Word0]\n"
            "LOAD [Switch:SwitchID], [Packet:0]"), 0, name="reader")
        assert first_hop.reads == {}

    def test_hop_relative_load_at_an_interval_hop_stays_live(self):
        rel = relations_of(assemble(
            ".mode hop\n.hops 3\n.perhop 2\n"
            "LOAD [Sram:Word0], [Packet:Hop[0]]\n"
            "LOAD [Switch:SwitchID], [Packet:Hop[0]]"), entry=None)
        assert 0 not in rel.dead_reads

    def test_claim_behind_a_false_fence_is_dropped(self):
        """The verifier calls the CSTORE unreachable (TPP012); the
        summary must not keep it as a claim."""
        program = assemble(".memory 2\n"
                           "CEXEC [Queue:QueueSize], 0x0F, 0xF0\n"
                           "CSTORE [Sram:Word1], 1, 2")
        result = verify_program(program, memory_map=_MAP,
                                max_instructions=8)
        assert [(d.code, d.instruction) for d in result.diagnostics
                if d.code == "TPP012"] == [("TPP012", 1)]
        assert summarize_program(program, 0).claims == {}
        assert result.certificate.summary.claims == {}

    def test_unpinned_counter_spans_the_hop_horizon_only(self):
        """One PUSH over a 2-hop budget reaches SP 0 or 4, never the
        literal pool at bytes 8..15: the fence stays decidable."""
        program = assemble(""".memory 2
            PUSH [Switch:SwitchID]
            CEXEC [Switch:SwitchID], 0x0F, 0xF0
            STORE [Sram:Word0], [Packet:0]
        """, hops=2)
        kwargs = dict(
            mode=program.mode, word_size=program.word_size,
            memory_len=len(program.initial_memory),
            initial_memory=bytes(program.initial_memory), entry=None,
            memory_map=_MAP)
        near = analyze_relations(program.instructions, max_hops=2,
                                 **kwargs)
        assert near.dead_suffix_at == 1 and near.stable_fences
        # Over the default horizon the PUSH can land on the pool.
        far = analyze_relations(program.instructions, **kwargs)
        assert far.dead_suffix_at is None and not far.stable_fences

    def test_second_dead_fence_is_still_reported(self):
        """The walk goes on deciding CEXECs past the first dead one."""
        result = verify_program(assemble(""".memory 2
            CEXEC [Switch:SwitchID], 0x0F, 0xF0
            CEXEC [Switch:SwitchID], 0x0F, 0xF0
            STORE [Sram:Word0], [Packet:0]
        """), memory_map=_MAP, max_instructions=8)
        dead = [(d.instruction, d.message) for d in result.diagnostics
                if d.code == "TPP008"]
        assert [k for k, _ in dead] == [0, 1]
        assert all("0xf0 has bits outside mask 0xf" in m for _, m in dead)
        relational = result.certificate.summary.relational
        assert relational.dead_suffix_at == 0
        assert [f[0] for f in relational.stable_fences] == [0]
