"""Fleet-level SRAM race analysis: classification + incremental table.

Covers the pairwise classifier (one diagnostic per pair/word, severity
precedence, operand-order canonicalization, task isolation), the
certificate embedding of SRAM access sets, and — the conformance
satellite — that the incremental :class:`FleetRaceTable` matches a
from-scratch :func:`check_fleet` after *every* admit/revoke sequence
tested, including readmission of a previously-racy program after its
rival is revoked.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembler import assemble
from repro.core.isa import Instruction, Opcode
from repro.core.memory_map import MemoryMap, SRAM_BASE
from repro.core.racecheck import (
    MAX_IMAGES,
    RACE_CODES,
    FleetRaceTable,
    analyze_sram_dataflow,
    check_fleet,
    check_pair,
    summarize_instructions,
    summarize_program,
    summarize_section,
)
from repro.core.verifier import verify_program

_MAP = MemoryMap.standard()


def summary(name, *accesses, task_id=0):
    """Build a summary from (opcode, word) pairs, one instruction each."""
    instructions = [Instruction(opcode, SRAM_BASE + word, 0)
                    for opcode, word in accesses]
    return summarize_instructions(
        instructions, task_id=task_id, name=name,
        program_key=name.encode())


def codes(diagnostics):
    return [d.code for d in diagnostics]


class TestClassification:
    def test_write_write_is_tpp020(self):
        a = summary("a", (Opcode.STORE, 3))
        b = summary("b", (Opcode.STORE, 3))
        (d,) = check_pair(a, b)
        assert d.code == "TPP020"
        assert d.severity == "error"
        assert d.word == 3
        assert d.vaddr == SRAM_BASE + 3
        assert {d.program_a, d.program_b} == {"a", "b"}

    def test_pop_counts_as_plain_write(self):
        a = summary("a", (Opcode.POP, 5))
        b = summary("b", (Opcode.STORE, 5))
        assert codes(check_pair(a, b)) == ["TPP020"]

    def test_claim_vs_plain_write_is_tpp022(self):
        claimer = summary("claimer", (Opcode.CSTORE, 0))
        writer = summary("writer", (Opcode.STORE, 0))
        (d,) = check_pair(claimer, writer)
        assert d.code == "TPP022"
        assert d.severity == "error"
        assert "claim" in d.message

    def test_write_vs_read_is_tpp021(self):
        writer = summary("writer", (Opcode.STORE, 2))
        reader = summary("reader", (Opcode.PUSH, 2))
        (d,) = check_pair(writer, reader)
        assert d.code == "TPP021"
        assert d.severity == "warning"

    def test_arithmetic_and_load_count_as_reads(self):
        writer = summary("writer", (Opcode.STORE, 1))
        for opcode in (Opcode.ADD, Opcode.MIN, Opcode.XOR, Opcode.LOAD,
                       Opcode.CEXEC):
            reader = summary("reader", (opcode, 1))
            assert codes(check_pair(writer, reader)) == ["TPP021"]

    def test_claim_vs_read_is_tpp021(self):
        claimer = summary("claimer", (Opcode.CSTORE, 4))
        reader = summary("reader", (Opcode.LOAD, 4))
        assert codes(check_pair(claimer, reader)) == ["TPP021"]

    def test_claim_vs_claim_is_tpp023_info(self):
        a = summary("a", (Opcode.CSTORE, 0))
        b = summary("b", (Opcode.CSTORE, 0))
        (d,) = check_pair(a, b)
        assert d.code == "TPP023"
        assert d.severity == "info"

    def test_read_read_sharing_is_silent(self):
        a = summary("a", (Opcode.PUSH, 9))
        b = summary("b", (Opcode.LOAD, 9), (Opcode.ADD, 9))
        assert check_pair(a, b) == []

    def test_disjoint_words_are_silent(self):
        a = summary("a", (Opcode.STORE, 0))
        b = summary("b", (Opcode.STORE, 1))
        assert check_pair(a, b) == []

    def test_different_tasks_never_pair(self):
        a = summary("a", (Opcode.STORE, 0), task_id=1)
        b = summary("b", (Opcode.STORE, 0), task_id=2)
        assert check_pair(a, b) == []

    def test_one_diagnostic_per_pair_word_precedence(self):
        # b both reads and plain-writes word 0; a claims and reads it.
        # TPP022 (claim vs plain write) outranks TPP021/TPP023.
        a = summary("a", (Opcode.CSTORE, 0), (Opcode.LOAD, 0))
        b = summary("b", (Opcode.STORE, 0), (Opcode.PUSH, 0))
        assert codes(check_pair(a, b)) == ["TPP022"]

    def test_write_write_outranks_claim_violation(self):
        a = summary("a", (Opcode.STORE, 0), (Opcode.CSTORE, 0))
        b = summary("b", (Opcode.STORE, 0))
        assert codes(check_pair(a, b)) == ["TPP020"]

    def test_operand_order_is_canonical(self):
        a = summary("a", (Opcode.CSTORE, 0), (Opcode.STORE, 1))
        b = summary("b", (Opcode.STORE, 0), (Opcode.PUSH, 1))
        forward = [d.to_dict() for d in check_pair(a, b)]
        backward = [d.to_dict() for d in check_pair(b, a)]
        assert forward == backward
        assert codes(check_pair(a, b)) == ["TPP022", "TPP021"]

    def test_multi_word_pair_emits_one_diag_per_word(self):
        a = summary("a", (Opcode.STORE, 0), (Opcode.STORE, 1),
                    (Opcode.STORE, 2))
        b = summary("b", (Opcode.STORE, 0), (Opcode.PUSH, 1))
        assert codes(check_pair(a, b)) == ["TPP020", "TPP021"]

    def test_instruction_indices_are_reported(self):
        instructions = [
            Instruction(Opcode.NOP, 0, 0),
            Instruction(Opcode.STORE, SRAM_BASE + 0, 0),
            Instruction(Opcode.STORE, SRAM_BASE + 0, 1),
        ]
        a = summarize_instructions(instructions, name="a",
                                   program_key=b"a")
        b = summary("b", (Opcode.STORE, 0))
        (d,) = check_pair(a, b)
        indices = {d.program_a: d.instructions_a,
                   d.program_b: d.instructions_b}
        assert indices["a"] == (1, 2)
        assert indices["b"] == (0,)

    def test_severity_table_is_stable(self):
        assert RACE_CODES == {"TPP020": "error", "TPP021": "warning",
                              "TPP022": "error", "TPP023": "info"}


ACC = "accumulate"
CLAIM = "claim"
MIXED = "mixed"

#: source -> (expected classes, expected roles or None when the program
#: is not ``ok`` and its roles are never consumed)
DATAFLOW_TABLE = {
    "count-min rows": (
        ".mode absolute\n.memory 2\n"
        "ADD [Packet:0],[Sram:Word3]\nSTORE [Sram:Word3],[Packet:0]\n"
        "ADD [Packet:1],[Sram:Word9]\nSTORE [Sram:Word9],[Packet:1]",
        ((3, ACC), (9, ACC)),
        (("add_acc", 3), ("store_acc", 3),
         ("add_acc", 9), ("store_acc", 9))),
    "stack mode without PUSH/POP addresses absolutely": (
        ".memory 1\nNOP\n"
        "ADD [Packet:0],[Sram:Word3]\nSTORE [Sram:Word3],[Packet:0]",
        ((3, ACC),), (None, ("add_acc", 3), ("store_acc", 3))),
    "second chain reads the running value": (
        ".mode absolute\n.memory 2\n"
        "ADD [Packet:0],[Sram:Word3]\nSTORE [Sram:Word3],[Packet:0]\n"
        "ADD [Packet:1],[Sram:Word3]\nSTORE [Sram:Word3],[Packet:1]",
        ((3, ACC),),
        (("add_acc", 3), ("store_acc", 3),
         ("add_acc", 3), ("store_acc", 3))),
    "lone CSTORE": (
        ".mode absolute\n.memory 2\n"
        "CSTORE [Sram:Word5],[Packet:0],[Packet:1]",
        ((5, CLAIM),), (("cstore_claim", 5),)),
    "heavy-hitter shape": (
        ".mode absolute\n.memory 3\n"
        "ADD [Packet:0],[Sram:Word3]\nSTORE [Sram:Word3],[Packet:0]\n"
        "CSTORE [Sram:Word5],[Packet:1],[Packet:2]",
        ((3, ACC), (5, CLAIM)),
        (("add_acc", 3), ("store_acc", 3), ("cstore_claim", 5))),
    "MAX read-modify-write": (
        ".mode absolute\n.memory 1\n"
        "MAX [Packet:0],[Sram:Word3]\nSTORE [Sram:Word3],[Packet:0]",
        ((3, MIXED),), None),
    "written but never read (formerly private)": (
        ".mode absolute\n.memory 1\nSTORE [Sram:Word3],[Packet:0]",
        ((3, MIXED),), None),
    "accumulation through LOAD": (
        ".mode absolute\n.memory 1\nLOAD [Sram:Word3],[Packet:0]\n"
        "ADD [Packet:0],[Switch:SwitchID]\nSTORE [Sram:Word3],[Packet:0]",
        ((3, MIXED),), None),
    "accumulation through PUSH/POP": (
        "PUSH [Sram:Word3]\nPOP [Sram:Word3]", ((3, MIXED),), None),
    "a statistic read beside the chain": (
        ".mode absolute\n.memory 2\n"
        "ADD [Packet:0],[Sram:Word3]\nSTORE [Sram:Word3],[Packet:0]\n"
        "LOAD [Switch:SwitchID],[Packet:1]",
        ((3, MIXED),), None),
    "any hop-mode program": (
        ".mode hop\n.hops 2\n.perhop 1\n"
        "ADD [Packet:Hop[0]],[Sram:Word3]\n"
        "STORE [Sram:Word3],[Packet:Hop[0]]",
        ((3, MIXED),), None),
    "CEXEC anywhere": (
        ".mode absolute\n.memory 3\n"
        "CEXEC [Switch:SwitchID],[Packet:1],[Packet:2]\n"
        "ADD [Packet:0],[Sram:Word3]\nSTORE [Sram:Word3],[Packet:0]",
        ((3, MIXED),), None),
    "cross-word store": (
        ".mode absolute\n.memory 1\n"
        "ADD [Packet:0],[Sram:Word3]\nSTORE [Sram:Word4],[Packet:0]\n"
        "STORE [Sram:Word3],[Packet:0]",
        ((3, MIXED), (4, MIXED)), None),
    "coefficient two": (
        ".mode absolute\n.memory 1\n"
        "ADD [Packet:0],[Sram:Word3]\nADD [Packet:0],[Sram:Word3]\n"
        "STORE [Sram:Word3],[Packet:0]",
        ((3, MIXED),), None),
    "two claims of one word": (
        ".mode absolute\n.memory 2\n"
        "CSTORE [Sram:Word5],[Packet:0],[Packet:1]\n"
        "CSTORE [Sram:Word5],[Packet:0],[Packet:1]",
        ((5, MIXED),), None),
    "claim beside a plain write": (
        ".mode absolute\n.memory 2\n"
        "CSTORE [Sram:Word5],[Packet:0],[Packet:1]\n"
        "STORE [Sram:Word5],[Packet:1]",
        ((5, MIXED),), None),
    "read-only program touches nothing": (
        "PUSH [Switch:SwitchID]\nPUSH [Sram:Word3]", (), (None, None)),
}


class TestSramDataflow:
    """``analyze_sram_dataflow``: the class of every written/claimed
    word, as pinned on certificates and consumed by the batch plan."""

    @pytest.mark.parametrize("case", sorted(DATAFLOW_TABLE))
    def test_classes_and_roles(self, case):
        source, classes, roles = DATAFLOW_TABLE[case]
        program = assemble(source, memory_map=_MAP)
        analysis = analyze_sram_dataflow(
            program.instructions, mode=program.mode,
            word_size=program.word_size)
        assert analysis.classes == classes
        assert analysis.ok == (roles is not None)
        if roles is not None:
            assert analysis.roles == roles
        certificate = verify_program(
            program, memory_map=_MAP).raise_on_error().certificate
        assert certificate.sram_dataflow == classes

    def test_affine_slots_name_what_the_epilogue_fixes_up(self):
        source, _, _ = DATAFLOW_TABLE["heavy-hitter shape"]
        program = assemble(source, memory_map=_MAP)
        analysis = analyze_sram_dataflow(
            program.instructions, mode=program.mode, word_size=4)
        assert analysis.aff_slots == ((0, 3),)

    def test_sketch_builders_pin_their_classes(self):
        from repro.telemetry import (
            DistinctCountLayout, HeavyHitterLayout, build_count_min_update,
            build_distinct_update, build_heavy_hitter_update)
        layout = HeavyHitterLayout(base_word=0, width=8, depth=3,
                                   n_slots=2)
        rows = dict.fromkeys(layout.countmin.words_for(42), ACC)
        assert build_count_min_update(
            layout.countmin, key=42).dataflow == rows
        assert build_heavy_hitter_update(layout, key=42).dataflow == {
            **rows, layout.slot_word(42): CLAIM}
        distinct = build_distinct_update(
            DistinctCountLayout(base_word=32, m=8), key=5)
        assert distinct.dataflow == {distinct.words[0]: MIXED}


class TestSummaries:
    SOURCE = """
        .memory 2
        .data 0 1
        ADD [Packet:0], [Sram:Word2]
        STORE [Sram:Word2], [Packet:0]
        CSTORE [Sram:Word5], 10, 99
    """

    def test_program_section_certificate_agree(self):
        program = assemble(self.SOURCE)
        from_program = summarize_program(program, task_id=3)
        from_section = summarize_section(program.build(task_id=3))
        result = verify_program(program, memory_map=_MAP, task_id=3)
        assert result.ok
        from_cert = result.certificate.summary
        for s in (from_program, from_section, from_cert):
            assert s.task_id == 3
            assert s.reads == {2: (0,)}
            assert s.writes == {2: (1,)}
            assert s.claims == {5: (2,)}
            assert s.words == {2, 5}
            assert s.touches_sram
        assert (from_program.program_key == from_section.program_key
                == from_cert.program_key)

    def test_certificate_embeds_access_sets(self):
        program = assemble(self.SOURCE)
        certificate = verify_program(
            program, memory_map=_MAP, task_id=3).certificate
        assert certificate.task_id == 3
        summary = certificate.summary
        assert summary.reads == {2: (0,)}
        assert summary.writes == {2: (1,)}
        assert summary.claims == {5: (2,)}
        assert summary.key == (program.program_key, 3,
                               program.initial_memory)
        blob = certificate.to_dict()
        assert blob["task_id"] == 3
        assert blob["summary"]["claims"] == {"5": [2]}
        assert blob["summary"]["image"] == program.initial_memory.hex()

    def test_sram_free_program_has_empty_sets(self):
        program = assemble("PUSH [Queue:QueueSize]")
        certificate = verify_program(
            program, memory_map=_MAP).certificate
        assert certificate.summary.reads == {}
        assert certificate.summary.writes == {}
        assert certificate.summary.claims == {}
        assert not certificate.summary.touches_sram
        assert not summarize_program(program).touches_sram

    def test_summary_to_dict(self):
        blob = summary("a", (Opcode.STORE, 1), (Opcode.PUSH, 2)).to_dict()
        assert blob["writes"] == {"1": [0]}
        assert blob["reads"] == {"2": [1]}
        assert blob["claims"] == {}


class TestFleetReport:
    def test_race_free_fleet(self):
        report = check_fleet([summary("a", (Opcode.STORE, 0)),
                              summary("b", (Opcode.STORE, 1)),
                              summary("c", (Opcode.PUSH, 0),
                                      (Opcode.PUSH, 1))])
        assert report.pairs_checked == 3
        assert not report.race_free  # c reads both written words
        assert report.ok
        assert report.by_code() == {"TPP021": 2}

    def test_fully_disjoint_fleet_is_race_free(self):
        report = check_fleet([summary("a", (Opcode.STORE, 0)),
                              summary("b", (Opcode.STORE, 1))])
        assert report.race_free
        assert report.ok
        assert "race-free" in report.format()

    def test_racy_fleet_report(self):
        report = check_fleet([summary("a", (Opcode.STORE, 0)),
                              summary("b", (Opcode.STORE, 0)),
                              summary("c", (Opcode.CSTORE, 0))])
        assert not report.ok
        assert report.by_code() == {"TPP020": 1, "TPP022": 2}
        blob = report.to_dict()
        assert blob["ok"] is False
        assert blob["race_free"] is False
        assert len(blob["diagnostics"]) == 3
        assert "racy" in report.format()

    def test_diagnostics_sorted_canonically(self):
        report = check_fleet([summary("b", (Opcode.STORE, 1)),
                              summary("a", (Opcode.STORE, 1)),
                              summary("c", (Opcode.STORE, 0),
                                      (Opcode.STORE, 1))])
        ordering = [(d.word, d.code, d.program_a, d.program_b)
                    for d in report.diagnostics]
        assert ordering == sorted(ordering)


def pool(task_spread=False):
    """A pool of overlapping summaries the table tests draw from."""
    task = (lambda i: i % 2) if task_spread else (lambda i: 0)
    specs = [
        ("w0", [(Opcode.STORE, 0)]),
        ("w0b", [(Opcode.STORE, 0)]),
        ("c0", [(Opcode.CSTORE, 0)]),
        ("r0w1", [(Opcode.PUSH, 0), (Opcode.STORE, 1)]),
        ("w1", [(Opcode.STORE, 1)]),
        ("c2", [(Opcode.CSTORE, 2)]),
        ("r2", [(Opcode.LOAD, 2)]),
        ("quiet", [(Opcode.STORE, 9)]),
        ("mixed", [(Opcode.CSTORE, 1), (Opcode.ADD, 2),
                   (Opcode.STORE, 3)]),
    ]
    return [summary(name, *accesses, task_id=task(i))
            for i, (name, accesses) in enumerate(specs)]


def assert_conformant(table, members):
    """The incremental invariant: table report == from-scratch pass."""
    scratch = check_fleet(members)
    report = table.report()
    assert sorted(s.name for s in table.members) == sorted(
        s.name for s in members)
    assert ([d.to_dict() for d in report.diagnostics]
            == [d.to_dict() for d in scratch.diagnostics])
    assert report.ok == scratch.ok
    assert report.race_free == scratch.race_free


class TestFleetRaceTable:
    def test_admit_returns_introduced_diagnostics(self):
        table = FleetRaceTable()
        a, b = summary("a", (Opcode.STORE, 0)), summary(
            "b", (Opcode.STORE, 0))
        assert table.admit(a) == []
        assert codes(table.admit(b)) == ["TPP020"]
        assert len(table) == 2
        assert table.racy_admissions == 1

    def test_admit_is_idempotent(self):
        table = FleetRaceTable()
        a = summary("a", (Opcode.STORE, 0))
        b = summary("b", (Opcode.STORE, 0))
        table.admit(a)
        first = table.admit(b)
        checks = table.pair_checks
        again = table.admit(b)
        assert ([d.to_dict() for d in again]
                == [d.to_dict() for d in first])
        assert table.pair_checks == checks  # no re-analysis
        assert len(table) == 2

    def test_only_word_sharing_pairs_are_checked(self):
        table = FleetRaceTable()
        for i in range(6):
            table.admit(summary(f"p{i}", (Opcode.STORE, i)))
        assert table.pair_checks == 0  # fully disjoint fleet
        table.admit(summary("clash", (Opcode.PUSH, 2)))
        assert table.pair_checks == 1

    def test_revoke_clears_diagnostics(self):
        table = FleetRaceTable()
        a, b = summary("a", (Opcode.STORE, 0)), summary(
            "b", (Opcode.STORE, 0))
        table.admit(a)
        table.admit(b)
        assert table.revoke(a)
        assert table.diagnostics() == []
        assert_conformant(table, [b])
        assert not table.revoke(a)  # already gone

    def test_revoke_accepts_certificate_like_objects(self):
        program = assemble("STORE [Sram:Word0], [Packet:0]\n.memory 1")
        certificate = verify_program(
            program, memory_map=_MAP).certificate
        table = FleetRaceTable()
        table.admit(certificate.summary)
        assert table.revoke(certificate)
        assert len(table) == 0

    def test_two_images_of_one_template_are_two_members(self):
        """Fences are proved on the memory image, so two rebinds of one
        template (same program key) are two members: admitting the
        image aimed at another switch must not retire the race the
        image aimed at *this* switch still has."""
        sid = _MAP.resolve("Switch:SwitchID")
        template = assemble(
            "CEXEC [Switch:SwitchID], 0xFFFFFFFF, $Target\n"
            "STORE [Sram:Word0], [Packet:0]\n", symbols={"Target": 5})
        writer = assemble(".memory 1\nSTORE [Sram:Word0], [Packet:0]\n")

        def certify(program):
            return verify_program(program, memory_map=_MAP,
                                  task_id=1).certificate

        here = certify(template)
        elsewhere = certify(template.rebind({"Target": 3}))
        assert here.program_key == elsewhere.program_key
        assert here.summary.key != elsewhere.summary.key

        def conformant(table):
            for members in (table.members, table.members[::-1]):
                scratch = check_fleet(members, table.fence_values)
                assert ([d.to_dict() for d in table.diagnostics()]
                        == [d.to_dict() for d in scratch.diagnostics])

        table = FleetRaceTable(fence_values={sid: 5})
        table.admit(certify(writer).summary)
        assert codes(table.admit(here.summary)) == ["TPP020"]
        assert table.admit(elsewhere.summary) == []  # dead on switch 5
        assert len(table) == 3
        assert codes(table.diagnostics()) == ["TPP020"]
        conformant(table)
        checks = table.pair_checks
        table.admit(certify(template).summary)  # same image: idempotent
        assert (len(table), table.pair_checks) == (3, checks)
        assert table.revoke(elsewhere)           # exactly that image
        assert codes(table.diagnostics()) == ["TPP020"]
        assert table.revoke(here)
        assert table.diagnostics() == [] and len(table) == 1
        # Unbound table: the two images exclude each other (same mask,
        # different value) and each races the unfenced writer.
        unbound = FleetRaceTable()
        for cert in (elsewhere, certify(writer), here):
            unbound.admit(cert.summary)
        assert codes(unbound.diagnostics()) == ["TPP020", "TPP020"]
        conformant(unbound)

    def test_images_of_one_template_are_bounded(self):
        """A sender that rebinds a per-packet value must not grow the
        table (or its pair checks) per packet: past MAX_IMAGES the
        template's image-free summary represents every further image —
        conservatively against other programs, never against its own
        images."""
        sid = _MAP.resolve("Switch:SwitchID")
        template = assemble(
            ".memory 3\n.data 2 $Stamp\n"
            "CEXEC [Switch:SwitchID], 0xFFFFFFFF, $Target\n"
            "STORE [Sram:Word0], [Packet:2]\n",
            symbols={"Target": 3, "Stamp": 0})

        def certify(program):
            return verify_program(program, memory_map=_MAP,
                                  task_id=1).certificate

        table = FleetRaceTable(fence_values={sid: 5})
        rival = certify(assemble(
            ".memory 1\nSTORE [Sram:Word0], [Packet:0]\n"))
        table.admit(rival.summary)
        images = [certify(template.rebind({"Stamp": n}))
                  for n in range(2000)]
        for cert in images:
            assert table.admit(cert.summary) is not None
        assert len(table) == 1 + MAX_IMAGES + 1
        assert table.pair_checks <= (MAX_IMAGES + 1) * (MAX_IMAGES + 2)
        assert all(cert in table for cert in images)
        # Every tracked image is fenced off switch 5; the image-free
        # member is not, so the template now races the rival here.
        wide = images[-1].summary.widened
        assert wide.key in table and wide.image is None
        assert codes(table.diagnostics()) == ["TPP020"]
        assert codes(table.diagnostics_for(images[-1])) == ["TPP020"]
        assert table.diagnostics_for(images[0]) == []
        scratch = check_fleet(table.members, table.fence_values)
        assert ([d.to_dict() for d in table.diagnostics()]
                == [d.to_dict() for d in scratch.diagnostics])
        # Revoking a tracked image retires it alone; an image past the
        # cap retires the member that represents it.
        assert table.revoke(images[0])
        assert len(table) == MAX_IMAGES + 1
        assert images[0].summary.key not in [m.key for m in table.members]
        assert table.revoke(images[-1])
        assert images[-1] not in table and wide.key not in table
        assert table.diagnostics() == []
        assert not table.revoke(images[-1])
        with pytest.raises(TypeError):
            table.revoke(template.build())   # a section names no image
        # Only "image-free vs an image of the same program" is skipped:
        # two image-free copies race as they always did.
        copies = [summarize_instructions(template.instructions, name=n,
                                         task_id=1) for n in ("a", "b")]
        assert codes(check_pair(*copies)) == ["TPP020"]
        assert check_pair(copies[0], images[1].summary) == []
        assert codes(check_pair(images[0].summary,
                                images[1].summary)) == ["TPP020"]

    def test_readmission_after_rival_revoked(self):
        table = FleetRaceTable()
        rival = summary("rival", (Opcode.STORE, 0))
        racy = summary("racy", (Opcode.STORE, 0))
        table.admit(rival)
        assert codes(table.admit(racy)) == ["TPP020"]
        table.revoke(racy)
        table.revoke(rival)
        # With the rival gone, the same program admits cleanly.
        assert table.admit(racy) == []
        assert_conformant(table, [racy])

    def test_diagnostics_for_member(self):
        table = FleetRaceTable()
        a = summary("a", (Opcode.STORE, 0), (Opcode.STORE, 5))
        b = summary("b", (Opcode.STORE, 0))
        c = summary("c", (Opcode.PUSH, 5))
        for s in (a, b, c):
            table.admit(s)
        assert codes(table.diagnostics_for(b)) == ["TPP020"]
        assert codes(table.diagnostics_for(a)) == ["TPP020", "TPP021"]

    def test_cross_task_members_never_interact(self):
        table = FleetRaceTable()
        table.admit(summary("t1", (Opcode.STORE, 0), task_id=1))
        assert table.admit(summary("t2", (Opcode.STORE, 0),
                                   task_id=2)) == []
        assert table.diagnostics() == []
        assert table.pair_checks == 0  # word index is per-task

    @pytest.mark.parametrize("seed", range(12))
    def test_conformance_random_sequences(self, seed):
        """Incremental == from-scratch after every admit/revoke."""
        rng = random.Random(seed)
        candidates = pool(task_spread=(seed % 3 == 0))
        table = FleetRaceTable()
        members = []
        for _ in range(40):
            if members and rng.random() < 0.4:
                victim = rng.choice(members)
                members.remove(victim)
                assert table.revoke(victim)
            else:
                newcomer = rng.choice(candidates)
                if newcomer not in members:
                    members.append(newcomer)
                table.admit(newcomer)
            assert_conformant(table, members)
        full = len(members) * (len(members) - 1) // 2
        assert table.report().pairs_checked == full

    @settings(max_examples=50, deadline=None)
    @given(ops=st.lists(
        st.tuples(st.booleans(), st.integers(min_value=0, max_value=8)),
        min_size=1, max_size=30))
    def test_conformance_property(self, ops):
        candidates = pool()
        table = FleetRaceTable()
        members = []
        for is_revoke, index in ops:
            candidate = candidates[index]
            if is_revoke:
                expected = candidate in members
                assert table.revoke(candidate) == expected
                if expected:
                    members.remove(candidate)
            else:
                if candidate not in members:
                    members.append(candidate)
                table.admit(candidate)
        assert_conformant(table, members)
