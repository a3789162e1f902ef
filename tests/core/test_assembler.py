"""The TPP assembler: the paper's listings must compile."""

import pytest
from hypothesis import given, strategies as st

from repro.core.assembler import assemble
from repro.core.exceptions import AssemblerError
from repro.core.isa import Opcode
from repro.core.tpp import AddressingMode


class TestPaperListings:
    def test_microburst_program(self):
        """§2.1: PUSH [Queue:QueueSize]."""
        program = assemble("PUSH [Queue:QueueSize]")
        assert program.instructions[0].opcode == Opcode.PUSH
        assert program.instructions[0].addr == 0xB000

    def test_rcp_collect_program(self):
        """§2.2 phase 1 (paper spells the queue as Link:QueueSize)."""
        program = assemble("""
            PUSH [Switch:SwitchID]
            PUSH [Link:QueueSize]
            PUSH [Link:RX-Utilization]
        """)
        assert len(program.instructions) == 3

    def test_rcp_update_program_with_symbols(self):
        """§2.2 phase 3: CEXEC + STORE with $symbol immediates."""
        program = assemble(
            """
            CEXEC [Switch:SwitchID], 0xFFFFFFFF, $BottleneckSwitchID
            STORE [Link:Reg0], [Packet:0]
            """,
            symbols={"BottleneckSwitchID": 7})
        cexec = program.instructions[0]
        assert cexec.opcode == Opcode.CEXEC
        # mask and value are materialized in the literal pool
        words = [program.initial_memory[i:i + 4]
                 for i in range(0, len(program.initial_memory), 4)]
        pool_offset = cexec.offset * 4
        assert program.initial_memory[pool_offset:pool_offset + 4] == (
            0xFFFFFFFF).to_bytes(4, "big")
        assert program.initial_memory[pool_offset + 4:pool_offset + 8] == (
            7).to_bytes(4, "big")

    def test_ndb_program(self):
        """§2.3: the forwarding-plane debugger trace."""
        program = assemble("""
            PUSH [Switch:ID]
            PUSH [PacketMetadata:MatchedEntryID]
            PUSH [PacketMetadata:InputPort]
        """)
        assert len(program.instructions) == 3

    def test_hop_addressing_listing(self):
        """§3.2.2: LOAD [Switch:SwitchID], [Packet:hop[1]]."""
        program = assemble("""
            .mode hop
            LOAD [Switch:SwitchID], [Packet:Hop[1]]
        """)
        assert program.mode == AddressingMode.HOP
        assert program.instructions[0].offset == 1


class TestDirectives:
    def test_word_size(self):
        program = assemble(".word 8\nPUSH [Queue:QueueSize]")
        assert program.word_size == 8

    def test_bad_word_size_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".word 5")

    def test_hops_scales_stack_memory(self):
        two = assemble("PUSH [Queue:QueueSize]", hops=2)
        four = assemble("PUSH [Queue:QueueSize]", hops=4)
        assert len(four.initial_memory) == 2 * len(two.initial_memory)

    def test_memory_override(self):
        program = assemble(".memory 3\nPUSH [Queue:QueueSize]")
        assert program.memory_words == 3

    def test_data_initializes_word(self):
        program = assemble(".memory 2\n.data 1 0xAB")
        assert program.initial_memory[4:8] == (0xAB).to_bytes(4, "big")

    def test_data_with_symbol(self):
        program = assemble(".memory 1\n.data 0 $X", symbols={"X": 5})
        assert program.initial_memory[:4] == (5).to_bytes(4, "big")

    def test_data_outside_memory_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".memory 1\n.data 5 1")

    def test_unknown_directive_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".bogus 1")

    def test_comments_ignored(self):
        program = assemble("""
            ; full line comment
            # hash comment
            PUSH [Queue:QueueSize]  ; trailing
        """)
        assert len(program.instructions) == 1


class TestMemorySizing:
    def test_stack_mode_perhop_is_push_count(self):
        program = assemble("""
            PUSH [Switch:SwitchID]
            PUSH [Queue:QueueSize]
        """)
        assert program.perhop_len_bytes == 8

    def test_stack_memory_covers_hops(self):
        program = assemble("PUSH [Queue:QueueSize]", hops=7)
        assert program.memory_words == 7

    def test_hop_mode_perhop_from_max_offset(self):
        program = assemble("""
            .mode hop
            LOAD [Switch:SwitchID], [Packet:Hop[0]]
            LOAD [Queue:QueueSize], [Packet:Hop[2]]
        """, hops=4)
        assert program.perhop_len_bytes == 12
        assert program.memory_words == 3 * 4

    def test_perhop_override(self):
        program = assemble("""
            .mode hop
            .perhop 5
            LOAD [Switch:SwitchID], [Packet:Hop[0]]
        """, hops=2)
        assert program.perhop_len_bytes == 20


class TestOperandErrors:
    def test_unknown_mnemonic(self):
        with pytest.raises(AssemblerError):
            assemble("FROB [Queue:QueueSize]")

    def test_unknown_statistic(self):
        with pytest.raises(AssemblerError):
            assemble("PUSH [Queue:Imaginary]")

    def test_undefined_symbol(self):
        with pytest.raises(AssemblerError):
            assemble("CEXEC [Switch:SwitchID], 0xFF, $Missing")

    def test_wrong_arity(self):
        with pytest.raises(AssemblerError):
            assemble("PUSH [Queue:QueueSize], [Packet:0]")

    def test_load_needs_packet_operand(self):
        with pytest.raises(AssemblerError):
            assemble("LOAD [Switch:SwitchID], [Queue:QueueSize]")

    def test_cstore_mixed_operands_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("CSTORE [Sram:Word0], [Packet:0], 0x5")

    def test_cstore_nonconsecutive_packet_operands_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("CSTORE [Sram:Word0], [Packet:0], [Packet:2]")

    def test_packet_offset_too_large(self):
        with pytest.raises(AssemblerError):
            assemble("LOAD [Switch:SwitchID], [Packet:999]")

    def test_error_carries_line_number(self):
        with pytest.raises(AssemblerError) as excinfo:
            assemble("PUSH [Queue:QueueSize]\nFROB x")
        assert "line 2" in str(excinfo.value)


class TestRawAddresses:
    def test_hex_address_operand(self):
        program = assemble("PUSH [0xB000]")
        assert program.instructions[0].addr == 0xB000

    def test_arithmetic_operands(self):
        program = assemble("ADD [Packet:2], [Queue:QueueSize]")
        instruction = program.instructions[0]
        assert instruction.opcode == Opcode.ADD
        assert instruction.offset == 2
        assert instruction.addr == 0xB000

    def test_min_accumulator(self):
        program = assemble("MIN [Packet:0], [Link:Reg0]")
        assert program.instructions[0].opcode == Opcode.MIN

    def test_nop(self):
        program = assemble("NOP")
        assert program.instructions[0].opcode == Opcode.NOP


class TestBuild:
    def test_build_copies_memory(self):
        program = assemble("PUSH [Queue:QueueSize]")
        one = program.build()
        two = program.build()
        one.write_word(0, 99)
        assert two.read_word(0) == 0

    def test_build_stamps_task_and_seq(self):
        program = assemble("PUSH [Queue:QueueSize]")
        tpp = program.build(task_id=5, seq=9)
        assert tpp.task_id == 5
        assert tpp.seq == 9

    def test_instruction_bytes_property(self):
        program = assemble("""
            PUSH [Queue:QueueSize]
            PUSH [Switch:SwitchID]
        """)
        assert program.instruction_bytes == 8


# --------------------------------------------------------------------- #
# Templates: rebind() against a fresh assemble()
# --------------------------------------------------------------------- #

_NAMES = ("Rate", "now_ts", "Mask-1", "X")
_values = st.integers(min_value=-(1 << 63), max_value=(1 << 64) - 1)
_MEMORY_WORDS = 6


@st.composite
def _spelled(draw, name):
    """``name`` with each letter's case drawn independently."""
    return "".join(draw(st.sampled_from((c.lower(), c.upper())))
                   for c in name)


@st.composite
def _immediate(draw, used):
    """A literal, or a (case-varied) reference to one of ``_NAMES``."""
    if draw(st.booleans()):
        return str(draw(st.integers(0, 0xFFFFFFFF)))
    name = draw(st.sampled_from(_NAMES))
    used.add(name)
    return "$" + draw(_spelled(name))


@st.composite
def templated_sources(draw):
    """(source, names it references) over every mode and word size,
    with symbols in the literal pool and in (colliding) ``.data``."""
    used = set()
    lines = [f".mode {draw(st.sampled_from(('stack', 'hop', 'absolute')))}",
             f".word {draw(st.sampled_from((4, 8)))}",
             f".memory {_MEMORY_WORDS}", ".perhop 2"]
    for _ in range(draw(st.integers(0, 4))):
        lines.append(f".data {draw(st.integers(0, _MEMORY_WORDS - 1))} "
                     f"{draw(_immediate(used))}")
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(("CSTORE", "CEXEC", "LOAD", "PUSH")))
        if kind == "PUSH":
            lines.append("PUSH [Switch:SwitchID]")
        elif kind == "LOAD":
            lines.append(f"LOAD [Switch:SwitchID], [Packet:"
                         f"{draw(st.integers(0, _MEMORY_WORDS - 1))}]")
        else:
            target = ("[Sram:Word0]" if kind == "CSTORE"
                      else "[Switch:SwitchID]")
            lines.append(f"{kind} {target}, {draw(_immediate(used))}, "
                         f"{draw(_immediate(used))}")
    return "\n".join(draw(st.permutations(lines[:4])) + lines[4:]), used


class TestRebind:
    @given(templated_sources(), st.data())
    def test_rebind_equals_fresh_assemble(self, templated, data):
        source, used = templated
        first = {name: data.draw(_values) for name in _NAMES}
        template = assemble(source, symbols=first, hops=3)
        # A full or partial rebinding, under case-varied names.
        chosen = data.draw(st.sets(st.sampled_from(sorted(used)))
                           if used else st.just(set()))
        new = {name: data.draw(_values) for name in chosen}
        rebound = template.rebind(
            {data.draw(_spelled(name)): value
             for name, value in new.items()})
        fresh = assemble(source, symbols={**first, **new}, hops=3)

        assert rebound == fresh          # every public (compared) field
        assert rebound.program_key == fresh.program_key
        assert rebound.instructions is template.instructions
        assert rebound._verification is None
        assert (rebound.build(task_id=3, seq=9).encode()
                == fresh.build(task_id=3, seq=9).encode())
        # The template is untouched and can be rebound again.
        assert template == assemble(source, symbols=first, hops=3)
        assert template.rebind(
            {name: first[name] for name in used}) == template

    def test_later_data_directive_owns_the_word(self):
        template = assemble(".memory 1\n.data 0 $A\n.data 0 $B\nNOP",
                            symbols={"A": 1, "B": 2})
        assert template.rebind({"A": 9}).initial_memory == bytes(
            [0, 0, 0, 2])
        assert template.rebind({"B": 9}).initial_memory == bytes(
            [0, 0, 0, 9])

    def test_values_are_masked_to_the_word(self):
        template = assemble(".memory 1\n.data 0 $A\nNOP", symbols={"A": 0})
        assert template.rebind({"A": -1}).initial_memory == b"\xff" * 4
        assert template.rebind({"A": (1 << 40) | 5}).initial_memory == (
            bytes([0, 0, 0, 5]))

    def test_verification_is_not_inherited(self):
        template = assemble(
            ".memory 1\nCEXEC [Switch:SwitchID], $Mask, $Want\n"
            "STORE [Sram:Word0], [Packet:0]",
            symbols={"Mask": 0xFF, "Want": 0x1})
        def codes(program):
            return [d.code for d in program.verify().diagnostics]

        assert codes(template) == []
        rebound = template.rebind({"Mask": 0x0F, "Want": 0x100})
        assert rebound._verification is None
        assert codes(rebound) == ["TPP008", "TPP012"]
        assert codes(template) == []

    @pytest.mark.parametrize("directive", [
        ".hops $N", ".memory $N", ".perhop $N", ".data $N 7",
        ".hops $n\n.data 0 $N",      # shaping wins over initialising
    ])
    def test_shape_symbols_refuse(self, directive):
        template = assemble(
            f".mode hop\n.memory 8\n{directive}\n"
            "LOAD [Switch:SwitchID], [Packet:Hop[0]]", symbols={"N": 2})
        with pytest.raises(AssemblerError, match="shapes the program"):
            template.rebind({"N": 2})

    def test_unreferenced_symbol_refuses(self):
        template = assemble("CEXEC [Switch:SwitchID], 0xFF, $Want",
                            symbols={"Want": 1, "Spare": 2})
        with pytest.raises(AssemblerError, match="never references"):
            template.rebind({"Spare": 3})
        with pytest.raises(AssemblerError, match="never references"):
            assemble("NOP").rebind({"Want": 3})
