"""Disassembler round trips."""

from repro.core.assembler import assemble
from repro.core.disassembler import (
    disassemble_instruction,
    format_tpp,
)
from repro.core.isa import Instruction, Opcode


class TestDisassemble:
    def test_push_uses_mnemonic(self):
        text = disassemble_instruction(Instruction(Opcode.PUSH, addr=0xB000))
        assert text == "PUSH [Queue:QueueSize]"

    def test_load_shows_both_operands(self):
        text = disassemble_instruction(
            Instruction(Opcode.LOAD, addr=0x0000, offset=1))
        assert text == "LOAD [Switch:SwitchID], [Packet:1]"

    def test_unmapped_address_is_hex(self):
        text = disassemble_instruction(Instruction(Opcode.PUSH, addr=0x0999))
        assert "0x0999" in text

    def test_cexec_shows_operand_pair(self):
        text = disassemble_instruction(
            Instruction(Opcode.CEXEC, addr=0x0000, offset=4))
        assert "[Packet:4], [Packet:5]" in text

    def test_round_trip_through_assembler(self):
        source = """
            PUSH [Switch:SwitchID]
            PUSH [Queue:QueueSize]
            LOAD [Switch:SwitchID], [Packet:3]
        """
        program = assemble(source)
        text = "\n".join(map(disassemble_instruction, program.instructions))
        reassembled = assemble(text, hops=8)
        assert reassembled.instructions == program.instructions

    def test_arithmetic_round_trip(self):
        program = assemble(".memory 1\nMIN [Packet:0], [Queue:QueueSize]")
        text = "\n".join(map(disassemble_instruction, program.instructions))
        assert assemble(text).instructions == program.instructions

    def test_nop(self):
        assert disassemble_instruction(Instruction(Opcode.NOP)) == "NOP"


class TestFormatTPP:
    def test_dump_contains_code_and_memory(self):
        program = assemble("PUSH [Queue:QueueSize]", hops=2)
        tpp = program.build()
        tpp.write_word(0, 0xAB)
        dump = format_tpp(tpp)
        assert "PUSH [Queue:QueueSize]" in dump
        assert "0x000000ab" in dump
        assert "mode=STACK" in dump
