"""Property tests: assembler/disassembler consistency."""

from hypothesis import given, strategies as st

from repro.core.assembler import assemble
from repro.core.disassembler import disassemble_instruction
from repro.core.memory_map import MemoryMap

_MAP = MemoryMap.standard()
_READABLE = [name for name in _MAP.names()
             if not name.lower().startswith("sram:word")][:30]
_WRITABLE = [f"Sram:Word{i}" for i in range(8)] + ["Link:Reg0", "Link:Reg1"]

push_lines = st.sampled_from(_READABLE).map(lambda n: f"PUSH [{n}]")
load_lines = st.tuples(
    st.sampled_from(_READABLE), st.integers(0, 31)).map(
    lambda t: f"LOAD [{t[0]}], [Packet:{t[1]}]")
store_lines = st.tuples(
    st.sampled_from(_WRITABLE), st.integers(0, 31)).map(
    lambda t: f"STORE [{t[0]}], [Packet:{t[1]}]")
arith_lines = st.tuples(
    st.sampled_from(["ADD", "SUB", "MIN", "MAX", "AND", "OR", "XOR"]),
    st.integers(0, 31), st.sampled_from(_READABLE)).map(
    lambda t: f"{t[0]} [Packet:{t[1]}], [{t[2]}]")

programs = st.lists(
    st.one_of(push_lines, load_lines, store_lines, arith_lines),
    min_size=1, max_size=5).map("\n".join)


class TestAssemblerProperties:
    @given(programs)
    def test_assemble_disassemble_reassemble(self, source):
        first = assemble(source, memory_map=_MAP)
        text = "\n".join(disassemble_instruction(i, _MAP)
                         for i in first.instructions)
        second = assemble(text, memory_map=_MAP,
                          hops=first.memory_words or 1)
        assert second.instructions == first.instructions

    @given(programs)
    def test_memory_covers_all_operands(self, source):
        """Every packet operand the program touches fits in the
        preallocated memory, so a single-switch execution cannot go out
        of bounds because of sizing."""
        program = assemble(source, memory_map=_MAP)
        total_words = len(program.initial_memory) // program.word_size
        for instruction in program.instructions:
            if instruction.opcode.name in ("PUSH", "POP"):
                continue
            assert instruction.offset < total_words

    @given(programs)
    def test_instruction_bytes_4n(self, source):
        program = assemble(source, memory_map=_MAP)
        assert program.instruction_bytes == 4 * program.n_instructions

    @given(programs, st.integers(min_value=1, max_value=16))
    def test_stack_memory_scales_with_hops(self, source, hops):
        program = assemble(source, memory_map=_MAP, hops=hops)
        pushes = sum(1 for i in program.instructions
                     if i.opcode.name == "PUSH")
        if pushes:
            assert program.memory_words >= pushes * hops
