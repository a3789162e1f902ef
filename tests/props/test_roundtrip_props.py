"""Property tests: the full pipeline round trip.

assemble → build → encode (wire bytes) → decode → disassemble →
re-assemble must be the identity on the instruction stream, and the
decoded section must agree with the original on every header field and
memory byte.  This is the end-to-end contract every probe relies on:
what an endpoint writes is exactly what a switch (and the echoing far
end) reads back.
"""

from hypothesis import example, given, strategies as st

from repro.core.assembler import assemble
from repro.core.disassembler import disassemble, disassemble_instruction
from repro.core.isa import ISA, Instruction, Opcode
from repro.core.memory_map import MemoryMap
from repro.core.tpp import TPPSection
from repro.core.verifier import verify_program, verify_section

_MAP = MemoryMap.standard()
_READABLE = [name for name in _MAP.names()
             if not name.lower().startswith("sram:word")][:30]
_WRITABLE = [f"Sram:Word{i}" for i in range(8)] + ["Link:Reg0", "Link:Reg1"]

push_lines = st.sampled_from(_READABLE).map(lambda n: f"PUSH [{n}]")
pop_lines = st.sampled_from(_WRITABLE).map(lambda n: f"POP [{n}]")
load_lines = st.tuples(
    st.sampled_from(_READABLE), st.integers(0, 15)).map(
    lambda t: f"LOAD [{t[0]}], [Packet:{t[1]}]")
store_lines = st.tuples(
    st.sampled_from(_WRITABLE), st.integers(0, 15)).map(
    lambda t: f"STORE [{t[0]}], [Packet:{t[1]}]")
cstore_lines = st.tuples(
    st.sampled_from(_WRITABLE), st.integers(0, 255),
    st.integers(0, 255)).map(
    lambda t: f"CSTORE [{t[0]}], {t[1]}, {t[2]}")
cexec_lines = st.tuples(
    st.sampled_from(_READABLE), st.integers(0, 255),
    st.integers(0, 255)).map(
    lambda t: f"CEXEC [{t[0]}], {t[1]}, {t[2]}")
arith_lines = st.tuples(
    st.sampled_from(["ADD", "SUB", "MIN", "MAX", "AND", "OR", "XOR"]),
    st.integers(0, 15), st.sampled_from(_READABLE)).map(
    lambda t: f"{t[0]} [Packet:{t[1]}], [{t[2]}]")


@st.composite
def canonical_instructions(draw):
    """Any opcode, any address, any offset; fields its row's ``syntax``
    does not use are zero."""
    opcode = draw(st.sampled_from(list(Opcode)))
    syntax = ISA[opcode].syntax
    addr = draw(st.integers(0, 0xFFFF)) if "switch" in syntax else 0
    offset = (draw(st.integers(0, 0xFF))
              if "packet" in syntax or "pair" in syntax else 0)
    return Instruction(opcode, addr, offset)


programs = st.lists(
    st.one_of(push_lines, pop_lines, load_lines, store_lines,
              cstore_lines, cexec_lines, arith_lines,
              st.just("NOP")),
    min_size=1, max_size=5).map("\n".join)


class TestWireRoundTrip:
    @given(programs, st.integers(min_value=1, max_value=8),
           st.integers(min_value=0, max_value=255))
    def test_encode_decode_identity(self, source, hops, task_id):
        program = assemble(source, memory_map=_MAP, hops=hops)
        tpp = program.build(task_id=task_id)
        decoded = TPPSection.decode(tpp.encode())
        assert decoded.instructions == tpp.instructions
        assert decoded.mode == tpp.mode
        assert decoded.word_size == tpp.word_size
        assert decoded.task_id == tpp.task_id
        assert decoded.hop_or_sp == tpp.hop_or_sp
        assert decoded.perhop_len_bytes == tpp.perhop_len_bytes
        assert bytes(decoded.memory) == bytes(tpp.memory)
        # And the re-encoding is byte-identical (a stable fingerprint).
        assert decoded.encode() == tpp.encode()

    @given(programs, st.integers(min_value=1, max_value=8))
    def test_decode_disassemble_reassemble(self, source, hops):
        """The long way around the loop ends where it started."""
        program = assemble(source, memory_map=_MAP, hops=hops)
        decoded = TPPSection.decode(program.build().encode())
        text = disassemble(decoded.instructions, _MAP)
        again = assemble(text, memory_map=_MAP, hops=hops)
        assert again.instructions == program.instructions

    @given(programs, st.integers(min_value=1, max_value=8))
    def test_verdict_stable_across_the_wire(self, source, hops):
        """Verification is a pure function of the program and geometry,
        so the verdict on the assembled program equals the verdict on
        the wire-decoded section — a switch can re-check a certificate
        without trusting the sender's analysis."""
        program = assemble(source, memory_map=_MAP, hops=hops)
        tpp = program.build()
        before = verify_program(program, memory_map=_MAP, max_hops=hops)
        after = verify_section(TPPSection.decode(tpp.encode()),
                               memory_map=_MAP, max_hops=hops)
        assert before.ok == after.ok
        assert ([d.code for d in before.errors]
                == [d.code for d in after.errors])
        if before.ok and before.certificate and after.certificate:
            assert (before.certificate.program_key
                    == after.certificate.program_key)
            assert (before.certificate.guard_lo
                    == after.certificate.guard_lo)
            assert (before.certificate.guard_hi
                    == after.certificate.guard_hi)

    @given(canonical_instructions())
    @example(Instruction(Opcode.CSTORE, 0x4000, 0xFF))
    @example(Instruction(Opcode.CEXEC, 0x0000, 0xFF))
    def test_every_instruction_reassembles(self, instruction):
        """The disassembler speaks the whole ISA: a pair at offset 255
        prints its second word as 256, and that text assembles back."""
        text = disassemble_instruction(instruction, _MAP)
        again = assemble(text, memory_map=_MAP).instructions
        assert [i.encode() for i in again] == [instruction.encode()]
