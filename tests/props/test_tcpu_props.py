"""Property tests: TCPU execution invariants.

Whatever program a packet carries, executing it must never corrupt switch
state it has no right to touch, never raise out of the TCPU, and always
leave the packet's structure (lengths, instruction block) intact.
"""

from hypothesis import given, settings, strategies as st

from repro.asic.metadata import PacketMetadata
from repro.core.isa import Instruction, Opcode
from repro.core.mmu import MMU, ExecutionContext
from repro.core.tcpu import TCPU
from repro.core.tpp import FLAG_DONE, AddressingMode, TPPSection

instructions = st.builds(
    Instruction,
    opcode=st.sampled_from(list(Opcode)),
    addr=st.integers(min_value=0, max_value=0xFFFF),
    offset=st.integers(min_value=0, max_value=0xFF),
)

tpps = st.builds(
    TPPSection,
    instructions=st.lists(instructions, max_size=5),
    memory=st.integers(min_value=0, max_value=16).map(
        lambda w: bytearray(4 * w)),
    mode=st.sampled_from(list(AddressingMode)),
    word_size=st.just(4),
    hop_or_sp=st.integers(min_value=0, max_value=64).map(lambda v: v * 4),
    perhop_len_bytes=st.integers(min_value=0, max_value=8).map(
        lambda w: 4 * w),
)


class FakeQueue:
    occupancy_bytes = 777


class FakePort:
    index = 0
    queue = FakeQueue()


def harness():
    mmu = MMU()
    mmu.bind_reader("Switch:SwitchID", lambda ctx: 5)
    mmu.bind_reader("Queue:QueueSize", lambda ctx: 777)
    return TCPU(mmu)


class TestExecutionProperties:
    @settings(max_examples=300)
    @given(tpps)
    def test_never_raises(self, tpp):
        tcpu = harness()
        ctx = ExecutionContext(metadata=PacketMetadata(),
                               egress_port=FakePort())
        tcpu.execute(tpp, ctx)  # must not raise, whatever the program

    @settings(max_examples=300)
    @given(tpps)
    def test_structure_preserved(self, tpp):
        """The TPP never grows or shrinks inside the network."""
        tcpu = harness()
        before_code = list(tpp.instructions)
        before_len = len(tpp.memory)
        ctx = ExecutionContext(metadata=PacketMetadata(),
                               egress_port=FakePort())
        tcpu.execute(tpp, ctx)
        assert tpp.instructions == before_code
        assert len(tpp.memory) == before_len

    @settings(max_examples=300)
    @given(tpps)
    def test_accounting_consistent(self, tpp):
        tcpu = harness()
        ctx = ExecutionContext(metadata=PacketMetadata(),
                               egress_port=FakePort())
        report = tcpu.execute(tpp, ctx)
        assert report.executed + report.skipped <= len(tpp.instructions)
        assert report.cycles >= 0
        if report.fault:
            assert tpp.fault == report.fault

    @settings(max_examples=200)
    @given(tpps)
    def test_done_tpps_untouched(self, tpp):
        tcpu = harness()
        tpp.flags |= FLAG_DONE
        before = bytes(tpp.memory)
        before_pos = tpp.hop_or_sp
        ctx = ExecutionContext(metadata=PacketMetadata(),
                               egress_port=FakePort())
        report = tcpu.execute(tpp, ctx)
        assert report.executed == 0
        assert bytes(tpp.memory) == before
        assert tpp.hop_or_sp == before_pos
