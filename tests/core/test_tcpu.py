"""TCPU execution semantics: Table 1's instructions plus faults/cycles."""


from repro.asic.metadata import PacketMetadata
from repro.core.assembler import assemble
from repro.core.exceptions import FaultCode
from repro.core.memory_map import SRAM_BASE
from repro.core.mmu import MMU, ExecutionContext
from repro.core.tcpu import TCPU, PipelineModel, pipeline_cycles
from repro.core.tpp import FLAG_DONE


class FakeQueue:
    def __init__(self, occupancy=500):
        self.occupancy_bytes = occupancy


class FakePort:
    def __init__(self, index=0):
        self.index = index
        self.queue = FakeQueue()


class Harness:
    """A one-switch TCPU with a few fake statistics bound."""

    def __init__(self, switch_id=7, max_instructions=5):
        self.mmu = MMU(name="fake")
        self.mmu.bind_reader("Switch:SwitchID", lambda ctx: switch_id)
        self.mmu.bind_reader("Queue:QueueSize",
                             lambda ctx: ctx.queue.occupancy_bytes)
        self.tcpu = TCPU(self.mmu, max_instructions=max_instructions)

    def run(self, tpp, task_id=None):
        ctx = ExecutionContext(metadata=PacketMetadata(),
                               egress_port=FakePort(), time_ns=1000)
        return self.tcpu.execute(tpp, ctx)


def build(source, **kwargs):
    return assemble(source, **kwargs).build()


class TestPushPop:
    def test_push_copies_switch_to_packet(self):
        harness = Harness()
        tpp = build("PUSH [Queue:QueueSize]")
        report = harness.run(tpp)
        assert report.ok
        assert tpp.read_word(0) == 500
        assert tpp.sp == 4

    def test_push_accumulates_across_hops(self):
        harness = Harness()
        tpp = build("PUSH [Queue:QueueSize]", hops=3)
        for _ in range(3):
            harness.run(tpp)
        assert tpp.words() == [500, 500, 500]
        assert tpp.hops_executed() == 3

    def test_push_overflow_faults(self):
        harness = Harness()
        tpp = build("PUSH [Queue:QueueSize]", hops=2)
        harness.run(tpp)
        harness.run(tpp)
        report = harness.run(tpp)  # third hop: no room
        assert report.fault == FaultCode.STACK_OVERFLOW
        assert tpp.fault == FaultCode.STACK_OVERFLOW

    def test_pop_copies_packet_to_switch(self):
        harness = Harness()
        tpp = build("""
            .memory 2
            .data 0 1234
            PUSH [Queue:QueueSize]
            POP [Sram:Word3]
        """)
        # PUSH writes queue size at word 0 then POP stores it back.
        report = harness.run(tpp)
        assert report.ok
        assert harness.mmu.peek_sram(3) == 500

    def test_pop_underflow_faults(self):
        harness = Harness()
        tpp = build("POP [Sram:Word0]")
        report = harness.run(tpp)
        assert report.fault == FaultCode.STACK_UNDERFLOW


class TestLoadStore:
    def test_load_absolute(self):
        harness = Harness()
        tpp = build("""
            .mode absolute
            LOAD [Switch:SwitchID], [Packet:1]
        """)
        harness.run(tpp)
        assert tpp.read_word(4) == 7

    def test_load_hop_mode_shifts_per_hop(self):
        """The paper's §3.2.2 example: PacketMemory[1] on hop one,
        PacketMemory[base*size+1] on hop two."""
        harness = Harness()
        tpp = build("""
            .mode hop
            .perhop 4
            LOAD [Switch:SwitchID], [Packet:Hop[1]]
        """, hops=2)
        harness.run(tpp)
        harness.run(tpp)
        assert tpp.read_word(1 * 4) == 7          # hop 0, offset 1
        assert tpp.read_word(4 * 4 + 1 * 4) == 7  # hop 1: base*size+1

    def test_store_writes_switch_memory(self):
        harness = Harness()
        tpp = build("""
            .memory 1
            .data 0 0xCAFE
            STORE [Sram:Word2], [Packet:0]
        """)
        report = harness.run(tpp)
        assert report.ok
        assert harness.mmu.peek_sram(2) == 0xCAFE
        assert report.switch_writes == [(SRAM_BASE + 2, 0xCAFE)]

    def test_store_to_readonly_faults(self):
        harness = Harness()
        tpp = build("""
            .memory 1
            STORE [Queue:QueueSize], [Packet:0]
        """)
        report = harness.run(tpp)
        assert report.fault == FaultCode.WRITE_PROTECTED

    def test_load_bad_address_faults(self):
        harness = Harness()
        tpp = build(".memory 1\nLOAD [0x0999], [Packet:0]")
        report = harness.run(tpp)
        assert report.fault == FaultCode.BAD_ADDRESS

    def test_fault_stops_execution(self):
        harness = Harness()
        tpp = build("""
            .memory 1
            LOAD [0x0999], [Packet:0]
            PUSH [Queue:QueueSize]
        """)
        report = harness.run(tpp)
        assert report.executed == 0  # the faulting instruction never retires
        assert tpp.sp == 0           # the PUSH after it never ran


class TestCStore:
    def test_cstore_succeeds_when_cond_matches(self):
        """CSTORE dst, cond, src stores src iff dst == cond (§3.2.3)."""
        harness = Harness()
        harness.mmu.poke_sram(0, 10)
        tpp = build("CSTORE [Sram:Word0], 10, 99")
        report = harness.run(tpp)
        assert report.ok
        assert harness.mmu.peek_sram(0) == 99

    def test_cstore_fails_when_cond_differs(self):
        harness = Harness()
        harness.mmu.poke_sram(0, 11)
        tpp = build("CSTORE [Sram:Word0], 10, 99")
        harness.run(tpp)
        assert harness.mmu.peek_sram(0) == 11  # unchanged

    def test_cstore_returns_old_value_in_packet(self):
        harness = Harness()
        harness.mmu.poke_sram(0, 123)
        program = assemble("CSTORE [Sram:Word0], 10, 99")
        tpp = program.build()
        cond_offset = program.instructions[0].offset * 4
        harness.run(tpp)
        assert tpp.read_word(cond_offset) == 123

    def test_cstore_linearizes_two_writers(self):
        """Second writer's conditional store loses the race."""
        harness = Harness()
        harness.mmu.poke_sram(0, 0)
        first = build("CSTORE [Sram:Word0], 0, 111")
        second = build("CSTORE [Sram:Word0], 0, 222")
        harness.run(first)
        harness.run(second)
        assert harness.mmu.peek_sram(0) == 111


class TestCExec:
    def test_cexec_enables_matching_switch(self):
        harness = Harness(switch_id=7)
        tpp = build("""
            CEXEC [Switch:SwitchID], 0xFFFFFFFF, 7
            PUSH [Queue:QueueSize]
        """)
        report = harness.run(tpp)
        assert report.executed == 2
        assert tpp.sp == 4

    def test_cexec_disables_rest_on_mismatch(self):
        """All instructions after a failed CEXEC are skipped (§3.2.3)."""
        harness = Harness(switch_id=7)
        tpp = build("""
            CEXEC [Switch:SwitchID], 0xFFFFFFFF, 8
            PUSH [Queue:QueueSize]
            PUSH [Switch:SwitchID]
        """)
        report = harness.run(tpp)
        assert report.executed == 1
        assert report.skipped == 2
        assert report.cexec_disabled_at == 0
        assert tpp.sp == 0

    def test_cexec_mask_applies(self):
        harness = Harness(switch_id=0x17)
        tpp = build("""
            CEXEC [Switch:SwitchID], 0x0F, 0x07
            PUSH [Queue:QueueSize]
        """)
        report = harness.run(tpp)
        assert report.executed == 2  # 0x17 & 0x0F == 0x07

    def test_failed_cexec_is_not_a_fault(self):
        harness = Harness(switch_id=7)
        tpp = build("CEXEC [Switch:SwitchID], 0xFFFFFFFF, 8")
        report = harness.run(tpp)
        assert report.ok


class TestArithmetic:
    def test_add_accumulates(self):
        harness = Harness()
        tpp = build("""
            .memory 1
            ADD [Packet:0], [Queue:QueueSize]
        """, hops=1)
        harness.run(tpp)
        harness.run(tpp)
        assert tpp.read_word(0) == 1000  # 500 + 500

    def test_min_collects_path_minimum(self):
        harness = Harness()
        values = iter([300, 100, 200])
        harness.mmu.bind_reader(0x0100, lambda ctx: next(values))
        program = assemble("""
            .memory 1
            .data 0 0xFFFFFFFF
            MIN [Packet:0], [0x0100]
        """)
        tpp = program.build()
        for _ in range(3):
            harness.run(tpp)
        assert tpp.read_word(0) == 100

    def test_max(self):
        harness = Harness()
        values = iter([3, 9, 5])
        harness.mmu.bind_reader(0x0100, lambda ctx: next(values))
        tpp = build(".memory 1\nMAX [Packet:0], [0x0100]")
        for _ in range(3):
            harness.run(tpp)
        assert tpp.read_word(0) == 9

    def test_sub_wraps_unsigned(self):
        harness = Harness()
        harness.mmu.bind_reader(0x0100, lambda ctx: 1)
        tpp = build(".memory 1\nSUB [Packet:0], [0x0100]")
        harness.run(tpp)
        assert tpp.read_word(0) == 0xFFFF_FFFF

    def test_xor_and_or(self):
        harness = Harness()
        harness.mmu.bind_reader(0x0100, lambda ctx: 0b1010)
        tpp = build("""
            .memory 2
            .data 0 0b0110
            .data 1 0b0110
            XOR [Packet:0], [0x0100]
            OR [Packet:1], [0x0100]
        """)
        harness.run(tpp)
        assert tpp.read_word(0) == 0b1100
        assert tpp.read_word(4) == 0b1110


class TestLimitsAndFlags:
    def test_instruction_limit_enforced(self):
        harness = Harness(max_instructions=2)
        tpp = build("""
            PUSH [Queue:QueueSize]
            PUSH [Queue:QueueSize]
            PUSH [Queue:QueueSize]
        """)
        report = harness.run(tpp)
        assert report.fault == FaultCode.TOO_MANY_INSTRUCTIONS
        assert report.executed == 0

    def test_done_tpp_is_skipped(self):
        harness = Harness()
        tpp = build("PUSH [Queue:QueueSize]")
        tpp.flags |= FLAG_DONE
        report = harness.run(tpp)
        assert report.executed == 0
        assert tpp.sp == 0

    def test_counters(self):
        harness = Harness()
        tpp = build("PUSH [Queue:QueueSize]", hops=2)
        harness.run(tpp)
        harness.run(tpp)
        assert harness.tcpu.tpps_executed == 2
        assert harness.tcpu.instructions_executed == 2

    def test_hop_counter_increments_in_hop_mode(self):
        harness = Harness()
        tpp = build("""
            .mode hop
            LOAD [Switch:SwitchID], [Packet:Hop[0]]
        """, hops=3)
        assert tpp.hop == 0
        harness.run(tpp)
        assert tpp.hop == 1


class TestFaultedHopSlotPreserved:
    """Regression (§3.4): a faulting hop-addressed TPP must still consume
    its hop slot, so the next switch cannot overwrite the fault evidence.
    """

    @staticmethod
    def _faulty_harness(switch_id):
        """A switch whose MMU is missing the Queue:QueueSize statistic, so
        the program's second LOAD faults with BAD_ADDRESS mid-execution."""
        harness = Harness.__new__(Harness)
        harness.mmu = MMU(name="faulty")
        harness.mmu.bind_reader("Switch:SwitchID", lambda ctx: switch_id)
        harness.tcpu = TCPU(harness.mmu, max_instructions=5)
        return harness

    PROGRAM = """
        .mode hop
        .perhop 2
        LOAD [Switch:SwitchID], [Packet:Hop[0]]
        LOAD [Queue:QueueSize], [Packet:Hop[1]]
    """

    def test_fault_advances_hop(self):
        tpp = build(self.PROGRAM, hops=3)
        report = self._faulty_harness(1).run(tpp)
        assert report.fault == FaultCode.BAD_ADDRESS
        assert tpp.hop == 1  # the faulting switch consumed its slot

    def test_next_switch_does_not_overwrite_fault_evidence(self):
        tpp = build(self.PROGRAM, hops=3)
        good1, faulty, good2 = (Harness(switch_id=11),
                                self._faulty_harness(22),
                                Harness(switch_id=33))
        assert good1.run(tpp).ok
        assert faulty.run(tpp).fault == FaultCode.BAD_ADDRESS
        assert good2.run(tpp).ok

        perhop_words = 2
        slots = [tpp.read_word(hop * perhop_words * 4)
                 for hop in range(3)]
        # Hop 0: first switch.  Hop 1: the faulting switch's partial write
        # (its first LOAD landed before the fault) is preserved.  Hop 2:
        # the third switch wrote its own slot instead of overwriting.
        assert slots == [11, 22, 33]
        assert tpp.fault == FaultCode.BAD_ADDRESS
        assert tpp.hops_executed() == 3

    def test_too_many_instructions_also_consumes_slot(self):
        tpp = build("""
            .mode hop
            LOAD [Switch:SwitchID], [Packet:Hop[0]]
        """, hops=2)
        harness = Harness(max_instructions=0)
        report = harness.run(tpp)
        assert report.fault == FaultCode.TOO_MANY_INSTRUCTIONS
        assert tpp.hop == 1

    def test_nop_program(self):
        harness = Harness()
        tpp = build("NOP")
        report = harness.run(tpp)
        assert report.ok and report.executed == 1


class TestCycleModel:
    def test_pipeline_cycles(self):
        # Latency 4, throughput 1/cycle.
        assert pipeline_cycles(0) == 0
        assert pipeline_cycles(1) == 4
        assert pipeline_cycles(5) == 8

    def test_report_cycles(self):
        harness = Harness()
        tpp = build("""
            PUSH [Queue:QueueSize]
            PUSH [Switch:SwitchID]
        """)
        report = harness.run(tpp)
        assert report.cycles == 5

    def test_five_instructions_fit_in_min_packet_tx_time(self):
        """§3.3: execution takes less than a packet's transmission time."""
        model = PipelineModel(clock_ghz=1.0)
        assert model.fits_in_transmission_time(5, packet_bytes=64,
                                               rate_gbps=10.0)

    def test_billion_packets_per_second(self):
        """§1 footnote 2: 64-port 10GbE ~ a billion 64B packets/s."""
        pps = PipelineModel.line_rate_packets_per_second(
            n_ports=64, rate_gbps=10.0, packet_bytes=64)
        assert 0.9e9 < pps < 1.1e9

    def test_cut_through_budget(self):
        """§3.3: 300 ns at 1 GHz is 300 cycles."""
        assert PipelineModel(1.0).cut_through_budget_cycles(300.0) == 300
