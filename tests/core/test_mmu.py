"""MMU translation, write protection, and SRAM isolation."""

import pytest

from repro.asic.metadata import PacketMetadata
from repro.core.exceptions import FaultCode, TCPUFault
from repro.core.memory_map import LINK_SCRATCH_BASE, SRAM_BASE
from repro.core.mmu import MMU, ExecutionContext


class FakeQueue:
    occupancy_bytes = 123


class FakePort:
    def __init__(self, index=0):
        self.index = index
        self.queue = FakeQueue()


def make_ctx(port_index=0, task_id=0):
    return ExecutionContext(metadata=PacketMetadata(),
                            egress_port=FakePort(port_index),
                            time_ns=0, task_id=task_id)


class TestReaders:
    def test_bound_reader_resolves(self):
        mmu = MMU()
        mmu.bind_reader("Switch:SwitchID", lambda ctx: 7)
        vaddr = mmu.memory_map.resolve("Switch:SwitchID")
        assert mmu.read(vaddr, make_ctx()) == 7

    def test_bind_by_raw_address(self):
        mmu = MMU()
        mmu.bind_reader(0x0001, lambda ctx: 99)
        assert mmu.read(0x0001, make_ctx()) == 99

    def test_unbound_address_faults(self):
        mmu = MMU()
        with pytest.raises(TCPUFault) as excinfo:
            mmu.read(0xB000, make_ctx())
        assert excinfo.value.code == FaultCode.BAD_ADDRESS

    def test_reader_sees_context(self):
        mmu = MMU()
        mmu.bind_reader("Queue:QueueSize",
                        lambda ctx: ctx.queue.occupancy_bytes)
        vaddr = mmu.memory_map.resolve("Queue:QueueSize")
        assert mmu.read(vaddr, make_ctx()) == 123

    def test_write_to_reader_address_faults(self):
        mmu = MMU()
        mmu.bind_reader("Queue:QueueSize", lambda ctx: 0)
        vaddr = mmu.memory_map.resolve("Queue:QueueSize")
        with pytest.raises(TCPUFault) as excinfo:
            mmu.write(vaddr, 1, make_ctx())
        assert excinfo.value.code == FaultCode.WRITE_PROTECTED

    def test_write_to_unmapped_faults(self):
        mmu = MMU()
        with pytest.raises(TCPUFault) as excinfo:
            mmu.write(0x9999, 1, make_ctx())
        assert excinfo.value.code == FaultCode.BAD_ADDRESS


class TestSram:
    def test_read_write_round_trip(self):
        mmu = MMU()
        mmu.write(SRAM_BASE + 3, 42, make_ctx())
        assert mmu.read(SRAM_BASE + 3, make_ctx()) == 42

    def test_initially_zero(self):
        assert MMU().read(SRAM_BASE, make_ctx()) == 0

    def test_peek_poke(self):
        mmu = MMU()
        mmu.poke_sram(5, 77)
        assert mmu.peek_sram(5) == 77
        assert mmu.read(SRAM_BASE + 5, make_ctx()) == 77


class TestSramProtection:
    def test_no_enforcement_by_default(self):
        mmu = MMU()
        mmu.allocate_sram(0, 4, task_id=1)
        mmu.write(SRAM_BASE, 1, make_ctx(task_id=2))  # no fault

    def test_enforced_foreign_access_faults(self):
        mmu = MMU()
        mmu.enforce_sram_protection = True
        mmu.allocate_sram(0, 4, task_id=1)
        with pytest.raises(TCPUFault) as excinfo:
            mmu.write(SRAM_BASE, 1, make_ctx(task_id=2))
        assert excinfo.value.code == FaultCode.SRAM_PROTECTION

    def test_enforced_owner_access_ok(self):
        mmu = MMU()
        mmu.enforce_sram_protection = True
        mmu.allocate_sram(0, 4, task_id=1)
        mmu.write(SRAM_BASE + 1, 5, make_ctx(task_id=1))
        assert mmu.read(SRAM_BASE + 1, make_ctx(task_id=1)) == 5

    def test_unallocated_words_open(self):
        mmu = MMU()
        mmu.enforce_sram_protection = True
        mmu.allocate_sram(0, 4, task_id=1)
        mmu.write(SRAM_BASE + 10, 5, make_ctx(task_id=2))

    def test_overlapping_allocation_rejected(self):
        mmu = MMU()
        mmu.allocate_sram(0, 4, task_id=1)
        with pytest.raises(TCPUFault):
            mmu.allocate_sram(2, 4, task_id=2)

    def test_out_of_range_allocation_rejected(self):
        mmu = MMU()
        with pytest.raises(TCPUFault):
            mmu.allocate_sram(100000, 4, task_id=1)

    def test_sram_owner(self):
        mmu = MMU()
        mmu.allocate_sram(4, 2, task_id=9)
        assert mmu.sram_owner(4) == 9
        assert mmu.sram_owner(5) == 9
        assert mmu.sram_owner(6) is None


class TestLinkScratch:
    def test_per_port_isolation(self):
        mmu = MMU()
        vaddr = LINK_SCRATCH_BASE
        mmu.write(vaddr, 11, make_ctx(port_index=0))
        mmu.write(vaddr, 22, make_ctx(port_index=1))
        assert mmu.read(vaddr, make_ctx(port_index=0)) == 11
        assert mmu.read(vaddr, make_ctx(port_index=1)) == 22

    def test_peek_poke_by_port(self):
        mmu = MMU()
        mmu.poke_link_scratch(3, 0, 1234)
        assert mmu.peek_link_scratch(3, 0) == 1234
        assert mmu.read(LINK_SCRATCH_BASE, make_ctx(port_index=3)) == 1234

    def test_slots_independent(self):
        mmu = MMU()
        mmu.write(LINK_SCRATCH_BASE + 0, 1, make_ctx())
        mmu.write(LINK_SCRATCH_BASE + 1, 2, make_ctx())
        assert mmu.read(LINK_SCRATCH_BASE + 0, make_ctx()) == 1
        assert mmu.read(LINK_SCRATCH_BASE + 1, make_ctx()) == 2
