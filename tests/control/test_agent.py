"""Control-plane agent: network-wide SRAM and register allocation."""

import pytest

from repro.control.agent import ControlPlaneAgent
from repro.core.memory_map import (
    LINK_SCRATCH_BASE,
    LINK_SCRATCH_SLOTS,
    SRAM_BASE,
    MemoryMap,
)
from repro.errors import ConfigurationError


@pytest.fixture
def agent(linear_net):
    switches = list(linear_net.switches.values())
    return ControlPlaneAgent(switches, memory_map=MemoryMap.standard())


class TestTasks:
    def test_task_ids_unique(self, agent):
        a = agent.create_task("rcp")
        b = agent.create_task("ndb")
        assert a.task_id != b.task_id

    def test_duplicate_task_rejected(self, agent):
        agent.create_task("rcp")
        with pytest.raises(ConfigurationError):
            agent.create_task("rcp")


class TestSramAllocation:
    def test_same_address_on_every_switch(self, agent, linear_net):
        task_id = agent.create_task("rcp").task_id
        vaddr = agent.allocate_sram("rcp", "counter", n_words=2)
        word = vaddr - SRAM_BASE
        for switch in linear_net.switches.values():
            assert switch.mmu.sram_owner(word) == task_id

    def test_nonoverlapping_across_tasks(self, agent):
        """§3.2: RCP and ndb get disjoint SRAM."""
        agent.create_task("rcp")
        agent.create_task("ndb")
        a = agent.allocate_sram("rcp", "x", n_words=4)
        b = agent.allocate_sram("ndb", "y", n_words=4)
        assert abs(a - b) >= 4

    def test_allocation_recorded(self, agent):
        allocation = agent.create_task("rcp")
        vaddr = agent.allocate_sram("rcp", "x")
        assert allocation.sram_words["x"] == vaddr - SRAM_BASE

    def test_exhaustion(self, agent):
        agent.create_task("big")
        with pytest.raises(ConfigurationError):
            agent.allocate_sram("big", "x", n_words=10_000)


class TestLinkRegisters:
    def test_allocation_and_mnemonic(self, agent):
        agent.create_task("rcp")
        vaddr = agent.allocate_link_register(
            "rcp", "rate", mnemonic="Link:RCP-RateRegister")
        assert vaddr == LINK_SCRATCH_BASE
        assert agent.memory_map.resolve("Link:RCP-RateRegister") == vaddr

    def test_distinct_slots(self, agent):
        agent.create_task("rcp")
        a = agent.allocate_link_register("rcp", "rate")
        b = agent.allocate_link_register("rcp", "ts")
        assert a != b

    def test_slot_exhaustion(self, agent):
        agent.create_task("rcp")
        for i in range(LINK_SCRATCH_SLOTS):
            agent.allocate_link_register("rcp", f"r{i}")
        with pytest.raises(ConfigurationError):
            agent.allocate_link_register("rcp", "overflow")

    def test_initialize_to_capacity(self, agent, linear_net):
        """Footnote 3: initialize each link's fair share to capacity."""
        agent.create_task("rcp")
        vaddr = agent.allocate_link_register("rcp", "rate")
        agent.initialize_link_register(
            vaddr, lambda switch, port: switch.ports[port].rate_bps // 1000)
        slot = vaddr - LINK_SCRATCH_BASE
        for switch in linear_net.switches.values():
            for port in switch.ports:
                expected = port.rate_bps // 1000
                assert switch.mmu.peek_link_scratch(
                    port.index, slot) == expected

    def test_initialize_rejects_non_register(self, agent):
        with pytest.raises(ConfigurationError):
            agent.initialize_link_register(0xB000, lambda s, p: 0)

class TestIsolationEnforcement:
    def test_enforcement_flag_propagates(self, linear_net):
        switches = list(linear_net.switches.values())
        ControlPlaneAgent(switches, enforce_isolation=True)
        assert all(s.mmu.enforce_sram_protection for s in switches)

    def test_foreign_task_tpp_faults(self, linear_net):
        """A TPP carrying the wrong task id cannot touch another task's
        SRAM when isolation is on (§3.2 / §4)."""
        from repro.core.assembler import assemble
        from repro.core.exceptions import FaultCode
        from repro.endhost.client import TPPEndpoint

        switches = list(linear_net.switches.values())
        agent = ControlPlaneAgent(switches, enforce_isolation=True)
        rcp = agent.create_task("rcp")
        ndb = agent.create_task("ndb")
        agent.allocate_sram("rcp", "private")  # word 0

        program = assemble(".memory 1\nSTORE [Sram:Word0], [Packet:0]")
        h0, h1 = linear_net.host("h0"), linear_net.host("h1")
        results = []
        TPPEndpoint(h0).send(program, dst_mac=h1.mac, task_id=ndb.task_id,
                             on_response=results.append)
        TPPEndpoint(h1)
        linear_net.run(until_seconds=0.01)
        assert results[0].fault == FaultCode.SRAM_PROTECTION
