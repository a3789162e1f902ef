"""The unified virtual address space (§3.2.1, Table 2)."""

import pytest

from repro.core import memory_map as mm
from repro.errors import ConfigurationError
from repro.net.topology import Network


class TestStandardLayout:
    def test_paper_listing_names_resolve(self, memory_map):
        """Every mnemonic spelled in the paper's example programs works."""
        for name in (
            "Queue:QueueSize",
            "Switch:SwitchID",
            "Switch:ID",                       # §2.3 spelling
            "Link:QueueSize",                  # §2.2 spelling
            "Link:RX-Utilization",
            "PacketMetadata:MatchedEntryID",
            "PacketMetadata:InputPort",
        ):
            assert memory_map.resolve(name) is not None

    def test_case_insensitive(self, memory_map):
        assert (memory_map.resolve("queue:queuesize")
                == memory_map.resolve("Queue:QueueSize"))

    def test_namespace_bases(self, memory_map):
        assert memory_map.resolve("Switch:SwitchID") == 0x0000
        assert memory_map.resolve("PacketMetadata:InputPort") == 0xA000
        assert memory_map.resolve("Queue:QueueSize") == 0xB000
        assert memory_map.resolve("Link:RX-Utilization") == 0xC000
        assert memory_map.resolve("Sram:Word0") == mm.SRAM_BASE

    def test_unknown_name_raises(self, memory_map):
        with pytest.raises(KeyError):
            memory_map.resolve("Switch:Nonexistent")

    def test_table2_per_switch_stats(self, memory_map):
        """Table 2's per-switch examples exist."""
        memory_map.resolve("Switch:SwitchID")
        memory_map.resolve("Switch:L2TableVersion")  # flow table version [8]
        memory_map.resolve("Switch:L2TableEntries")

    def test_table2_per_port_stats(self, memory_map):
        memory_map.resolve("Link:RX-Utilization")
        memory_map.resolve("Link:BytesReceived")
        memory_map.resolve("Queue:BytesDropped")
        memory_map.resolve("Queue:BytesEnqueued")

    def test_table2_per_packet_stats(self, memory_map):
        memory_map.resolve("PacketMetadata:InputPort")
        memory_map.resolve("PacketMetadata:OutputPort")
        memory_map.resolve("PacketMetadata:MatchedEntryID")
        memory_map.resolve("PacketMetadata:AlternateRoutes")

    def test_writability(self, memory_map):
        def writable(name):
            return memory_map.describe(memory_map.resolve(name)).writable
        assert not writable("Queue:QueueSize")
        assert writable("Sram:Word0")
        assert writable("Link:Reg0")

    def test_name_of_round_trip(self, memory_map):
        vaddr = memory_map.resolve("Queue:QueueSize")
        assert memory_map.name_of(vaddr) == "Queue:QueueSize"

    def test_name_of_unmapped(self, memory_map):
        assert memory_map.name_of(0x9999) == "0x9999"


class TestDynamicSymbols:
    def test_register_symbol(self, memory_map):
        vaddr = memory_map.resolve("Link:Reg0")
        memory_map.register_symbol("Link:RCP-RateRegister", vaddr)
        assert memory_map.resolve("Link:RCP-RateRegister") == vaddr

    def test_symbol_must_point_at_writable(self, memory_map):
        with pytest.raises(ConfigurationError):
            memory_map.register_symbol(
                "Link:Evil", memory_map.resolve("Queue:QueueSize"))

    def test_symbol_must_point_at_mapped(self, memory_map):
        with pytest.raises(ConfigurationError):
            memory_map.register_symbol("Link:Nowhere", 0x9999)


class TestRegistration:
    def test_duplicate_name_rejected(self, memory_map):
        with pytest.raises(ConfigurationError):
            memory_map.add(mm.StatDescriptor("Queue:QueueSize", 0x9000,
                                             False, "dup"))

    def test_duplicate_address_rejected(self, memory_map):
        with pytest.raises(ConfigurationError):
            memory_map.add(mm.StatDescriptor("Fresh:Name", 0xB000,
                                             False, "dup addr"))

    def test_alias_target_must_exist(self, memory_map):
        with pytest.raises(ConfigurationError):
            memory_map.alias("X:Y", "Does:NotExist")


class TestStandardCopies:
    """``standard()`` copies a layout registered once per process; the
    copies share descriptors but nothing a caller can change."""

    def test_changes_to_one_map_never_show_on_another(self):
        first, second = mm.MemoryMap.standard(), mm.MemoryMap.standard()
        shared = mm.MemoryMap.shared_standard()
        before = (shared.names(), dict(shared._aliases))
        first.add(mm.StatDescriptor("Fresh:Name", 0x9000, False, "new"))
        first.alias("My:Alias", "Queue:QueueSize")
        first.register_symbol("Link:RCP-RateRegister", mm.LINK_SCRATCH_BASE)
        del first._aliases["switch:id"]
        for name in ("Fresh:Name", "My:Alias", "Link:RCP-RateRegister"):
            assert first.resolve(name)
            for other in (second, shared, mm.MemoryMap.standard()):
                with pytest.raises(KeyError):
                    other.resolve(name)
        assert second.describe(0x9000) is None
        assert second.resolve("Switch:ID") == second.resolve(
            "Switch:SwitchID")
        assert (shared.names(), dict(shared._aliases)) == before

    def test_copy_equals_a_fresh_registration(self):
        copy = mm.MemoryMap.standard()
        assert len(copy.names()) == (len(mm._STANDARD_STATS)
                                     + mm.LINK_SCRATCH_SLOTS + mm.SRAM_WORDS)
        assert len(set(copy.names())) == len(copy.names())
        for name in copy.names():
            vaddr = copy.resolve(name)
            assert copy.name_of(vaddr) == name
            assert copy.describe(vaddr) is mm.MemoryMap.shared_standard(
                ).describe(vaddr)

    def test_switches_do_not_share_a_map(self):
        """``apps.microburst`` registers symbols on ``mmu.memory_map``."""
        net = Network(seed=1)
        first, second = (net.add_switch(f"sw{i}").mmu.memory_map
                         for i in range(2))
        first.register_symbol("Link:Burst", mm.LINK_SCRATCH_BASE + 1)
        assert first.resolve("Link:Burst") == mm.LINK_SCRATCH_BASE + 1
        for other in (second, mm.MemoryMap.shared_standard()):
            with pytest.raises(KeyError):
                other.resolve("Link:Burst")


class TestRegions:
    def test_region_of(self):
        assert mm.region_of(0x0001) == "Switch"
        assert mm.region_of(0xA001) == "PacketMetadata"
        assert mm.region_of(0xB001) == "Queue"
        assert mm.region_of(0xC001) == "Link"
        assert mm.region_of(mm.SRAM_BASE + 1) == "Sram"
        assert mm.region_of(0xF000) == "unmapped"

    def test_is_sram(self):
        assert mm.is_sram(mm.SRAM_BASE)
        assert mm.is_sram(mm.SRAM_END - 1)
        assert not mm.is_sram(mm.SRAM_END)

    def test_is_link_scratch(self):
        assert mm.is_link_scratch(mm.LINK_SCRATCH_BASE)
        assert not mm.is_link_scratch(
            mm.LINK_SCRATCH_BASE + mm.LINK_SCRATCH_SLOTS)
