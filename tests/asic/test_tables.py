"""Forwarding tables: L2, L3 LPM, TCAM, and version stamping."""

import pytest

from repro import units
from repro.asic.parser import ParsedHeaders
from repro.asic.tables import (
    DROP,
    EntryAllocator,
    L2Table,
    L3Table,
    Tcam,
    TcamRule,
)
from repro.errors import ConfigurationError
from repro.net.packet import Datagram, RawPayload
from repro.net.topology import Network


def headers(**kwargs) -> ParsedHeaders:
    defaults = dict(src_mac=1, dst_mac=2, ethertype=0x0800)
    defaults.update(kwargs)
    return ParsedHeaders(**defaults)


class TestL2Table:
    def test_install_and_lookup(self):
        table = L2Table(EntryAllocator())
        table.install(0xAA, out_port=3)
        result = table.lookup(0xAA)
        assert result is not None and result.out_port == 3

    def test_miss_returns_none(self):
        table = L2Table(EntryAllocator())
        assert table.lookup(0xAB) is None

    def test_reinstall_bumps_version_and_id(self):
        """ndb's mechanism: every rule change is a new version (§2.3)."""
        table = L2Table(EntryAllocator())
        first = table.install(0xAA, out_port=1)
        second = table.install(0xAA, out_port=2)
        assert second.version > first.version
        assert second.entry_id != first.entry_id
        assert table.lookup(0xAA).out_port == 2

    def test_table_version_tracks_changes(self):
        table = L2Table(EntryAllocator())
        assert table.table_version == 0
        table.install(0xAA, 1)
        v1 = table.table_version
        table.install(0xBB, 1)
        assert table.table_version > v1

    def test_remove(self):
        table = L2Table(EntryAllocator())
        table.install(0xAA, 1)
        table.remove(0xAA)
        assert table.lookup(0xAA) is None
        assert len(table) == 0

    def test_ecmp_alternates_counted(self):
        table = L2Table(EntryAllocator())
        table.install(0xAA, 1)
        table.add_alternate(0xAA, 2)
        table.add_alternate(0xAA, 3)
        result = table.lookup(0xAA)
        assert result.alternate_routes == 2
        assert result.out_port == 1  # primary wins

    def test_alternate_requires_existing_route(self):
        table = L2Table(EntryAllocator())
        with pytest.raises(ConfigurationError):
            table.add_alternate(0xAA, 1)


class TestL3Table:
    def test_longest_prefix_wins(self):
        table = L3Table(EntryAllocator())
        table.install(0x0A000000, 8, out_port=1)    # 10/8
        table.install(0x0A010000, 16, out_port=2)   # 10.1/16
        assert table.lookup(0x0A01FFFF).out_port == 2
        assert table.lookup(0x0A02FFFF).out_port == 1

    def test_default_route(self):
        table = L3Table(EntryAllocator())
        table.install(0, 0, out_port=9)
        assert table.lookup(0xDEADBEEF).out_port == 9

    def test_miss(self):
        table = L3Table(EntryAllocator())
        table.install(0x0A000000, 8, out_port=1)
        assert table.lookup(0x0B000000) is None

    def test_none_address_misses(self):
        table = L3Table(EntryAllocator())
        table.install(0, 0, 1)
        assert table.lookup(None) is None

    def test_reinstall_same_prefix_replaces(self):
        table = L3Table(EntryAllocator())
        table.install(0x0A000000, 8, out_port=1)
        table.install(0x0A000000, 8, out_port=5)
        assert len(table) == 1
        assert table.lookup(0x0A000001).out_port == 5

    def test_bad_prefix_len_rejected(self):
        table = L3Table(EntryAllocator())
        with pytest.raises(ConfigurationError):
            table.install(0, 33, 1)


class TestTcam:
    def test_wildcard_rule_matches_everything(self):
        tcam = Tcam(EntryAllocator())
        tcam.install(TcamRule(priority=1, out_port=4))
        assert tcam.lookup(headers(), in_port=0).out_port == 4

    def test_field_match(self):
        tcam = Tcam(EntryAllocator())
        tcam.install(TcamRule(priority=1, out_port=4, dst_mac=0xAA))
        assert tcam.lookup(headers(dst_mac=0xAA), 0) is not None
        assert tcam.lookup(headers(dst_mac=0xAB), 0) is None

    def test_priority_order(self):
        tcam = Tcam(EntryAllocator())
        tcam.install(TcamRule(priority=1, out_port=1))
        tcam.install(TcamRule(priority=10, out_port=2, dst_mac=2))
        assert tcam.lookup(headers(dst_mac=2), 0).out_port == 2
        assert tcam.lookup(headers(dst_mac=3), 0).out_port == 1

    def test_in_port_match(self):
        tcam = Tcam(EntryAllocator())
        tcam.install(TcamRule(priority=1, out_port=9, in_port=2))
        assert tcam.lookup(headers(), in_port=2) is not None
        assert tcam.lookup(headers(), in_port=3) is None

    def test_drop_action(self):
        tcam = Tcam(EntryAllocator())
        tcam.install(TcamRule(priority=5, out_port=DROP, src_ip=0x0A000001))
        result = tcam.lookup(headers(src_ip=0x0A000001), 0)
        assert result.is_drop

    def test_udp_port_match(self):
        tcam = Tcam(EntryAllocator())
        tcam.install(TcamRule(priority=1, out_port=1, dst_port=53))
        assert tcam.lookup(headers(dst_port=53), 0) is not None
        assert tcam.lookup(headers(dst_port=54), 0) is None

    def test_remove_by_entry_id(self):
        tcam = Tcam(EntryAllocator())
        rule = tcam.install(TcamRule(priority=1, out_port=1))
        assert tcam.remove(rule.entry_id)
        assert not tcam.remove(rule.entry_id)
        assert tcam.lookup(headers(), 0) is None

    def test_capacity_limit(self):
        tcam = Tcam(EntryAllocator(), capacity=2)
        tcam.install(TcamRule(priority=1, out_port=1))
        tcam.install(TcamRule(priority=2, out_port=1))
        with pytest.raises(ConfigurationError):
            tcam.install(TcamRule(priority=3, out_port=1))

    def test_negative_set_queue_refused(self):
        """A negative queue id used to reach ``port.queues[-5]`` at the
        egress enqueue and raise ``IndexError`` out of ``sim.run()``."""
        tcam = Tcam(EntryAllocator())
        with pytest.raises(ConfigurationError):
            tcam.install(TcamRule(priority=1, out_port=1, queue_id=-5))
        assert len(tcam) == 0
        tcam.install(TcamRule(priority=1, out_port=1, queue_id=0))

    @pytest.mark.parametrize("n_queues, expected", [(1, 0), (2, 1), (3, 2)])
    def test_set_queue_past_last_queue_joins_the_last(self, n_queues,
                                                      expected):
        """The upper half of the contract: a too-large class is clamped
        to the egress port's queue count, never an error."""
        net = Network(seed=1)
        switch = net.add_switch("sw0")
        h0, h1 = net.add_host(), net.add_host()
        net.link(h0, switch, units.GIGABITS_PER_SEC)
        egress, _ = net.link(switch, h1, units.GIGABITS_PER_SEC,
                             n_queues=n_queues)
        switch.install_tcam_rule(TcamRule(priority=1, out_port=egress.index,
                                          queue_id=7))
        got = []
        h1.on_udp_port(9, lambda datagram, frame: got.append(datagram))
        h0.send_datagram(h1.mac, Datagram(h0.ip, h1.ip, 1, 9,
                                          RawPayload(100)))
        net.run(until_seconds=0.01)
        assert len(got) == 1
        assert [q.stats.packets_enqueued for q in egress.queues] == [
            int(index == expected) for index in range(n_queues)]


class TestEntryAllocator:
    def test_ids_unique_across_tables(self):
        allocator = EntryAllocator()
        l2 = L2Table(allocator)
        tcam = Tcam(allocator)
        entry = l2.install(0xAA, 1)
        rule = tcam.install(TcamRule(priority=1, out_port=1))
        assert entry.entry_id != rule.entry_id

    def test_versions_monotonic(self):
        allocator = EntryAllocator()
        versions = [allocator.next_version() for _ in range(5)]
        assert versions == sorted(versions)
        assert allocator.last_version == versions[-1]
