"""Arithmetic path folding and scatter/gather inventory."""

import pytest

from repro import units
from repro.apps.pathprobe import (
    PathBottleneckProbe,
    SwitchInventory,
)
from repro.endhost.client import TPPEndpoint
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import Network


@pytest.fixture
def mixed_capacity_net():
    """h0 - sw0 =1G= sw1 =100M= sw2 =1G= h1 (narrow waist at sw1->sw2)."""
    net = Network()
    switches = [net.add_switch() for _ in range(3)]
    net.link(switches[0], switches[1], units.GIGABITS_PER_SEC)
    net.link(switches[1], switches[2], 100 * units.MEGABITS_PER_SEC)
    h0 = net.add_host()
    h1 = net.add_host()
    net.link(h0, switches[0], units.GIGABITS_PER_SEC)
    net.link(h1, switches[2], units.GIGABITS_PER_SEC)
    install_shortest_path_routes(net)
    h0.tpp = TPPEndpoint(h0)
    h1.tpp = TPPEndpoint(h1)
    return net


class TestPathBottleneckProbe:
    def test_min_finds_narrowest_link(self, mixed_capacity_net):
        net = mixed_capacity_net
        summaries = []
        probe = PathBottleneckProbe(net.host("h0").tpp,
                                    net.host("h1").mac)
        probe.probe(summaries.append)
        net.run(until_seconds=0.01)
        assert summaries[0].bottleneck_capacity_mbps == 100

    def test_max_queue_zero_when_idle(self, mixed_capacity_net):
        net = mixed_capacity_net
        summaries = []
        PathBottleneckProbe(net.host("h0").tpp,
                            net.host("h1").mac).probe(summaries.append)
        net.run(until_seconds=0.01)
        assert summaries[0].max_queue_bytes == 0

    def test_max_sees_congested_hop(self, mixed_capacity_net):
        net = mixed_capacity_net
        from repro.endhost.flows import Flow, FlowSink
        h0, h1 = net.host("h0"), net.host("h1")
        FlowSink(h1, 99)
        flow = Flow(h0, h1, h1.mac, 99,
                    rate_bps=units.GIGABITS_PER_SEC)  # >> 100M waist
        flow.start()
        summaries = []
        probe = PathBottleneckProbe(h0.tpp, h1.mac)
        net.sim.schedule(units.milliseconds(5),
                         lambda: probe.probe(summaries.append))
        net.sim.schedule(units.milliseconds(6), flow.stop)
        net.run(until_seconds=0.5)
        assert summaries[0].max_queue_bytes > 10_000

    def test_memory_footprint_is_two_words(self, mixed_capacity_net):
        """The whole point: constant memory regardless of path length."""
        net = mixed_capacity_net
        probe = PathBottleneckProbe(net.host("h0").tpp,
                                    net.host("h1").mac)
        assert probe.program.memory_bytes == 8


class TestSwitchInventory:
    def test_collects_every_path_switch(self, linear_net):
        net = linear_net
        h0, h1 = net.host("h0"), net.host("h1")
        h0.tpp = TPPEndpoint(h0)
        h1.tpp = TPPEndpoint(h1)
        reports = []
        SwitchInventory(h0.tpp, h1.mac).collect(reports.append)
        net.run(until_seconds=0.05)
        assert sorted(reports[0]) == [1, 2, 3]

    def test_reports_are_per_switch(self, linear_net):
        net = linear_net
        h0, h1 = net.host("h0"), net.host("h1")
        h0.tpp = TPPEndpoint(h0)
        h1.tpp = TPPEndpoint(h1)
        # Give sw1 a distinctive table population.
        net.switch("sw1").install_l3_route(0x0A000000, 8, 0)
        reports = []
        SwitchInventory(h0.tpp, h1.mac).collect(reports.append)
        net.run(until_seconds=0.05)
        report = reports[0]
        assert report[2].switch_id == 2
        # Every switch has 2 L2 routes (one per host).
        assert all(r.l2_entries == 2 for r in report.values())
        assert all(r.packets_switched > 0 for r in report.values())

    def test_cexec_isolates_target(self, linear_net):
        """Each scattered TPP's LOADs fire on exactly one switch: the
        packets_switched counts must be those of distinct switches, not
        one switch repeated."""
        net = linear_net
        h0, h1 = net.host("h0"), net.host("h1")
        h0.tpp = TPPEndpoint(h0)
        h1.tpp = TPPEndpoint(h1)
        reports = []
        SwitchInventory(h0.tpp, h1.mac).collect(reports.append)
        net.run(until_seconds=0.05)
        report = reports[0]
        tpp_counts = {sid: r.tpps_executed for sid, r in report.items()}
        # Each switch executed the discovery TPP + 3 inventory TPPs by
        # the time its own inventory TPP sampled the counter — but the
        # sampled values must come from the matching switch, which we
        # can tell because all three are plausible and per-switch
        # l2_entries match reality.
        assert set(report) == {1, 2, 3}
        assert all(count >= 1 for count in tpp_counts.values())


class TestTruncatedEchoes:
    """A corrupting link can truncate a probe's packet memory; the apps
    that read absolute words from the echo must not see such an echo."""

    @pytest.mark.parametrize("seed", range(3))
    def test_probes_survive_corrupting_links(self, seed):
        from repro.net.topology import TopologyBuilder

        net = TopologyBuilder(seed=seed).linear(2)
        install_shortest_path_routes(net)
        h0, h1 = net.host("h0"), net.host("h1")
        h0.tpp = TPPEndpoint(h0)
        h1.tpp = TPPEndpoint(h1)
        net.impair_links(corrupt_rate=0.3)
        probe = PathBottleneckProbe(h0.tpp, h1.mac)
        inventory = SwitchInventory(h0.tpp, h1.mac)
        summaries, inventories = [], []
        for i in range(100):
            net.sim.schedule(units.microseconds(50) * i, probe.probe,
                             summaries.append)
            net.sim.schedule(units.microseconds(50) * i + 1,
                             inventory.collect, inventories.append)
        net.run(until_seconds=0.01)
        assert h0.tpp.malformed_responses > 0
        assert summaries
