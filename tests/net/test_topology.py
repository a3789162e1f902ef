"""Topology builders and the Network container."""

import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.net.topology import Network, TopologyBuilder


class TestNetwork:
    def test_auto_names(self):
        net = Network()
        assert net.add_host().name == "h0"
        assert net.add_host().name == "h1"
        assert net.add_switch().name == "sw0"

    def test_duplicate_names_rejected(self):
        net = Network()
        net.add_host("x")
        with pytest.raises(ConfigurationError):
            net.add_host("x")
        with pytest.raises(ConfigurationError):
            net.add_switch("x")

    def test_unique_macs_and_ips(self):
        net = Network()
        hosts = [net.add_host() for _ in range(5)]
        assert len({h.mac for h in hosts}) == 5
        assert len({h.ip for h in hosts}) == 5

    def test_adjacency_is_symmetric(self):
        net = Network()
        a, b = net.add_switch(), net.add_switch()
        net.link(a, b, units.GIGABITS_PER_SEC)
        adjacency = net.adjacency()
        assert adjacency["sw0"] == [(0, "sw1", 0)]
        assert adjacency["sw1"] == [(0, "sw0", 0)]

    def test_run_advances_clock(self):
        net = Network()
        net.run(until_seconds=0.25)
        assert net.sim.now_ns == units.seconds(0.25)


class TestBuilders:
    def test_linear_shape(self):
        net = TopologyBuilder().linear(n_switches=3)
        assert len(net.switches) == 3
        assert len(net.hosts) == 2
        # chain edges + 2 host edges
        assert len(net.edges) == 2 + 2

    def test_linear_multiple_hosts_per_end(self):
        net = TopologyBuilder().linear(n_switches=2, hosts_per_end=3)
        assert len(net.hosts) == 6

    def test_linear_requires_one_switch(self):
        with pytest.raises(ConfigurationError):
            TopologyBuilder().linear(0)

    def test_star_shape(self):
        net = TopologyBuilder().star(n_hosts=4)
        assert len(net.switches) == 1
        assert len(net.hosts) == 4
        assert len(net.switch("sw0").ports) == 4

    def test_dumbbell_shape(self):
        net = TopologyBuilder().dumbbell(
            n_pairs=3, bottleneck_bps=10 * units.MEGABITS_PER_SEC)
        assert set(net.switches) == {"swL", "swR"}
        assert len(net.hosts) == 6
        bottleneck = [e for e in net.edges
                      if {e.device_a, e.device_b} == {"swL", "swR"}]
        assert bottleneck[0].rate_bps == 10 * units.MEGABITS_PER_SEC

    def test_dumbbell_edge_links_faster_by_default(self):
        net = TopologyBuilder().dumbbell(
            n_pairs=1, bottleneck_bps=units.MEGABITS_PER_SEC)
        edge_links = [e for e in net.edges
                      if {e.device_a, e.device_b} != {"swL", "swR"}]
        assert all(e.rate_bps == 10 * units.MEGABITS_PER_SEC
                   for e in edge_links)

    def test_fat_tree_shape(self):
        net = TopologyBuilder().fat_tree(k=2)
        assert len(net.switches) == 2 + 4   # spines + leaves
        assert len(net.hosts) == 8
        assert len(net.edges) == 2 * 4 + 8  # full mesh + host links
