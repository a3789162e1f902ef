"""Shortest-path computation and route installation."""

import pytest

from repro.errors import ConfigurationError
from repro.net.routing import (
    host_path,
    install_shortest_path_routes,
    shortest_paths_from,
)
from repro.net.topology import TopologyBuilder


class TestShortestPaths:
    def test_linear_path(self, linear_net):
        path = host_path(linear_net, "h0", "h1")
        assert path == ["h0", "sw0", "sw1", "sw2", "h1"]

    def test_unknown_origin_raises(self, linear_net):
        with pytest.raises(ConfigurationError):
            shortest_paths_from(linear_net, "nope")

    def test_no_path_raises(self):
        builder = TopologyBuilder()
        net = builder.star(1)
        isolated = net.add_host("lonely")
        with pytest.raises(ConfigurationError):
            host_path(net, "h0", "lonely")

    def test_fat_tree_paths_are_three_switches(self):
        net = TopologyBuilder().fat_tree(k=2)
        path = host_path(net, "h0", "h2")  # different leaves
        # host, leaf, spine, leaf, host
        assert len(path) == 5


class TestInstallRoutes:
    def test_all_pairs_reachable(self, linear_net):
        intended = install_shortest_path_routes(linear_net)
        # every switch has a route to both hosts
        assert len(intended) == 3 * 2

    def test_end_to_end_delivery(self, linear_net):
        h0, h1 = linear_net.host("h0"), linear_net.host("h1")
        from repro.net.packet import Datagram, RawPayload
        got = []
        h1.on_udp_port(9, lambda d, f: got.append(d))
        h0.send_datagram(h1.mac, Datagram(h0.ip, h1.ip, 1, 9,
                                          RawPayload(100)))
        linear_net.run(until_seconds=0.01)
        assert len(got) == 1

    def test_intended_state_matches_tables(self, linear_net):
        intended = install_shortest_path_routes(linear_net)
        for (switch_name, mac), out_port in intended.items():
            entry = linear_net.switch(switch_name).l2.entry_for(mac)
            assert entry is not None
            assert entry.results[0].out_port == out_port

    def test_bidirectional_delivery(self, linear_net):
        from repro.net.packet import Datagram, RawPayload
        h0, h1 = linear_net.host("h0"), linear_net.host("h1")
        got = []
        h0.on_udp_port(9, lambda d, f: got.append(d))
        h1.send_datagram(h0.mac, Datagram(h1.ip, h0.ip, 1, 9,
                                          RawPayload(10)))
        linear_net.run(until_seconds=0.01)
        assert len(got) == 1

    def test_fat_tree_all_pairs(self):
        from repro.net.packet import Datagram, RawPayload
        net = TopologyBuilder().fat_tree(k=2)
        install_shortest_path_routes(net)
        src = net.host("h0")
        delivered = []
        for name, dst in net.hosts.items():
            if name == "h0":
                continue
            dst.on_udp_port(9, lambda d, f: delivered.append(d))
            src.send_datagram(dst.mac, Datagram(src.ip, dst.ip, 1, 9,
                                                RawPayload(10)))
        net.run(until_seconds=0.01)
        assert len(delivered) == len(net.hosts) - 1
