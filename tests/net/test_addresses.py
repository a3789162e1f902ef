"""Deterministic host and switch MACs."""

from repro.net import addresses


class TestMac:
    def test_host_and_switch_macs_disjoint(self):
        hosts = {addresses.host_mac(i) for i in range(100)}
        switches = {addresses.switch_mac(i) for i in range(100)}
        assert not hosts & switches
