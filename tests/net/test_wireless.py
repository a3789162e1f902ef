"""Wireless SNR channel model."""

import random

from repro.net.wireless import WirelessChannel, attach_wireless_channel
from repro.sim.simulator import Simulator


class TestWirelessChannel:
    def test_starts_at_mean(self, sim):
        channel = WirelessChannel(sim, random.Random(1), mean_snr_db=25.0)
        assert channel.current_snr_db == 25.0

    def test_evolves_when_started(self, sim):
        channel = WirelessChannel(sim, random.Random(1),
                                  update_interval_ns=1_000)
        channel.start()
        sim.run(until_ns=100_000)
        assert channel.updates == 99

    def test_stays_within_bounds(self, sim):
        channel = WirelessChannel(sim, random.Random(2), mean_snr_db=5.0,
                                  step_db=10.0, floor_db=0.0,
                                  ceiling_db=10.0, update_interval_ns=100)
        channel.start()
        observed = []
        from repro.sim.timers import PeriodicTimer
        sampler = PeriodicTimer(sim, 100,
                                lambda: observed.append(
                                    channel.current_snr_milli_db))
        sampler.start()
        sim.run(until_ns=50_000)
        assert observed
        assert all(0 <= v <= 10_000 for v in observed)

    def test_deterministic_given_seed(self):
        def run_once():
            sim = Simulator()
            channel = WirelessChannel(sim, random.Random(7),
                                      update_interval_ns=500)
            channel.start()
            sim.run(until_ns=20_000)
            return channel.current_snr_milli_db

        assert run_once() == run_once()

    def test_attach_to_port(self, sim):
        class FakePort:
            pass

        port = FakePort()
        channel = WirelessChannel(sim, random.Random(4))
        attach_wireless_channel(port, channel)
        assert port.wireless_channel is channel


class TestSNRThroughTPP:
    def test_snr_readable_via_link_namespace(self):
        """An end-host samples the AP's wireless SNR with a LOAD TPP."""
        from repro import quickstart_network
        from repro.core import assemble

        net = quickstart_network(n_switches=1)
        switch = net.switch("sw0")
        # Make the switch's port toward h1 a "wireless" downlink.
        channel = WirelessChannel(net.sim, net.rng.stream("snr"),
                                  mean_snr_db=30.0)
        attach_wireless_channel(switch.ports[1], channel)
        channel.start()

        program = assemble("PUSH [Link:SNR-MilliDb]")
        results = []
        net.host("h0").tpp.send(program, dst_mac=net.host("h1").mac,
                                on_response=results.append)
        net.run(until_seconds=0.01)
        assert results
        snr_milli = results[0].per_hop_words()[0][0]
        assert 0 < snr_milli < 45_000
