"""Per-hop latency profiling."""

import pytest

from repro import quickstart_network, units
from repro.apps.latency import LatencyProfiler, clock_delta_ns
from repro.endhost.flows import Flow, FlowSink


class TestClockDelta:
    def test_plain_difference(self):
        assert clock_delta_ns(1000, 400) == 600

    def test_wraps(self):
        assert clock_delta_ns(100, (1 << 32) - 50) == 150

    def test_zero(self):
        assert clock_delta_ns(123, 123) == 0


@pytest.fixture
def profiled_net():
    # 1 Gb/s, 1 us propagation per link, known pipeline latency.
    net = quickstart_network(n_switches=3, rate_bps=units.GIGABITS_PER_SEC,
                             delay_ns=1_000)
    return net


class TestLatencyProfiler:
    def test_segments_match_known_path_delays(self, profiled_net):
        """On an idle path the segment latency is pipeline + tx + prop,
        all of which we know exactly."""
        net = profiled_net
        profiler = LatencyProfiler(net.host("h0"), net.host("h1").mac,
                                   interval_ns=units.milliseconds(1))
        profiler.start(first_delay_ns=1)
        net.run(until_seconds=0.02)
        profiler.prober.stop()
        profile = profiler.profiles[0]
        assert [hop.switch_id for hop in profile.hops] == [1, 2, 3]
        switch = net.switch("sw0")
        frame_bytes = 12 + 4 * 3 + profiler.program.memory_bytes + 18
        expected = (switch.pipeline_latency_ns
                    + units.transmission_time_ns(
                        max(64, frame_bytes), units.GIGABITS_PER_SEC)
                    + 1_000)
        for hop in profile.hops[1:]:
            assert hop.segment_latency_ns == pytest.approx(expected,
                                                           rel=0.05)

    def test_congested_segment_stands_out(self, profiled_net):
        """Cross traffic inflates exactly the congested segment."""
        net = profiled_net
        h0, h1 = net.host("h0"), net.host("h1")
        # Slow the sw1 -> sw2 link and overload it.
        sw1 = net.switch("sw1")
        toward_sw2 = [p for p in sw1.ports
                      if p.link.name == "sw1->sw2"][0]
        toward_sw2.link.rate_bps = 50 * units.MEGABITS_PER_SEC
        FlowSink(h1, 99)
        cross = Flow(h0, h1, h1.mac, 99,
                     rate_bps=200 * units.MEGABITS_PER_SEC,
                     packet_bytes=1000)
        profiler = LatencyProfiler(h0, h1.mac,
                                   interval_ns=units.milliseconds(2))
        cross.start()
        profiler.start(first_delay_ns=units.milliseconds(5))
        net.sim.schedule(units.milliseconds(9), cross.stop)
        net.sim.schedule(units.milliseconds(9), profiler.prober.stop)
        net.run(until_seconds=0.5)
        # Worst segment is into sw2 (id 3): behind the congested link.
        congested = [p.worst_segment() for p in profiler.profiles
                     if p.worst_segment() is not None]
        assert congested
        assert all(seg.switch_id == 3 for seg in congested)
        assert congested[0].segment_latency_ns > 500_000  # >> idle ~10us

    def test_total_latency_consistent_with_segments(self, profiled_net):
        net = profiled_net
        profiler = LatencyProfiler(net.host("h0"), net.host("h1").mac,
                                   interval_ns=units.milliseconds(1))
        profiler.start(first_delay_ns=1)
        net.run(until_seconds=0.01)
        profile = profiler.profiles[0]
        total = profile.total_network_latency_ns()
        summed = sum(hop.segment_latency_ns for hop in profile.hops
                     if hop.segment_latency_ns is not None)
        assert total == summed

    def test_segment_series_accumulate(self, profiled_net):
        net = profiled_net
        profiler = LatencyProfiler(net.host("h0"), net.host("h1").mac,
                                   interval_ns=units.milliseconds(1))
        profiler.start(first_delay_ns=1)
        net.run(until_seconds=0.05)
        assert set(profiler.segment_series) == {2, 3}
        assert profiler.segment_series[2].mean() > 0

    def test_queue_bytes_recorded_per_hop(self, profiled_net):
        net = profiled_net
        profiler = LatencyProfiler(net.host("h0"), net.host("h1").mac,
                                   interval_ns=units.milliseconds(1))
        profiler.start(first_delay_ns=1)
        net.run(until_seconds=0.01)
        assert all(hop.queue_bytes == 0
                   for hop in profiler.profiles[0].hops)
