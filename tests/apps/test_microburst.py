"""Micro-burst detection (§2.1)."""

import pytest

from repro import units
from repro.analysis.timeseries import TimeSeries
from repro.apps.microburst import (
    Burst,
    BurstDetector,
    BurstyTrafficGenerator,
    CoarsePoller,
    TelemetryStream,
)
from repro.endhost.flows import Flow, FlowSink
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder


def series_of(pairs):
    series = TimeSeries()
    for t, v in pairs:
        series.append(t, v)
    return series


class TestBurstDetector:
    def test_single_burst(self):
        series = series_of([(0, 0), (1, 50), (2, 60), (3, 0)])
        bursts = BurstDetector(threshold_bytes=40).detect(series)
        assert len(bursts) == 1
        assert bursts[0].start_ns == 1
        assert bursts[0].end_ns == 2
        assert bursts[0].peak_bytes == 60

    def test_multiple_bursts(self):
        series = series_of([(0, 50), (1, 0), (2, 50), (3, 0), (4, 50)])
        bursts = BurstDetector(40).detect(series)
        assert len(bursts) == 3

    def test_burst_at_end_closed(self):
        series = series_of([(0, 0), (1, 50)])
        bursts = BurstDetector(40).detect(series)
        assert len(bursts) == 1

    def test_min_duration_filter(self):
        series = series_of([(0, 50), (100, 50), (101, 0), (200, 50),
                            (201, 0)])
        bursts = BurstDetector(40, min_duration_ns=50).detect(series)
        assert len(bursts) == 1

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            BurstDetector(0)

    def test_recall_full(self):
        truth = [Burst(0, 10, 0), Burst(100, 110, 0)]
        detected = [Burst(5, 8, 0), Burst(105, 106, 0)]
        assert BurstDetector.recall(detected, truth) == 1.0

    def test_recall_partial(self):
        truth = [Burst(0, 10, 0), Burst(100, 110, 0)]
        detected = [Burst(5, 8, 0)]
        assert BurstDetector.recall(detected, truth) == 0.5

    def test_recall_with_slack(self):
        truth = [Burst(0, 10, 0)]
        detected = [Burst(15, 20, 0)]
        assert BurstDetector.recall(detected, truth) == 0.0
        assert BurstDetector.recall(detected, truth, slack_ns=10) == 1.0

    def test_recall_empty_truth_is_one(self):
        assert BurstDetector.recall([], []) == 1.0


class TestBurstOverlap:
    def test_overlap(self):
        assert Burst(0, 10, 0).overlaps(Burst(5, 15, 0))

    def test_disjoint(self):
        assert not Burst(0, 10, 0).overlaps(Burst(11, 20, 0))

    def test_touching_counts(self):
        assert Burst(0, 10, 0).overlaps(Burst(10, 20, 0))

    def test_duration(self):
        assert Burst(5, 25, 0).duration_ns == 20


@pytest.fixture
def burst_net():
    """Senders h0 (prober), h1, h3 (cross) into receiver h2 at 100 Mb/s.

    Two cross senders can jointly offer 2x the receiver link's rate, so
    genuine queue buildup happens at sw0's port toward h2.
    """
    builder = TopologyBuilder(rate_bps=100 * units.MEGABITS_PER_SEC,
                              delay_ns=10_000,
                              queue_capacity_bytes=64 * 1024)
    net = builder.star(n_hosts=4)
    install_shortest_path_routes(net)
    return net


class TestBurstyTrafficGenerator:
    def test_on_windows_recorded(self, burst_net):
        net = burst_net
        h0, h2 = net.host("h0"), net.host("h2")
        FlowSink(h2, 99)
        flow = Flow(h0, h2, h2.mac, 99, rate_bps=0, packet_bytes=1000)
        generator = BurstyTrafficGenerator(
            flow, burst_rate_bps=100 * units.MEGABITS_PER_SEC,
            on_mean_ns=units.microseconds(300),
            off_mean_ns=units.milliseconds(3),
            rng=net.rng.stream("bursts"))
        generator.start()
        net.run(until_seconds=0.2)
        generator.stop()
        assert len(generator.on_windows) > 5
        assert all(w.duration_ns > 0 for w in generator.on_windows)

    def test_traffic_only_during_on(self, burst_net):
        net = burst_net
        h0, h2 = net.host("h0"), net.host("h2")
        sink = FlowSink(h2, 99)
        flow = Flow(h0, h2, h2.mac, 99, rate_bps=0, packet_bytes=1000)
        generator = BurstyTrafficGenerator(
            flow, burst_rate_bps=50 * units.MEGABITS_PER_SEC,
            on_mean_ns=units.milliseconds(1),
            off_mean_ns=units.milliseconds(5),
            rng=net.rng.stream("bursts"))
        generator.start()
        net.run(until_seconds=0.1)
        generator.stop()
        assert sink.packets_received > 0
        on_time = sum(w.duration_ns for w in generator.on_windows)
        duty = on_time / units.seconds(0.1)
        # sent bytes consistent with the ON duty cycle (loose bound)
        expected = 50e6 * duty * 0.1 / 8
        assert flow.sender.bytes_sent == pytest.approx(expected, rel=0.6)

    def test_deterministic_with_seed(self):
        def run_once():
            builder = TopologyBuilder(
                rate_bps=100 * units.MEGABITS_PER_SEC)
            net = builder.star(3)
            install_shortest_path_routes(net)
            h0, h2 = net.host("h0"), net.host("h2")
            FlowSink(h2, 99)
            flow = Flow(h0, h2, h2.mac, 99, rate_bps=0)
            generator = BurstyTrafficGenerator(
                flow, 50 * units.MEGABITS_PER_SEC,
                units.milliseconds(1), units.milliseconds(5),
                rng=net.rng.stream("bursts"))
            generator.start()
            net.run(until_seconds=0.05)
            return [(w.start_ns, w.end_ns) for w in generator.on_windows]

        assert run_once() == run_once()


class TestTelemetryStream:
    def test_per_hop_series_collected(self, burst_net):
        net = burst_net
        h0, h2 = net.host("h0"), net.host("h2")
        stream = TelemetryStream(h0, h2.mac,
                                 interval_ns=units.microseconds(500))
        from repro.endhost.client import TPPEndpoint
        TPPEndpoint(h2)
        stream.start(first_delay_ns=1)
        net.run(until_seconds=0.02)
        stream.prober.stop()
        assert 1 in stream.queue_series  # switch id 1
        assert len(stream.series_for(1)) > 30

    def test_detects_real_burst(self, burst_net):
        """Cross traffic creates queue spikes; telemetry sees them."""
        net = burst_net
        h0, h1, h2, h3 = (net.host(f"h{i}") for i in range(4))
        FlowSink(h2, 99)
        crosses = [Flow(h, h2, h2.mac, 99,
                        rate_bps=100 * units.MEGABITS_PER_SEC,
                        packet_bytes=1000) for h in (h1, h3)]
        stream = TelemetryStream(h0, h2.mac,
                                 interval_ns=units.microseconds(200))
        from repro.endhost.client import TPPEndpoint
        TPPEndpoint(h2)
        stream.start(first_delay_ns=1)
        for cross in crosses:
            net.sim.schedule(units.milliseconds(5), cross.start)
            net.sim.schedule(units.milliseconds(8), cross.stop)
        net.run(until_seconds=0.05)
        series = stream.series_for(1)
        bursts = BurstDetector(threshold_bytes=5000).detect(series)
        assert len(bursts) >= 1
        # burst roughly where the cross traffic was on
        assert any(units.milliseconds(4) < b.start_ns
                   < units.milliseconds(10) for b in bursts)


class TestCoarsePoller:
    def test_polls_at_interval(self, burst_net):
        net = burst_net
        port = net.switch("sw0").ports[2]
        poller = CoarsePoller(net.sim, port,
                              interval_ns=units.milliseconds(10))
        poller.start()
        net.run(until_seconds=0.105)
        assert len(poller.series) == 10

    def test_misses_sub_interval_burst(self, burst_net):
        """The §2.1 claim: coarse polling cannot see micro-bursts."""
        net = burst_net
        h1, h2, h3 = net.host("h1"), net.host("h2"), net.host("h3")
        FlowSink(h2, 99)
        crosses = [Flow(h, h2, h2.mac, 99,
                        rate_bps=100 * units.MEGABITS_PER_SEC)
                   for h in (h1, h3)]
        port = [p for p in net.switch("sw0").ports
                if p.link.name.endswith("h2")][0]
        poller = CoarsePoller(net.sim, port,
                              interval_ns=units.milliseconds(20))
        poller.start()
        # a 2 ms overload burst placed between two poll instants
        for cross in crosses:
            net.sim.schedule(units.milliseconds(5), cross.start)
            net.sim.schedule(units.milliseconds(7), cross.stop)
        net.run(until_seconds=0.06)
        bursts = BurstDetector(5000).detect(poller.series)
        assert bursts == []
