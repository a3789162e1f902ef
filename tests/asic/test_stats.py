"""Utilization meters and queue averagers."""

import pytest

from repro import units
from repro.asic.stats import QueueAverager, UtilizationMeter


class Counter:
    def __init__(self):
        self.value = 0

    def __call__(self):
        return self.value


class TestUtilizationMeter:
    def test_full_rate_reads_one(self):
        counter = Counter()
        meter = UtilizationMeter(counter, rate_bps=units.MEGABITS_PER_SEC,
                                 alpha=1.0)
        counter.value += 125_000  # 1 Mb in 1 s
        meter.sample(units.seconds(1))
        assert meter.utilization == pytest.approx(1.0)
        assert meter.utilization_milli == 1000

    def test_half_rate(self):
        counter = Counter()
        meter = UtilizationMeter(counter, rate_bps=units.MEGABITS_PER_SEC,
                                 alpha=1.0)
        counter.value += 62_500
        meter.sample(units.seconds(1))
        assert meter.utilization == pytest.approx(0.5)

    def test_ewma_smooths(self):
        counter = Counter()
        meter = UtilizationMeter(counter, rate_bps=units.MEGABITS_PER_SEC,
                                 alpha=0.5)
        counter.value += 125_000
        meter.sample(units.seconds(1))
        assert meter.utilization == pytest.approx(0.5)  # 0 -> halfway to 1
        counter.value += 125_000
        meter.sample(units.seconds(1))
        assert meter.utilization == pytest.approx(0.75)

    def test_initial_count_ignored(self):
        counter = Counter()
        counter.value = 1_000_000  # preexisting bytes must not count
        meter = UtilizationMeter(counter, rate_bps=units.MEGABITS_PER_SEC,
                                 alpha=1.0)
        meter.sample(units.seconds(1))
        assert meter.utilization == 0.0

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            UtilizationMeter(Counter(), 1000, alpha=0.0)

    def test_overload_exceeds_one(self):
        counter = Counter()
        meter = UtilizationMeter(counter, rate_bps=units.MEGABITS_PER_SEC,
                                 alpha=1.0)
        counter.value += 250_000  # 2x line rate offered
        meter.sample(units.seconds(1))
        assert meter.utilization == pytest.approx(2.0)


class TestQueueAverager:
    def test_converges_to_constant(self):
        averager = QueueAverager(lambda: 1000, alpha=0.5)
        for _ in range(20):
            averager.sample()
        assert averager.average_bytes == pytest.approx(1000, abs=2)

    def test_alpha_one_tracks_instantaneous(self):
        values = iter([100, 200, 300])
        averager = QueueAverager(lambda: next(values), alpha=1.0)
        averager.sample()
        averager.sample()
        averager.sample()
        assert averager.average_bytes == 300

    def test_bad_alpha_rejected(self):
        with pytest.raises(ValueError):
            QueueAverager(lambda: 0, alpha=1.5)


class TestSwitchStats:
    def test_sampler_updates_port_stats(self, single_switch_net):
        net = single_switch_net
        switch = net.switch("sw0")
        stats = switch.start_stats(interval_ns=units.milliseconds(1),
                                   alpha=1.0)
        # Saturate the sw0 -> h1 link for 50 ms.
        from repro.endhost.flows import Flow, FlowSink
        h0, h1 = net.host("h0"), net.host("h1")
        sink = FlowSink(h1, 99)
        flow = Flow(h0, h1, h1.mac, 99, rate_bps=units.GIGABITS_PER_SEC)
        flow.start()
        net.run(until_seconds=0.05)
        flow.stop()
        port_stats = stats.port(1)  # toward h1
        assert port_stats.rx_utilization.utilization > 0.5
        assert port_stats.tx_utilization.utilization > 0.5

    def test_stop_freezes(self, single_switch_net):
        net = single_switch_net
        switch = net.switch("sw0")
        stats = switch.start_stats(interval_ns=units.milliseconds(1))
        net.run(until_seconds=0.01)
        stats.stop()
        frozen = stats.port(0).rx_utilization.utilization
        net.run(until_seconds=0.02)
        assert stats.port(0).rx_utilization.utilization == frozen


class TestFastpathSurface:
    """Cache/accessor counters exposed via switch stats and the trace."""

    def _probe(self, net, n=3):
        from repro.core.assembler import assemble
        from repro.endhost.client import TPPEndpoint
        h0, h1 = net.host("h0"), net.host("h1")
        client = TPPEndpoint(h0)
        TPPEndpoint(h1)
        program = assemble("PUSH [Queue:QueueSize]", hops=2)
        for _ in range(n):
            client.send(program, dst_mac=h1.mac)
        net.run(until_seconds=0.01)

    def test_switch_fastpath_stats(self, single_switch_net):
        net = single_switch_net
        switch = net.switch("sw0")
        self._probe(net)
        stats = switch.fastpath_stats()
        assert stats["compile_enabled"] is True
        assert stats["misses"] == 1          # compiled once...
        assert stats["hits"] >= 2            # ...then served from cache
        assert stats["accessor_resolutions"] >= 1

    def test_sampler_exposes_fastpath(self, single_switch_net):
        net = single_switch_net
        switch = net.switch("sw0")
        sampler = switch.start_stats()
        self._probe(net)
        assert sampler.fastpath["misses"] == 1
        assert sampler.fastpath == switch.fastpath_stats()

    def test_emit_fastpath_summary_trace_record(self, single_switch_net):
        net = single_switch_net
        switch = net.switch("sw0")
        self._probe(net)
        snapshot = switch.emit_fastpath_summary()
        records = net.trace.records(kind="fastpath.summary")
        assert len(records) == 1
        assert records[0].source == "sw0"
        assert records[0].detail["hits"] == snapshot["hits"]
        assert records[0].detail["misses"] == 1

    def test_fastpath_report_table(self, single_switch_net):
        from repro.analysis.reporting import fastpath_report
        net = single_switch_net
        self._probe(net)
        table = fastpath_report([net.switch("sw0")])
        assert "sw0" in table
        assert "hits" in table
        assert fastpath_report([]) == "(nothing to report)"
