"""Utilization meters and queue averagers."""

import json

import pytest

from repro import units
from repro.analysis.reporting import counters_table
from repro.asic.stats import QueueAverager, UtilizationMeter
from repro.sim.trace import snapshot


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

    def test_port_added_after_start_reads_zero_until_next_tick(self):
        """A port linked after ``start_stats`` reads like an unsampled
        switch (utilization 0) until the next tick adopts it."""
        from repro.core.assembler import assemble
        from repro.endhost.client import TPPEndpoint
        from repro.net.routing import install_shortest_path_routes
        from repro.net.topology import Network

        net = Network()
        switch = net.add_switch("sw0")
        h0, h1 = net.add_host("h0"), net.add_host("h1")
        net.link(h0, switch, units.GIGABITS_PER_SEC, 1_000)
        stats = switch.start_stats(interval_ns=units.milliseconds(1))
        net.link(h1, switch, units.GIGABITS_PER_SEC, 1_000)
        install_shortest_path_routes(net)
        client = TPPEndpoint(h0)
        TPPEndpoint(h1)
        program = assemble("PUSH [Link:RX-Utilization]\n"
                           "PUSH [Link:TX-Utilization]\n"
                           "PUSH [Queue:AvgQueueSize]")
        results = []
        client.send(program, dst_mac=h1.mac, on_response=results.append)
        net.run(until_seconds=0.0005)
        assert stats.port(1) is None
        assert [r.tpp.words()[:3] for r in results] == [[0, 0, 0]]
        net.run(until_seconds=0.0015)
        assert stats.port(1) is not None
        client.send(program, dst_mac=h1.mac, on_response=results.append)
        net.run(until_seconds=0.002)
        assert len(results) == 2

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
        """With the sampler running, the fast-path counters are the
        switch's snapshot of its TCPU, cache and MMU."""
        net = single_switch_net
        switch = net.switch("sw0")
        switch.start_stats()
        self._probe(net)
        stats = switch.fastpath_stats()
        assert stats["misses"] == 1
        assert stats == snapshot(switch.tcpu, switch.tcpu.cache, switch.mmu)

    def test_fastpath_snapshot_is_json_and_stable(self, single_switch_net):
        net = single_switch_net
        switch = net.switch("sw0")
        self._probe(net)
        first = switch.fastpath_stats()
        assert json.loads(json.dumps(first))["misses"] == 1
        assert first["hits"] == switch.tcpu.cache.hits
        assert switch.fastpath_stats() == first  # reading changes nothing

    def test_fastpath_counters_table(self, single_switch_net):
        net = single_switch_net
        self._probe(net)
        table = counters_table({"sw0": net.switch("sw0").fastpath_stats()},
                               title="Execution fast path")
        lines = table.splitlines()
        assert lines[0] == "Execution fast path"
        assert "sw0" in lines[1]
        hits = [line for line in lines if line.startswith("hits ")]
        assert hits and hits[0].split("|")[1].strip() == str(
            net.switch("sw0").tcpu.cache.hits)
