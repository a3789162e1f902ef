"""RCP* — the end-host RCP (§2.2)."""

import pytest

from repro import units
from repro.apps.rcp import RCPStarFlow, RCPStarTask
from repro.control.agent import ControlPlaneAgent
from repro.core.memory_map import MemoryMap
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder

CAPACITY = 10 * units.MEGABITS_PER_SEC
RTT_S = 0.02


def build(n_pairs=2):
    builder = TopologyBuilder(rate_bps=10 * CAPACITY,
                              delay_ns=units.milliseconds(1))
    net = builder.dumbbell(n_pairs=n_pairs, bottleneck_bps=CAPACITY)
    install_shortest_path_routes(net)
    for switch in net.switches.values():
        switch.start_stats(interval_ns=units.milliseconds(5))
    agent = ControlPlaneAgent(list(net.switches.values()),
                              memory_map=MemoryMap.standard())
    task = RCPStarTask(agent)
    return net, task


def make_flow(net, task, index, n_pairs):
    src = net.host(f"h{index}")
    dst = net.host(f"h{index + n_pairs}")
    return RCPStarFlow(task, index, src, dst, dst.mac,
                       capacity_bps=CAPACITY, rtt_s=RTT_S, max_hops=3)


class TestSetup:
    def test_rate_register_initialized_to_capacity(self):
        net, task = build()
        for switch in net.switches.values():
            for port in switch.ports:
                rate = task.rate_register_bps(switch, port.index)
                assert rate == pytest.approx(port.rate_bps, rel=0.01)

    def test_mnemonics_registered(self):
        _, task = build()
        assert task.memory_map.resolve("Link:RCP-RateRegister") == (
            task.rate_vaddr)
        assert task.memory_map.resolve("Link:RCP-LastUpdate") == (
            task.ts_vaddr)


class TestSingleFlow:
    def test_flow_ramps_to_capacity(self):
        net, task = build(n_pairs=1)
        flow = make_flow(net, task, 0, 1)
        flow.start()
        net.run(until_seconds=2.0)
        assert flow.flow.rate_bps == pytest.approx(CAPACITY, rel=0.15)
        goodput = flow.sink.goodput_bps(units.seconds(1), units.seconds(2))
        assert goodput == pytest.approx(CAPACITY, rel=0.2)

    def test_collect_phase_samples_links(self):
        net, task = build(n_pairs=1)
        flow = make_flow(net, task, 0, 1)
        flow.start()
        net.run(until_seconds=0.5)
        assert len(flow.links) == 2  # swL and swR hops
        bottleneck = flow.links[0]
        assert bottleneck.samples > 10
        assert bottleneck.rate_register_bps > 0

    def test_updates_written_to_switch(self):
        net, task = build(n_pairs=1)
        flow = make_flow(net, task, 0, 1)
        flow.start()
        net.run(until_seconds=1.0)
        assert flow.updates_sent > 10
        # The bottleneck register moved away from its initial value at
        # some point (it has been written by a TPP).
        series = flow.rate_series
        assert len(series) > 0


class TestFairness:
    def test_two_flows_converge_to_half(self):
        net, task = build(n_pairs=2)
        flows = [make_flow(net, task, i, 2) for i in range(2)]
        flows[0].start()
        net.sim.schedule(units.seconds(2), flows[1].start)
        net.run(until_seconds=6.0)
        register = task.rate_register_bps(net.switch("swL"), 0)
        assert register == pytest.approx(CAPACITY / 2, rel=0.25)
        goodputs = [f.sink.goodput_bps(units.seconds(5), units.seconds(6))
                    for f in flows]
        assert goodputs[0] == pytest.approx(goodputs[1], rel=0.15)

    def test_departure_releases_bandwidth(self):
        net, task = build(n_pairs=2)
        flows = [make_flow(net, task, i, 2) for i in range(2)]
        for flow in flows:
            flow.start()
        net.sim.schedule(units.seconds(3), flows[1].stop)
        net.run(until_seconds=6.0)
        register = task.rate_register_bps(net.switch("swL"), 0)
        assert register > 0.7 * CAPACITY

    def test_update_race_resolved_by_cstore(self):
        """Two flows share the register; updates do not corrupt it (it
        stays in a sane range) and both flows keep making progress."""
        net, task = build(n_pairs=2)
        flows = [make_flow(net, task, i, 2) for i in range(2)]
        for flow in flows:
            flow.start()
        net.run(until_seconds=3.0)
        register = task.rate_register_bps(net.switch("swL"), 0)
        assert 0 < register <= CAPACITY
        assert all(f.updates_sent > 0 for f in flows)


class TestUpdateTemplate:
    """Figure 4: the update TPP's instructions never change, only the
    packet-memory words its symbols initialise — so the assembler runs
    once per program per flow, not once per update."""

    N_PAIRS = 2

    def run_dumbbell(self, monkeypatch, full_assemble=False):
        """One run; returns (assemble calls, flows, observable state)."""
        import repro.apps.rcp as rcp
        from repro.core.assembler import AssembledProgram

        calls = []
        real_assemble = rcp.assemble

        def counting_assemble(*args, **kwargs):
            calls.append(args[0])
            return real_assemble(*args, **kwargs)

        monkeypatch.setattr(rcp, "assemble", counting_assemble)
        net, task = build(n_pairs=self.N_PAIRS)
        if full_assemble:
            # The reference: every "rebind" re-runs the whole assembler.
            monkeypatch.setattr(
                AssembledProgram, "rebind",
                lambda program, symbols: counting_assemble(
                    program.source, memory_map=task.memory_map,
                    symbols=symbols))
        flows = [make_flow(net, task, i, self.N_PAIRS)
                 for i in range(self.N_PAIRS)]
        wire = []
        for host in net.hosts.values():
            endpoint = getattr(host, "tpp", None)
            if endpoint is not None:
                endpoint.add_tap(
                    lambda tpp, frame: wire.append(("rx", tpp.encode())))
        for flow in flows:
            collect = flow._on_collect
            flow.prober.on_result = (
                lambda result, collect=collect: (
                    wire.append(("echo", result.tpp.encode())),
                    collect(result)))
            flow.start()
        net.run(until_seconds=1.5)
        state = {
            "sram": [sw.mmu.sram_image() for sw in net.switches.values()],
            "registers": [
                (sw.mmu.peek_link_scratch(port.index, 0),
                 sw.mmu.peek_link_scratch(port.index, 1))
                for sw in net.switches.values() for port in sw.ports],
            "rates": [flow.rate_series.values() for flow in flows],
            "wire": wire,
        }
        return calls, flows, state

    def test_assembler_runs_twice_per_flow(self, monkeypatch):
        calls, flows, _ = self.run_dumbbell(monkeypatch)
        assert sum(flow.updates_sent for flow in flows) >= 50
        assert len(calls) == 2 * len(flows)

    def test_rebound_updates_equal_freshly_assembled_ones(self, monkeypatch):
        _, flows, rebound = self.run_dumbbell(monkeypatch)
        with monkeypatch.context() as patch:
            calls, reference_flows, reference = self.run_dumbbell(
                patch, full_assemble=True)
        assert len(calls) > 50           # the reference really re-assembles
        assert ([flow.updates_sent for flow in flows]
                == [flow.updates_sent for flow in reference_flows])
        assert any(kind == "rx" for kind, _ in rebound["wire"])
        assert rebound == reference
