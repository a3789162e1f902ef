"""E14: RCP* convergence under seeded link loss (0 / 1 / 5 %).

The paper's control loop assumes probes come back; this sweep injects
link-level loss and measures what the reliability layer (per-probe
deadlines, RTT-adaptive timeouts, hold-then-decay on missed collects)
preserves of the §2.2 behaviour.  Expected shape: the converged rate
ratio stays near 1.0 across the sweep — lost collects are simply skipped
samples — while the miss/timeout counters grow with the loss rate,
showing the losses were real and handled rather than absent.
"""

from __future__ import annotations

from bench_utils import banner, run_once

from repro import units
from repro.analysis.reporting import counters_table, format_table
from repro.apps.rcp import RCPStarFlow, RCPStarTask
from repro.control.agent import ControlPlaneAgent
from repro.core.memory_map import MemoryMap
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder
from repro.sim.trace import snapshot

CAPACITY = 10 * units.MEGABITS_PER_SEC
DURATION_S = 6.0
LOSS_RATES = (0.0, 0.01, 0.05)


def run_at_loss(loss_rate):
    builder = TopologyBuilder(rate_bps=10 * CAPACITY,
                              delay_ns=units.milliseconds(1),
                              trace_enabled=False)
    net = builder.dumbbell(n_pairs=1, bottleneck_bps=CAPACITY)
    install_shortest_path_routes(net)
    impaired = net.impair_links(loss_rate=loss_rate)
    for switch in net.switches.values():
        switch.start_stats(interval_ns=units.milliseconds(5))
    agent = ControlPlaneAgent(list(net.switches.values()),
                              memory_map=MemoryMap.standard())
    task = RCPStarTask(agent)
    flow = RCPStarFlow(task, 0, net.host("h0"), net.host("h1"),
                       net.host("h1").mac, capacity_bps=CAPACITY,
                       rtt_s=0.02, max_hops=3)
    flow.start()
    net.run(until_seconds=DURATION_S)

    goodput = flow.sink.goodput_bps(units.seconds(DURATION_S - 2),
                                    units.seconds(DURATION_S))
    lossy_links = [port.link for device in net.all_devices()
                   for port in device.ports
                   if port.link.frames_impaired_lost]
    return {
        "loss_rate": loss_rate,
        "impaired_links": impaired,
        "rate_ratio": flow.flow.rate_bps / CAPACITY,
        "goodput_ratio": goodput / CAPACITY,
        "collects_missed": flow.collects_missed,
        "collects_rejected": flow.collects_rejected,
        "timeouts": flow.endpoint.timeouts,
        "pending": flow.endpoint.pending_count,
        "rtt_ms": flow.endpoint.rtt_ewma_ns / 1e6,
        "report": "\n\n".join((
            counters_table({link.name: snapshot(link)
                            for link in lossy_links},
                           title="Link impairments"),
            counters_table({flow.endpoint.host.name:
                            snapshot(flow.endpoint)},
                           title="Probe reliability"))),
    }


def run_experiment():
    return [run_at_loss(rate) for rate in LOSS_RATES]


def test_e14_rcp_convergence_under_loss(benchmark):
    results = run_once(benchmark, run_experiment)

    banner("E14: RCP* single-flow convergence vs injected link loss")
    print(format_table(
        ["loss", "R/C final", "goodput/C", "collects missed", "timeouts",
         "pending", "srtt (ms)"],
        [[f"{r['loss_rate']:.0%}", f"{r['rate_ratio']:.3f}",
          f"{r['goodput_ratio']:.3f}", r["collects_missed"],
          r["timeouts"], r["pending"], f"{r['rtt_ms']:.2f}"]
         for r in results]))
    print()
    print(results[-1]["report"])

    clean, one_pct, five_pct = results
    for r in results:
        # Convergence survives the sweep: rate bounded and near capacity.
        assert 0.75 < r["rate_ratio"] <= 1.05
        assert r["goodput_ratio"] > 0.6
        # Deadlines kept the pending table drained.
        assert r["pending"] < 32
    # The losses were real, monotone with the injected rate ...
    assert clean["collects_missed"] == 0
    assert 0 < one_pct["collects_missed"] < five_pct["collects_missed"]
    # ... and the endpoint's expiries cover every missed collect (plus
    # lost fire-and-forget update probes, which also carry deadlines).
    assert five_pct["timeouts"] >= five_pct["collects_missed"]
