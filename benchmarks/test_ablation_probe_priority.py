"""E13 (ablation): protecting telemetry with egress scheduling.

TPPs "are subject to congestion, or configured access control policies"
(§3.3) — probes share the queues of the traffic they measure, so their
*timeliness* degrades exactly when the network gets interesting.  With
multi-queue ports (Figure 3's scheduler block), one TCAM set-queue rule
classifies TPP frames into a strict-priority queue.

This ablation measures probe round-trip time against a standing data
queue in both configurations.  Expected shape: shared-FIFO probes eat the
full data queueing delay (tens of ms here); prioritized probes return in
microseconds while still reading the congested port's state.
"""

from __future__ import annotations

from bench_utils import banner, run_once

from repro import units
from repro.analysis.reporting import format_table
from repro.analysis.timeseries import TimeSeries
from repro.asic.tables import TcamRule
from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint
from repro.endhost.flows import Flow, FlowSink
from repro.net.packet import ETHERTYPE_TPP
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import Network
from repro.sim.timers import PeriodicTimer

RATE = 100 * units.MEGABITS_PER_SEC
DURATION_S = 1.0


def run_variant(probe_queue: int):
    """probe_queue 0 = protected strict-priority class; 1 = shared with
    the (overloaded) data class."""
    net = Network(seed=9, trace_enabled=False)
    switch = net.add_switch()
    h0 = net.add_host()   # prober
    h1 = net.add_host()   # data sender
    h2 = net.add_host()   # sink
    net.link(h0, switch, units.GIGABITS_PER_SEC)
    net.link(h1, switch, units.GIGABITS_PER_SEC)
    net.link(h2, switch, RATE, n_queues=2)
    install_shortest_path_routes(net)
    egress_index = [local for local, peer, _ in net.adjacency()["sw0"]
                    if peer == "h2"][0]
    switch.install_tcam_rule(TcamRule(
        priority=10, out_port=egress_index, queue_id=1,
        dst_mac=h2.mac, ethertype=0x0800))
    switch.install_tcam_rule(TcamRule(
        priority=20, out_port=egress_index, queue_id=probe_queue,
        dst_mac=h2.mac, ethertype=ETHERTYPE_TPP))

    FlowSink(h2, 99)
    data = Flow(h1, h2, h2.mac, 99, rate_bps=2 * RATE, packet_bytes=1000)
    data.start()

    endpoint = TPPEndpoint(h0)
    TPPEndpoint(h2)
    program = assemble("PUSH [Queue:QueueSize]")
    rtts = TimeSeries("rtt")

    def probe():
        def on_response(result, t0=net.sim.now_ns):
            rtts.append(net.sim.now_ns, net.sim.now_ns - t0)
        endpoint.send(program, dst_mac=h2.mac, on_response=on_response)

    prober = PeriodicTimer(net.sim, units.milliseconds(5), probe)
    prober.start(units.milliseconds(50))  # once the queue is standing
    net.run(until_seconds=DURATION_S)

    port = switch.ports[egress_index]
    return {
        "rtt_p50_us": rtts.percentile(0.5) / 1000,
        "rtt_p99_us": rtts.percentile(0.99) / 1000,
        "responses": len(rtts),
        "data_queue_peak_kb":
            port.queues[1].stats.peak_occupancy_bytes / 1024,
    }


def run_experiment():
    return {
        "shared FIFO with data": run_variant(1),
        "strict-priority class": run_variant(0),
    }


def test_ablation_probe_scheduling(benchmark):
    result = run_once(benchmark, run_experiment)

    banner("Ablation E13: probe timeliness vs egress scheduling "
           "(standing data queue)")
    rows = [[name, data["responses"], f"{data['rtt_p50_us']:.0f}",
             f"{data['rtt_p99_us']:.0f}",
             f"{data['data_queue_peak_kb']:.0f}"]
            for name, data in result.items()]
    print(format_table(
        ["probe class", "responses", "RTT p50 (us)", "RTT p99 (us)",
         "data queue peak (KiB)"], rows))

    shared = result["shared FIFO with data"]
    protected = result["strict-priority class"]
    # The congestion being measured is identical in both runs...
    assert shared["data_queue_peak_kb"] > 100
    assert protected["data_queue_peak_kb"] > 100
    # ... but shared probes pay the data queue's delay; protected ones
    # return orders of magnitude faster.
    assert shared["rtt_p50_us"] > 10_000      # tens of ms
    assert protected["rtt_p50_us"] < 1_000    # sub-ms
    assert shared["rtt_p50_us"] > 20 * protected["rtt_p50_us"]
    assert protected["responses"] >= shared["responses"]
