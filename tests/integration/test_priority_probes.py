"""Scheduling telemetry into a protected queue.

An operational question every INT-like system hits: probes that share a
FIFO with the traffic they measure get delayed exactly when the network
is interesting.  With multi-queue ports, one TCAM set-queue rule
classifies TPP frames into a strict-priority queue; these tests compare
probe round-trip times for the shared and protected configurations
against the same standing data queue (the bench version with the printed
table is ``benchmarks/test_ablation_probe_priority.py``).
"""


from repro import units
from repro.asic.tables import TcamRule
from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint
from repro.endhost.flows import Flow, FlowSink
from repro.net.packet import ETHERTYPE_TPP
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import Network

RATE = 100 * units.MEGABITS_PER_SEC


def build(probe_queue):
    """Star with a 2-queue bottleneck port toward the sink; a TCAM rule
    steers TPP frames into ``probe_queue`` (1 = priority, 0 = shared with
    data: note queue 0 is the higher priority class, so 'shared' means
    putting DATA there too via tos)."""
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
    # Data goes to the low-priority queue 1; probes to `probe_queue`.
    switch.install_tcam_rule(TcamRule(
        priority=10, out_port=egress_index, queue_id=1,
        dst_mac=h2.mac, ethertype=0x0800))
    switch.install_tcam_rule(TcamRule(
        priority=20, out_port=egress_index, queue_id=probe_queue,
        dst_mac=h2.mac, ethertype=ETHERTYPE_TPP))
    return net, egress_index


def run_probes(probe_queue):
    net, egress_index = build(probe_queue)
    h0, h1, h2 = (net.host(f"h{i}") for i in range(3))
    FlowSink(h2, 99)
    # Persistent overload of the data queue.
    data = Flow(h1, h2, h2.mac, 99, rate_bps=2 * RATE, packet_bytes=1000)
    data.start()

    endpoint = TPPEndpoint(h0)
    TPPEndpoint(h2)
    program = assemble("PUSH [Queue:QueueSize]")
    rtts = []
    sent_at = {}

    def probe():
        def on_response(result, t0=net.sim.now_ns):
            rtts.append(net.sim.now_ns - t0)
        endpoint.send(program, dst_mac=h2.mac, on_response=on_response)

    from repro.sim.timers import PeriodicTimer
    prober = PeriodicTimer(net.sim, units.milliseconds(5), probe)
    prober.start(units.milliseconds(20))  # after the queue is standing
    net.run(until_seconds=0.5)
    return net, rtts


class TestProbePriority:
    def test_prioritized_probes_return_fast(self):
        net, rtts = run_probes(probe_queue=0)
        assert len(rtts) > 50
        # Queue 0 preempts the standing data queue: sub-millisecond RTT.
        assert max(rtts) < units.milliseconds(2)

    def test_fifo_probes_suffer_data_queueing(self):
        net, rtts_shared = run_probes(probe_queue=1)
        _, rtts_priority = run_probes(probe_queue=0)
        assert len(rtts_shared) > 20
        # Behind a full 512 KiB drop-tail queue at 100 Mb/s the shared
        # probes eat tens of ms of queueing each way.
        median_shared = sorted(rtts_shared)[len(rtts_shared) // 2]
        median_priority = sorted(rtts_priority)[len(rtts_priority) // 2]
        assert median_shared > 10 * median_priority

    def test_probes_still_observe_data_queue_depth(self):
        """Even from the priority queue, a probe can read the data
        queue's depth with an explicit Queue-namespace... via its own
        metadata the probe sees queue 0; the data backlog shows up in
        the port's low-priority queue, checked via the switch."""
        net, rtts = run_probes(probe_queue=0)
        switch = net.switch("sw0")
        egress_index = [local for local, peer, _ in
                        net.adjacency()["sw0"] if peer == "h2"][0]
        port = switch.ports[egress_index]
        assert port.queues[1].stats.peak_occupancy_bytes > 100_000
        assert port.queues[0].stats.peak_occupancy_bytes < 5_000
