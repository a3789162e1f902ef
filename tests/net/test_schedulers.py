"""Multi-queue ports: FIFO and strict-priority scheduling."""

from repro import units
from repro.net.device import Device
from repro.net.link import connect
from repro.net.packet import EthernetFrame, RawPayload


class RecordingDevice(Device):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append(frame)


def frame_of(size_bytes, tag=0):
    frame = EthernetFrame(1, 2, 0, RawPayload(size_bytes - 18))
    frame.tag = tag
    return frame


def port_pair(sim, **kwargs):
    a = RecordingDevice(sim, "a")
    b = RecordingDevice(sim, "b")
    port_a, _ = connect(sim, a, b, units.MEGABITS_PER_SEC, delay_ns=0,
                        **kwargs)
    return port_a, b


def served_after_blocker(sim, n_queues, *packet_lists):
    """Queue ``packet_lists[i]`` on queue ``i`` behind a frame already on
    the wire, run the port dry and return the tags in service order."""
    port, receiver = port_pair(sim, n_queues=n_queues)
    port.enqueue(frame_of(100, tag="blocker"), queue_id=n_queues - 1)
    for queue_id, tags in enumerate(packet_lists):
        for tag in tags:
            port.enqueue(frame_of(100, tag=tag), queue_id=queue_id)
    sim.run()
    return [frame.tag for frame in receiver.received[1:]]


class TestSchedulerUnits:
    def test_fifo_empty(self, sim):
        port, receiver = port_pair(sim)
        assert sim.run() == 0
        assert port.tx_frames == 0 and receiver.received == []

    def test_fifo_serves_queue_zero(self, sim):
        assert served_after_blocker(sim, 1, ["a", "b"]) == ["a", "b"]

    def test_priority_prefers_lowest_index(self, sim):
        assert served_after_blocker(sim, 2, ["high"], ["low"]) == [
            "high", "low"]

    def test_priority_falls_through(self, sim):
        assert served_after_blocker(sim, 2, [], ["low"]) == ["low"]

    def test_priority_empty(self, sim):
        assert served_after_blocker(sim, 2, [], []) == []


class TestMultiQueuePort:
    def test_scheduler_follows_queue_count(self, sim):
        # One queue serves in arrival order; more serve by priority.
        assert served_after_blocker(sim, 1, ["x", "y"]) == ["x", "y"]
        assert served_after_blocker(sim, 2, ["y"], ["x"]) == ["y", "x"]

    def test_priority_queue_preempts_between_packets(self, sim):
        port, receiver = port_pair(sim, n_queues=2)
        # Fill the low-priority queue, then add one high-priority frame.
        for index in range(5):
            port.enqueue(frame_of(1000, tag=f"low{index}"), queue_id=1)
        urgent = frame_of(1000, tag="urgent")
        port.enqueue(urgent, queue_id=0)
        sim.run()
        order = [frame.tag for frame in receiver.received]
        # The first low packet was already on the wire; the urgent one
        # goes right after it, ahead of the remaining low ones.
        assert order[1] == "urgent"

    def test_queue_for_clamps(self, sim):
        port, _ = port_pair(sim, n_queues=2)
        assert port.queue_for(7) is port.queues[1]

    def test_single_queue_default_unchanged(self, sim):
        port, receiver = port_pair(sim)
        assert len(port.queues) == 1
        port.enqueue(frame_of(100))
        sim.run()
        assert len(receiver.received) == 1


class TestQueueClassificationInSwitch:
    def test_tos_selects_queue(self):
        from repro.net.packet import Datagram
        from repro.net.routing import install_shortest_path_routes
        from repro.net.topology import Network

        net = Network()
        switch = net.add_switch()
        h0 = net.add_host()
        h1 = net.add_host()
        net.link(h0, switch, units.GIGABITS_PER_SEC)
        net.link(h1, switch, units.GIGABITS_PER_SEC, n_queues=3)
        install_shortest_path_routes(net)
        h1.on_udp_port(9, lambda d, f: None)
        h0.send_datagram(h1.mac, Datagram(h0.ip, h1.ip, 1, 9,
                                          RawPayload(300), tos=2))
        net.run(until_seconds=0.01)
        egress = switch.ports[1]
        assert egress.queues[2].stats.packets_enqueued == 1
        assert egress.queues[0].stats.packets_enqueued == 0

    def test_tcam_set_queue_action_wins(self):
        from repro.asic.tables import TcamRule
        from repro.net.packet import Datagram
        from repro.net.routing import install_shortest_path_routes
        from repro.net.topology import Network

        net = Network()
        switch = net.add_switch()
        h0 = net.add_host()
        h1 = net.add_host()
        net.link(h0, switch, units.GIGABITS_PER_SEC)
        out_port, _ = net.link(h1, switch, units.GIGABITS_PER_SEC,
                               n_queues=2)
        install_shortest_path_routes(net)
        egress_index = [local for local, peer, _ in net.adjacency()["sw0"]
                        if peer == "h1"][0]
        switch.install_tcam_rule(TcamRule(priority=5,
                                          out_port=egress_index,
                                          queue_id=1, dst_mac=h1.mac))
        h1.on_udp_port(9, lambda d, f: None)
        h0.send_datagram(h1.mac, Datagram(h0.ip, h1.ip, 1, 9,
                                          RawPayload(300), tos=0))
        net.run(until_seconds=0.01)
        egress = switch.ports[egress_index]
        assert egress.queues[1].stats.packets_enqueued == 1

    def test_tpp_reads_its_own_queue(self):
        """Queue: namespace resolves against the packet's selected queue."""
        from repro.core.assembler import assemble
        from repro.endhost.client import TPPEndpoint
        from repro.endhost.flows import Flow, FlowSink
        from repro.net.routing import install_shortest_path_routes
        from repro.net.topology import Network

        net = Network()
        switch = net.add_switch()
        hosts = [net.add_host() for _ in range(3)]
        net.link(hosts[0], switch, units.GIGABITS_PER_SEC)
        net.link(hosts[1], switch, units.GIGABITS_PER_SEC)
        net.link(hosts[2], switch, 10 * units.MEGABITS_PER_SEC,
                 n_queues=2)
        install_shortest_path_routes(net)
        h0, h1, h2 = hosts
        # Congest the low-priority queue (tos=1 from h1).
        FlowSink(h2, 99)
        flow = Flow(h1, h2, h2.mac, 99,
                    rate_bps=50 * units.MEGABITS_PER_SEC)
        flow.frame_factory = None
        # Flow datagrams default to tos=0 -> queue 0... send with tos via
        # a custom factory instead:
        from repro.net.packet import ETHERTYPE_IPV4, EthernetFrame

        def low_priority(f, size):
            datagram = f.make_datagram(size)
            datagram.tos = 1
            return EthernetFrame(dst=f.dst_mac, src=f.src.mac,
                                 ethertype=ETHERTYPE_IPV4,
                                 payload=datagram)

        flow.frame_factory = low_priority
        flow.start()
        TPPEndpoint(h2)
        results = []
        endpoint = TPPEndpoint(h0)
        # Probe rides queue 0 (tos 0): it should see ~0 backlog even
        # though queue 1 is congested.
        net.sim.schedule(units.milliseconds(20), lambda: endpoint.send(
            assemble("PUSH [Queue:QueueSize]"), dst_mac=h2.mac,
            on_response=results.append))
        net.sim.schedule(units.milliseconds(21), flow.stop)
        net.run(until_seconds=0.3)
        egress = switch.ports[2]
        assert egress.queues[1].stats.peak_occupancy_bytes > 5_000
        assert results[0].word(0) < 2_000  # queue 0 nearly empty
