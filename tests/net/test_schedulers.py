"""Multi-queue ports: FIFO and strict-priority scheduling."""

from repro import units
from repro.net.device import Device
from repro.net.link import connect
from repro.net.packet import EthernetFrame, RawPayload
from repro.net.queues import DropTailQueue
from repro.net.schedulers import (
    FifoScheduler,
    StrictPriorityScheduler,
)


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


def queues_with(*packet_lists):
    queues = []
    for packets in packet_lists:
        queue = DropTailQueue(10**9)
        for packet in packets:
            queue.offer(packet)
        queues.append(queue)
    return queues


class TestSchedulerUnits:
    def test_fifo_empty(self):
        assert FifoScheduler().select(queues_with([])) is None

    def test_fifo_serves_queue_zero(self):
        queues = queues_with([frame_of(100)])
        assert FifoScheduler().select(queues) == 0

    def test_priority_prefers_lowest_index(self):
        queues = queues_with([frame_of(100)], [frame_of(100)])
        assert StrictPriorityScheduler().select(queues) == 0

    def test_priority_falls_through(self):
        queues = queues_with([], [frame_of(100)])
        assert StrictPriorityScheduler().select(queues) == 1

    def test_priority_empty(self):
        assert StrictPriorityScheduler().select(queues_with([], [])) is None


class TestMultiQueuePort:
    def _port_pair(self, sim, **kwargs):
        a = RecordingDevice(sim, "a")
        b = RecordingDevice(sim, "b")
        port_a, _ = connect(sim, a, b, units.MEGABITS_PER_SEC, delay_ns=0,
                            **kwargs)
        return port_a, b

    def test_scheduler_follows_queue_count(self, sim):
        single, _ = self._port_pair(sim)
        assert isinstance(single.scheduler, FifoScheduler)
        multi, _ = self._port_pair(sim, n_queues=2)
        assert isinstance(multi.scheduler, StrictPriorityScheduler)

    def test_priority_queue_preempts_between_packets(self, sim):
        port, receiver = self._port_pair(sim, n_queues=2)
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
        port, _ = self._port_pair(sim, n_queues=2)
        assert port.queue_for(7) is port.queues[1]

    def test_single_queue_default_unchanged(self, sim):
        port, receiver = self._port_pair(sim)
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
