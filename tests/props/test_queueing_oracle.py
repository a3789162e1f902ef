"""Exact queueing identities the port must satisfy, checked against theory.

- Idle path: a lone frame over ``linear(n)`` takes exactly
  Σ links (serialisation + propagation) + n × the switch pipeline latency.
- Little's law as a sample-path identity, per queue, over a run that
  starts and ends empty: Σ over admitted frames of (transmission start −
  admission) equals ∫ (frames waiting) dt.  The left side is read from
  when each frame is admitted and when it leaves the queue for the wire;
  the right side from the queue's length at every instant it can change.
"""

from hypothesis import given, settings, strategies as st

from repro import units
from repro.asic.switch import DEFAULT_PIPELINE_LATENCY_NS
from repro.endhost.flows import Flow, FlowSink
from repro.net.device import Device
from repro.net.link import connect
from repro.net.packet import Datagram, EthernetFrame, RawPayload
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder
from repro.sim.simulator import Simulator


class Sink(Device):
    def receive(self, frame, in_port):
        pass


def one_way_latency(n_switches, rate_bps, delay_ns, payload_bytes):
    """Send one datagram over an idle ``linear(n)``: (latency, frame)."""
    net = TopologyBuilder(rate_bps=rate_bps, delay_ns=delay_ns).linear(
        n_switches)
    install_shortest_path_routes(net)
    h0, h1 = net.host("h0"), net.host("h1")
    arrivals = []
    h1.on_udp_port(9, lambda datagram, frame: arrivals.append(
        (net.sim.now_ns, frame)))
    h0.send_datagram(h1.mac, Datagram(h0.ip, h1.ip, 1, 9,
                                      RawPayload(payload_bytes)))
    net.sim.run()
    [(arrived_ns, frame)] = arrivals
    return arrived_ns, frame


def idle_path_ns(n_switches, rate_bps, delay_ns, size_bytes):
    links = n_switches + 1
    serialisation = -(-size_bytes * 8 * units.SECONDS // rate_bps)
    return (links * (serialisation + delay_ns)
            + n_switches * DEFAULT_PIPELINE_LATENCY_NS)


class TestIdlePath:
    def test_linear3_at_one_gigabit(self):
        latency, frame = one_way_latency(3, units.GIGABITS_PER_SEC, 1_000,
                                         1000)
        assert frame.size_bytes == 1046
        assert latency == idle_path_ns(3, units.GIGABITS_PER_SEC, 1_000,
                                       1046) == 38_972

    @given(st.integers(min_value=1, max_value=6),
           st.sampled_from([10 * units.MEGABITS_PER_SEC,
                            100 * units.MEGABITS_PER_SEC,
                            units.GIGABITS_PER_SEC,
                            2_500 * units.MEGABITS_PER_SEC,
                            10 * units.GIGABITS_PER_SEC]),
           st.integers(min_value=0, max_value=50_000),
           st.integers(min_value=0, max_value=1472))
    @settings(max_examples=40)
    def test_latency_is_the_sum_of_its_parts(self, n_switches, rate_bps,
                                             delay_ns, payload_bytes):
        latency, frame = one_way_latency(n_switches, rate_bps, delay_ns,
                                         payload_bytes)
        assert latency == idle_path_ns(n_switches, rate_bps, delay_ns,
                                       frame.size_bytes)


class QueueLedger:
    """Both sides of Little's law for every queue of one port, observed
    through the port's two entry points (the only places a queue's length
    changes), shadowed on the instance: ``enqueue``, which admits a frame
    and on an idle port starts it, and ``_start_next``, the start event
    that runs while frames wait."""

    def __init__(self, port):
        self.port = port
        self.sim = port.sim
        n = len(port.queues)
        self.area = [0] * n          # ∫ len(queue) dt, per queue
        self.waits = [0] * n         # Σ (start − admission), per queue
        self.admitted_at = {}        # frame uid -> (queue index, time)
        self.started = 0
        self._last_ns = 0
        enqueue, start_next = port.enqueue, port._start_next

        def traced_enqueue(frame, queue_id=0):
            self._integrate()
            accepted = enqueue(frame, queue_id)
            if accepted:
                index = port.queues.index(port.queue_for(queue_id))
                self.admitted_at[frame.uid] = (index, self.sim.now_ns)
                if frame not in port.queues[index].waiting:
                    self._start(frame)  # idle port: straight to the wire
            return accepted

        def traced_start_next():
            self._integrate()
            heads = [q.waiting[0] if q.waiting else None
                     for q in port.queues]
            start_next()
            for head, q in zip(heads, port.queues):
                if head is not None and (not q.waiting
                                         or q.waiting[0] is not head):
                    self._start(head)

        port.enqueue = traced_enqueue
        port._start_next = traced_start_next

    def _integrate(self):
        now = self.sim.now_ns
        for index, queue in enumerate(self.port.queues):
            self.area[index] += len(queue) * (now - self._last_ns)
        self._last_ns = now

    def _start(self, frame):
        index, admitted = self.admitted_at.pop(frame.uid)
        self.waits[index] += self.sim.now_ns - admitted
        self.started += 1


def assert_littles_law(ledgers):
    for ledger in ledgers:
        assert not ledger.admitted_at, "a frame never left its queue"
        assert not any(len(queue) for queue in ledger.port.queues)
        assert ledger.waits == ledger.area


class TestLittlesLaw:
    def test_congested_dumbbell(self):
        """Three 8 Mb/s flows into a 10 Mb/s bottleneck with a 30 kB
        buffer: the queue builds, drops, then drains once they stop."""
        net = TopologyBuilder(seed=1, queue_capacity_bytes=30_000).dumbbell(
            3, 10 * units.MEGABITS_PER_SEC)
        install_shortest_path_routes(net)
        ledgers = [QueueLedger(port) for device in net.all_devices()
                   for port in device.ports]
        flows = []
        for index in range(3):
            sender = net.host(f"h{index}")
            receiver = net.host(f"h{index + 3}")
            FlowSink(receiver, 7000)
            flow = Flow(sender, receiver, receiver.mac, 7000,
                        8 * units.MEGABITS_PER_SEC,
                        packet_bytes=700 + 150 * index)
            flow.start()
            flows.append(flow)
        net.sim.run(until_ns=units.milliseconds(100))
        for flow in flows:
            flow.stop()
        net.sim.run()
        bottleneck = net.switch("swL").ports[0]
        assert bottleneck.queue.stats.packets_dropped > 0
        assert sum(ledger.started for ledger in ledgers) > 500
        assert max(max(ledger.area) for ledger in ledgers) > 0
        assert_littles_law(ledgers)

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=20_000),
                              st.integers(min_value=0, max_value=2),
                              st.integers(min_value=64, max_value=1518)),
                    max_size=60),
           st.integers(min_value=2_000, max_value=20_000))
    def test_strict_priority_port(self, arrivals, capacity_bytes):
        """Random arrivals into a three-queue port, drops included."""
        sim = Simulator()
        port, _ = connect(sim, Sink(sim, "a"), Sink(sim, "b"),
                          100 * units.MEGABITS_PER_SEC, delay_ns=0,
                          queue_capacity_bytes=capacity_bytes, n_queues=3)
        ledger = QueueLedger(port)
        for at_ns, queue_id, size in arrivals:
            frame = EthernetFrame(1, 2, 0, RawPayload(size - 18))
            sim.schedule_at(at_ns, port.enqueue, frame, queue_id)
        sim.run()
        assert_littles_law([ledger])
