"""Property tests: queue byte conservation under arbitrary op sequences."""

from hypothesis import given, strategies as st

from repro import units
from repro.net.device import Device
from repro.net.link import connect
from repro.net.packet import EthernetFrame, RawPayload
from repro.sim.simulator import Simulator

sizes = st.integers(min_value=64, max_value=1518)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), sizes),
        st.tuples(st.just("drain"), st.just(0)),
    ),
    max_size=60,
)

#: A drain step lets one maximum-size frame's serialization time pass.
RATE_BPS = units.GIGABITS_PER_SEC
DRAIN_NS = units.transmission_time_ns(1518, RATE_BPS)


class Sink(Device):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append(frame)


def frame_of(size_bytes):
    return EthernetFrame(1, 2, 0, RawPayload(size_bytes - 18))


def port_of(capacity_bytes):
    sim = Simulator()
    sink = Sink(sim, "b")
    port, _ = connect(sim, Sink(sim, "a"), sink, RATE_BPS, delay_ns=0,
                      queue_capacity_bytes=capacity_bytes)
    return port, sink


class TestQueueInvariants:
    @given(operations, st.integers(min_value=1000, max_value=20000))
    def test_byte_conservation(self, ops, capacity):
        """enqueued == departed + still_queued, and occupancy never
        exceeds capacity."""
        port, _ = port_of(capacity)
        queue = port.queue
        for op, size in ops:
            if op == "offer":
                port.enqueue(frame_of(size))
            else:
                port.sim.run(until_ns=port.sim.now_ns + DRAIN_NS)
            assert queue.occupancy_bytes <= capacity
            assert queue.occupancy_bytes >= 0
        stats = queue.stats
        assert (stats.bytes_enqueued
                == port.tx_bytes + queue.occupancy_bytes)

    @given(operations)
    def test_drop_accounting(self, ops):
        port, _ = port_of(5000)
        offered_bytes = 0
        for op, size in ops:
            if op == "offer":
                frame = frame_of(size)
                offered_bytes += frame.size_bytes
                port.enqueue(frame)
        stats = port.queue.stats
        assert stats.bytes_enqueued + stats.bytes_dropped == offered_bytes

    @given(st.lists(sizes, max_size=40))
    def test_fifo_order_preserved(self, packet_sizes):
        port, sink = port_of(10**9)
        frames = [frame_of(size) for size in packet_sizes]
        for frame in frames:
            port.enqueue(frame)
        port.sim.run()
        assert sink.received == frames
