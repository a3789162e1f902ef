"""Property tests: the port's strict-priority service.

Whatever arrival pattern the queues see, a port must (a) never serve an
empty queue, (b) be work-conserving (keep the wire busy whenever any
queue is backlogged), and (c) with more than one queue, drain
lower-indexed queues first.
"""

from hypothesis import given, strategies as st

from repro import units
from repro.net.device import Device
from repro.net.link import connect
from repro.net.packet import EthernetFrame, RawPayload
from repro.sim.simulator import Simulator

RATE_BPS = units.GIGABITS_PER_SEC


class Sink(Device):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append((self.sim.now_ns, frame))


def frame_of(size_bytes):
    return EthernetFrame(1, 2, 0, RawPayload(size_bytes - 18))


arrivals = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),     # queue index
              st.integers(min_value=64, max_value=1518)),  # size
    min_size=1, max_size=80)


def drain_all(packets):
    """Queue ``packets`` behind a frame already on the wire of a
    three-queue port, run it dry, and return the service order as
    ``(queue index, size)``."""
    sim = Simulator()
    sink = Sink(sim, "b")
    port, _ = connect(sim, Sink(sim, "a"), sink, RATE_BPS, delay_ns=0,
                      queue_capacity_bytes=10**9, n_queues=3)
    port.enqueue(frame_of(64), queue_id=2)
    queue_of = {}
    for queue_index, size in packets:
        frame = frame_of(size)
        queue_of[frame.uid] = queue_index
        port.enqueue(frame, queue_id=queue_index)
    sim.run()
    order = []
    wire_free_at = 0
    for arrival_ns, frame in sink.received:
        # Work-conserving: each frame starts the instant the wire frees.
        assert arrival_ns == wire_free_at + units.transmission_time_ns(
            frame.size_bytes, RATE_BPS), "not work-conserving"
        wire_free_at = arrival_ns
        if frame.uid in queue_of:
            order.append((queue_of[frame.uid], frame.size_bytes))
    assert not any(len(queue) for queue in port.queues)
    return order


class TestPriorityProperties:
    @given(arrivals)
    def test_never_picks_empty_and_drains(self, packets):
        order = drain_all(packets)
        assert len(order) == len(packets)

    @given(arrivals)
    def test_high_priority_served_first(self, packets):
        order = drain_all(packets)
        # With no new arrivals, the served sequence of queue indexes is
        # non-decreasing: all of queue 0, then 1, then 2.
        indexes = [index for index, _ in order]
        assert indexes == sorted(indexes)
