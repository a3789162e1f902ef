"""Property tests: scheduler invariants.

Whatever arrival pattern the queues see, a scheduler must (a) never pick
an empty queue, (b) be work-conserving (pick *something* whenever any
queue is backlogged), and (c) for strict priority, drain lower-indexed
queues first.
"""

from hypothesis import given, strategies as st

from repro.net.packet import EthernetFrame, RawPayload
from repro.net.queues import DropTailQueue
from repro.net.schedulers import StrictPriorityScheduler


def frame_of(size_bytes):
    return EthernetFrame(1, 2, 0, RawPayload(size_bytes - 18))


arrivals = st.lists(
    st.tuples(st.integers(min_value=0, max_value=2),     # queue index
              st.integers(min_value=64, max_value=1518)),  # size
    min_size=1, max_size=80)

def drain_all(scheduler, queues):
    order = []
    while any(len(queue) for queue in queues):
        index = scheduler.select(queues)
        assert index is not None, "not work-conserving"
        assert len(queues[index]) > 0, "picked an empty queue"
        frame = queues[index].begin_transmit()
        queues[index].transmit_complete(frame)
        order.append((index, frame.size_bytes))
    return order


class TestPriorityProperties:
    @given(arrivals)
    def test_never_picks_empty_and_drains(self, packets):
        queues = [DropTailQueue(10**9) for _ in range(3)]
        for queue_index, size in packets:
            queues[queue_index].offer(frame_of(size))
        order = drain_all(StrictPriorityScheduler(), queues)
        assert len(order) == len(packets)

    @given(arrivals)
    def test_high_priority_served_first(self, packets):
        queues = [DropTailQueue(10**9) for _ in range(3)]
        for queue_index, size in packets:
            queues[queue_index].offer(frame_of(size))
        order = drain_all(StrictPriorityScheduler(), queues)
        # With no new arrivals, the served sequence of queue indexes is
        # non-decreasing: all of queue 0, then 1, then 2.
        indexes = [index for index, _ in order]
        assert indexes == sorted(indexes)
