"""Drop-tail queue byte accounting."""

import pytest

from repro.net.packet import EthernetFrame, RawPayload
from repro.net.queues import DropTailQueue


def frame_of(size_bytes: int) -> EthernetFrame:
    # Build a frame whose wire size is exactly size_bytes (>= 64).
    return EthernetFrame(1, 2, 0, RawPayload(size_bytes - 18))


class TestAdmission:
    def test_offer_accepts_until_capacity(self):
        queue = DropTailQueue(capacity_bytes=300)
        assert queue.offer(frame_of(100))
        assert queue.offer(frame_of(100))
        assert queue.offer(frame_of(100))
        assert not queue.offer(frame_of(100))

    def test_drop_counted_in_stats(self):
        queue = DropTailQueue(capacity_bytes=100)
        queue.offer(frame_of(100))
        queue.offer(frame_of(100))
        assert queue.stats.packets_dropped == 1
        assert queue.stats.bytes_dropped == 100

    def test_occupancy_tracks_bytes(self):
        queue = DropTailQueue()
        queue.offer(frame_of(100))
        queue.offer(frame_of(200))
        assert queue.occupancy_bytes == 300

    def test_enqueue_stats(self):
        queue = DropTailQueue()
        queue.offer(frame_of(100))
        queue.offer(frame_of(100))
        assert queue.stats.packets_enqueued == 2
        assert queue.stats.bytes_enqueued == 200

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_bytes=0)

    def test_peak_occupancy(self):
        queue = DropTailQueue()
        queue.offer(frame_of(100))
        queue.offer(frame_of(100))
        queue.begin_transmit()
        assert queue.stats.peak_occupancy_bytes == 200


class TestTransmit:
    def test_fifo_order(self):
        queue = DropTailQueue()
        first, second = frame_of(100), frame_of(100)
        queue.offer(first)
        queue.offer(second)
        assert queue.begin_transmit() is first

    def test_in_flight_bytes_stay_in_occupancy(self):
        queue = DropTailQueue()
        frame = frame_of(100)
        queue.offer(frame)
        queue.begin_transmit()
        assert queue.occupancy_bytes == 100
        assert queue.backlog_bytes == 0
        queue.transmit_complete(frame)
        assert queue.occupancy_bytes == 0

    def test_begin_transmit_empty_returns_none(self):
        assert DropTailQueue().begin_transmit() is None

    def test_transmit_complete_without_begin_raises(self):
        queue = DropTailQueue()
        with pytest.raises(RuntimeError):
            queue.transmit_complete(frame_of(100))

    def test_backlog_excludes_in_flight(self):
        queue = DropTailQueue()
        queue.offer(frame_of(100))
        queue.offer(frame_of(200))
        queue.begin_transmit()
        assert queue.backlog_bytes == 200
        assert queue.occupancy_bytes == 300

    def test_len_counts_waiting_packets(self):
        queue = DropTailQueue()
        queue.offer(frame_of(100))
        queue.offer(frame_of(100))
        assert len(queue) == 2
        queue.begin_transmit()
        assert len(queue) == 1
