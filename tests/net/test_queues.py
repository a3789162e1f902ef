"""Drop-tail byte accounting, as the owning port admits and drains."""

import pytest

from repro import units
from repro.net.device import Device
from repro.net.link import connect
from repro.net.packet import EthernetFrame, RawPayload
from repro.net.queues import DropTailQueue
from repro.sim.simulator import Simulator


class RecordingDevice(Device):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append(frame)


def frame_of(size_bytes: int) -> EthernetFrame:
    # Build a frame whose wire size is exactly size_bytes (>= 64).
    return EthernetFrame(1, 2, 0, RawPayload(size_bytes - 18))


def port_of(capacity_bytes: int = 512 * 1024):
    """A 1 Mb/s port (100 bytes take 800 us) and the device behind it."""
    sim = Simulator()
    sender = RecordingDevice(sim, "a")
    receiver = RecordingDevice(sim, "b")
    port, _ = connect(sim, sender, receiver, units.MEGABITS_PER_SEC,
                      delay_ns=0, queue_capacity_bytes=capacity_bytes)
    return port, receiver


class TestAdmission:
    def test_offer_accepts_until_capacity(self):
        port, _ = port_of(capacity_bytes=300)
        assert port.enqueue(frame_of(100))
        assert port.enqueue(frame_of(100))
        assert port.enqueue(frame_of(100))
        assert not port.enqueue(frame_of(100))

    def test_drop_counted_in_stats(self):
        port, _ = port_of(capacity_bytes=100)
        port.enqueue(frame_of(100))
        port.enqueue(frame_of(100))
        assert port.queue.stats.packets_dropped == 1
        assert port.queue.stats.bytes_dropped == 100

    def test_occupancy_tracks_bytes(self):
        port, _ = port_of()
        port.enqueue(frame_of(100))
        port.enqueue(frame_of(200))
        assert port.queue.occupancy_bytes == 300

    def test_enqueue_stats(self):
        port, _ = port_of()
        port.enqueue(frame_of(100))
        port.enqueue(frame_of(100))
        assert port.queue.stats.packets_enqueued == 2
        assert port.queue.stats.bytes_enqueued == 200

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            DropTailQueue(capacity_bytes=0)

    def test_peak_occupancy(self):
        port, _ = port_of()
        port.enqueue(frame_of(100))
        port.enqueue(frame_of(100))
        port.sim.run()
        assert port.queue.stats.peak_occupancy_bytes == 200


class TestTransmit:
    def test_fifo_order(self):
        port, receiver = port_of()
        first, second = frame_of(100), frame_of(100)
        port.enqueue(first)
        port.enqueue(second)
        port.sim.run()
        assert receiver.received == [first, second]

    def test_in_flight_bytes_stay_in_occupancy(self):
        port, _ = port_of()
        port.enqueue(frame_of(100))
        assert port.queue.occupancy_bytes == 100
        assert port.queue.backlog_bytes == 0
        port.sim.run()
        assert port.queue.occupancy_bytes == 0

    def test_idle_port_sends_nothing(self):
        port, receiver = port_of()
        assert port.sim.run() == 0
        assert port.tx_frames == 0 and receiver.received == []

    def test_backlog_excludes_in_flight(self):
        port, _ = port_of()
        port.enqueue(frame_of(100))
        port.enqueue(frame_of(200))
        assert port.queue.backlog_bytes == 200
        assert port.queue.occupancy_bytes == 300

    def test_len_counts_waiting_packets(self):
        port, _ = port_of()
        for _ in range(3):
            port.enqueue(frame_of(100))
        # The first went straight onto the wire of the idle port.
        assert len(port.queue) == 2
        port.sim.run(until_ns=units.transmission_time_ns(
            100, units.MEGABITS_PER_SEC) + 1)
        assert len(port.queue) == 1
