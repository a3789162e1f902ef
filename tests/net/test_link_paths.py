"""The two ways a frame crosses a link: its arrival scheduled when
serialization starts (an up, unimpaired link with a receiver), or decided
when serialization ends (every other link) — and the hand-over between
them when a link fails or is impaired under a frame."""

import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.net.device import Device
from repro.net.link import Link, connect
from repro.net.packet import EthernetFrame, RawPayload
from repro.net.port import Port


class RecordingDevice(Device):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append((self.sim.now_ns, frame, in_port))


def frame_of(size_bytes):
    return EthernetFrame(1, 2, 0, RawPayload(size_bytes - 18))


def one_frame(sim, *changes):
    """A 1000-byte frame at 1 Gb/s (serialized over [0, 8 us)), 1 us of
    propagation; ``changes`` are ``(instant, method name, *args)`` on the
    link, scheduled before the frame is sent."""
    a, b = RecordingDevice(sim, "a"), RecordingDevice(sim, "b")
    port, _ = connect(sim, a, b, units.GIGABITS_PER_SEC, delay_ns=1_000)
    for at_ns, name, *args in changes:
        sim.schedule_at(at_ns, getattr(port.link, name), *args)
    port.enqueue(frame_of(1000))
    sim.run()
    return port, b


class TestDirectPath:
    def test_one_event_per_traversal(self, sim):
        port, b = one_frame(sim)
        assert [t for t, _, _ in b.received] == [9_000]
        assert sim.events_processed == 1

    def test_transmitted_from_the_end_of_serialization(self, sim):
        a, b = RecordingDevice(sim, "a"), RecordingDevice(sim, "b")
        port, _ = connect(sim, a, b, units.GIGABITS_PER_SEC)
        port.enqueue(frame_of(1000))
        sim.run(until_ns=7_999)
        assert (port.tx_frames, port.tx_bytes) == (0, 0)
        assert port.queue.occupancy_bytes == 1000
        sim.run(until_ns=8_000)
        assert (port.tx_frames, port.tx_bytes) == (1, 1000)
        assert port.queue.occupancy_bytes == 0

    def test_backlog_keeps_one_start_event_per_waiting_frame(self, sim):
        a, b = RecordingDevice(sim, "a"), RecordingDevice(sim, "b")
        port, _ = connect(sim, a, b, units.GIGABITS_PER_SEC, delay_ns=0)
        for _ in range(3):
            port.enqueue(frame_of(1000))
        sim.run()
        assert [t for t, _, _ in b.received] == [8_000, 16_000, 24_000]
        assert sim.events_processed == 3 + 2  # arrivals + starts


class TestHandOver:
    def test_fail_mid_serialization_loses_the_frame(self, sim):
        port, b = one_frame(sim, (4_000, "fail"))
        assert b.received == []
        assert port.link.frames_lost == 1
        assert sim.pending_events == 0

    def test_fail_and_restore_within_one_serialization_deliver(self, sim):
        port, b = one_frame(sim, (2_000, "fail"), (4_000, "restore"))
        assert [t for t, _, _ in b.received] == [9_000]
        assert port.link.frames_lost == 0

    def test_fail_at_the_end_of_serialization_comes_before_it(self, sim):
        port, b = one_frame(sim, (8_000, "fail"))
        assert b.received == []
        assert port.link.frames_lost == 1

    def test_fail_after_serialization_spares_the_frame_in_flight(self, sim):
        port, b = one_frame(sim, (8_001, "fail"))
        assert [t for t, _, _ in b.received] == [9_000]

    def test_impairment_mid_serialization_applies(self, sim):
        port, b = one_frame(sim, (4_000, "set_impairments", 1.0))
        assert b.received == []
        assert port.link.frames_impaired_lost == 1


class TestSameInstantOrder:
    """Arrivals due at one instant land in the order their serializations
    started, whichever path each frame took."""

    def race(self, sim, *changes):
        # Frame A: serialized over [0, 8 us), 1 us of propagation.
        # Frame B: serialized over [2 us, 6 us), 3 us of propagation.
        # Both arrive at 9 us; A started first, B finished first.
        a, b = RecordingDevice(sim, "a"), RecordingDevice(sim, "b")
        sink = RecordingDevice(sim, "sink")
        port_a, _ = connect(sim, a, sink, units.GIGABITS_PER_SEC, 1_000)
        port_b, _ = connect(sim, b, sink, units.GIGABITS_PER_SEC, 3_000)
        for at_ns, name, *args in changes:
            sim.schedule_at(at_ns, getattr(port_a.link, name), *args)
        first, second = frame_of(1000), frame_of(500)
        port_a.enqueue(first)
        sim.schedule_at(2_000, port_b.enqueue, second)
        sim.run()
        assert [t for t, _, _ in sink.received] == [9_000, 9_000]
        return [frame for _, frame, _ in sink.received] == [first, second]

    def test_direct(self, sim):
        assert self.race(sim)

    def test_decided_at_the_end(self, sim):
        # An impairment that never fires keeps A's link off the direct path.
        assert self.race(sim, (0, "set_impairments", 1e-12))

    def test_handed_over_mid_serialization(self, sim):
        assert self.race(sim, (1_000, "fail"), (1_500, "restore"))


class TestErrors:
    def test_a_link_without_receiver_raises_configuration_error(self, sim):
        port = Port(sim, Link(sim, units.GIGABITS_PER_SEC, name="dangling"))
        port.enqueue(frame_of(100))
        with pytest.raises(ConfigurationError):
            sim.run()

    def test_a_zero_rate_set_after_construction_raises_value_error(self, sim):
        a, b = RecordingDevice(sim, "a"), RecordingDevice(sim, "b")
        port, _ = connect(sim, a, b, units.GIGABITS_PER_SEC)
        port.link.rate_bps = 0
        with pytest.raises(ValueError):
            port.enqueue(frame_of(100))
