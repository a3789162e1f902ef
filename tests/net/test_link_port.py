"""Link serialization/propagation and port draining."""

import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.net.device import Device
from repro.net.host import Host
from repro.net.link import Link, connect
from repro.net.packet import EthernetFrame, RawPayload
from repro.sim.trace import TraceLevel, TraceRecorder


class RecordingDevice(Device):
    """Remembers every (time, frame, port) it receives."""

    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def receive(self, frame, in_port):
        self.received.append((self.sim.now_ns, frame, in_port))


def frame_of(size_bytes: int) -> EthernetFrame:
    return EthernetFrame(1, 2, 0, RawPayload(size_bytes - 18))


class TestLink:
    def test_rejects_bad_rate(self, sim):
        with pytest.raises(ConfigurationError):
            Link(sim, rate_bps=0)

    def test_rejects_negative_delay(self, sim):
        with pytest.raises(ConfigurationError):
            Link(sim, rate_bps=1000, delay_ns=-1)

    def test_delivery_requires_receiver(self, sim):
        link = Link(sim, rate_bps=1000)
        with pytest.raises(ConfigurationError):
            link.deliver_after_propagation(frame_of(100))


class TestConnect:
    def test_full_duplex_ports_created(self, sim):
        a = RecordingDevice(sim, "a")
        b = RecordingDevice(sim, "b")
        port_a, port_b = connect(sim, a, b, units.GIGABITS_PER_SEC)
        assert a.ports == [port_a]
        assert b.ports == [port_b]

    def test_frame_arrives_after_tx_plus_propagation(self, sim):
        a = RecordingDevice(sim, "a")
        b = RecordingDevice(sim, "b")
        port_a, _ = connect(sim, a, b, units.GIGABITS_PER_SEC,
                            delay_ns=5_000)
        frame = frame_of(1000)  # 8 us serialization
        port_a.enqueue(frame)
        sim.run()
        assert b.received == [(13_000, frame, 0)]

    def test_reverse_direction_works(self, sim):
        a = RecordingDevice(sim, "a")
        b = RecordingDevice(sim, "b")
        _, port_b = connect(sim, a, b, units.GIGABITS_PER_SEC,
                            delay_ns=1_000)
        frame = frame_of(1000)
        port_b.enqueue(frame)
        sim.run()
        assert len(a.received) == 1

    def test_back_to_back_frames_serialize_sequentially(self, sim):
        a = RecordingDevice(sim, "a")
        b = RecordingDevice(sim, "b")
        port_a, _ = connect(sim, a, b, units.GIGABITS_PER_SEC,
                            delay_ns=0)
        port_a.enqueue(frame_of(1000))
        port_a.enqueue(frame_of(1000))
        sim.run()
        times = [t for t, _, _ in b.received]
        assert times == [8_000, 16_000]

    def test_tx_counters(self, sim):
        a = RecordingDevice(sim, "a")
        b = RecordingDevice(sim, "b")
        port_a, _ = connect(sim, a, b, units.GIGABITS_PER_SEC)
        port_a.enqueue(frame_of(1000))
        sim.run()
        assert port_a.tx_frames == 1
        assert port_a.tx_bytes == 1000

    def test_queue_drains_fully(self, sim):
        a = RecordingDevice(sim, "a")
        b = RecordingDevice(sim, "b")
        port_a, _ = connect(sim, a, b, units.GIGABITS_PER_SEC)
        for _ in range(10):
            port_a.enqueue(frame_of(500))
        sim.run()
        assert len(b.received) == 10
        assert port_a.queue.occupancy_bytes == 0

    def test_tail_drop_when_queue_full(self, sim):
        a = RecordingDevice(sim, "a")
        b = RecordingDevice(sim, "b")
        port_a, _ = connect(sim, a, b, 1_000_000,  # slow: 1 Mb/s
                            queue_capacity_bytes=2_000)
        accepted = [port_a.enqueue(frame_of(1000)) for _ in range(4)]
        assert accepted == [True, True, False, False]
        sim.run()
        assert port_a.queue.stats.packets_dropped == 2

    def test_rx_counters(self, sim):
        """A host counts what it receives on the arrival port."""
        a = RecordingDevice(sim, "a")
        b = Host(sim, "b", mac=2, ip=2)
        port_a, port_b = connect(sim, a, b, units.GIGABITS_PER_SEC)
        port_a.enqueue(frame_of(800))
        sim.run()
        assert port_b.rx_bytes == 800
        assert port_b.rx_frames == 1
        assert b.frames_received == 1


class TestFirehoseMidRun:
    """The per-frame DEBUG kinds are guarded by a plain attribute of the
    recorder, not by a value captured when the network was built."""

    def test_level_changes_apply_from_the_next_frame(self, sim):
        trace = TraceRecorder()
        a = RecordingDevice(sim, "a")
        b = RecordingDevice(sim, "b")
        a.trace = b.trace = trace
        port_a, _ = connect(sim, a, b, units.GIGABITS_PER_SEC,
                            delay_ns=1_000)
        frames = [frame_of(100) for _ in range(6)]
        for index, frame in enumerate(frames):
            sim.schedule(10_000 * index, port_a.enqueue, frame)
        # Frames 0-1 at INFO, 2-3 at DEBUG, 4-5 back at INFO.
        sim.schedule(15_000, trace.set_level, TraceLevel.DEBUG)
        sim.schedule(35_000, trace.set_level, TraceLevel.INFO)
        sim.run()
        assert len(b.received) == 6
        wanted = [frame.uid for frame in frames[2:4]]
        for kind in ("queue.enqueue", "link.deliver"):
            assert [r.detail["frame_uid"]
                    for r in trace.records(kind=kind)] == wanted
