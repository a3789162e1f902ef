"""The paced sender and the token bucket inside it."""

import pytest

from repro import units
from repro.endhost.rate_limiter import PacedSender


def paced(sim, rate_bps, packet_bytes):
    sent = []
    sender = PacedSender(sim, rate_bps, packet_bytes,
                         lambda n: sent.append(sim.now_ns))
    return sender, sent


class TestTokenBucket:
    """The bucket that meters a PacedSender: two packets of tokens at
    most, filling at the pacing rate, one packet's size per send."""

    def test_initial_burst_available(self, sim):
        sender, sent = paced(sim, 8_000, 1000)
        sender.start()
        assert sent == [0, 0]  # the full bucket covers two packets

    def test_refills_over_time(self, sim):
        sender, sent = paced(sim, 8_000, 1000)
        sender.start()
        sim.run(until_ns=units.seconds(1) + 1)  # 8000 bits = 1000 bytes
        assert sent == [0, 0, units.seconds(1)]

    def test_burst_caps_accumulation(self, sim):
        sender, sent = paced(sim, 8_000_000, 500)
        sim.run(until_ns=units.seconds(10))
        sender.start()
        assert sent == [units.seconds(10)] * 2

    def test_time_until_available(self, sim):
        sender, sent = paced(sim, 8_000, 100)
        sender.start()
        sim.run(until_ns=units.seconds(1))
        assert sent[2] == pytest.approx(units.seconds(0.1), rel=0.01)

    def test_zero_rate_never_available(self, sim):
        sender, sent = paced(sim, 0, 10)
        sender.start()
        assert sent == [0, 0]
        assert sim.pending_events == 0  # nothing to wake for

    def test_set_rate(self, sim):
        sender, sent = paced(sim, 8, 100)
        sender.start()
        sender.set_rate(8_000_000)
        sender.stop()  # the old rate's wake-up was 100 s away
        sim.run(until_ns=units.milliseconds(1))
        sender.start()
        assert sent == [0, 0] + [units.milliseconds(1)] * 2

    def test_negative_rate_rejected(self, sim):
        with pytest.raises(ValueError):
            PacedSender(sim, -1, 100, lambda n: None)


class TestPacedSender:
    def _sender(self, sim, rate_bps, packet_bytes=1000):
        sent = []
        sender = PacedSender(sim, rate_bps, packet_bytes,
                             lambda n: sent.append(sim.now_ns))
        return sender, sent

    def test_achieves_configured_rate(self, sim):
        sender, sent = self._sender(sim, rate_bps=8_000_000)  # 1000 pkt/s
        sender.start()
        sim.run(until_ns=units.seconds(1))
        assert len(sent) == pytest.approx(1000, rel=0.02)

    def test_rate_change_takes_effect(self, sim):
        sender, sent = self._sender(sim, rate_bps=8_000_000)
        sender.start()
        sim.run(until_ns=units.seconds(1))
        first_second = len(sent)
        sender.set_rate(4_000_000)
        sim.run(until_ns=units.seconds(2))
        second_second = len(sent) - first_second
        assert second_second == pytest.approx(first_second / 2, rel=0.05)

    def test_zero_rate_stalls_then_resumes(self, sim):
        sender, sent = self._sender(sim, rate_bps=0)
        sender.start()
        sim.run(until_ns=units.seconds(1))
        sent_while_stalled = len(sent)
        sender.set_rate(8_000_000)
        sim.run(until_ns=units.seconds(2))
        assert len(sent) > sent_while_stalled

    def test_stop(self, sim):
        sender, sent = self._sender(sim, rate_bps=8_000_000)
        sender.start()
        sim.run(until_ns=units.milliseconds(100))
        sender.stop()
        count = len(sent)
        sim.run(until_ns=units.seconds(1))
        assert len(sent) == count

    def test_counters(self, sim):
        sender, _ = self._sender(sim, rate_bps=8_000_000)
        sender.start()
        sim.run(until_ns=units.milliseconds(10))
        assert sender.packets_sent == sender.bytes_sent // 1000

    def test_start_idempotent(self, sim):
        sender, sent = self._sender(sim, rate_bps=8_000_000)
        sender.start()
        sender.start()
        sim.run(until_ns=units.milliseconds(5))
        # The initial burst is exactly 2 packets (burst_bytes = 2 MTUs);
        # a double start must not emit it twice.
        assert sum(1 for t in sent if t == 0) == 2

    def test_stop_inside_send_fn_stops(self, sim):
        """A 2-packet burst whose first send stops the sender: one packet
        goes out and nothing stays scheduled."""
        sent = []

        def send(n):
            sent.append(sim.now_ns)
            sender.stop()

        sender = PacedSender(sim, 8_000_000, 1000, send)
        sender.start()
        assert sent == [0]
        assert sender.packets_sent == 1
        assert sim.pending_events == 0
        sim.run(until_ns=units.seconds(1))
        assert sent == [0]

    def test_rate_change_inside_send_fn_keeps_one_wake(self, sim):
        """A zero-rate sender whose first send raises the rate sends its
        burst once and keeps exactly one pending wake-up."""
        sent = []

        def send(n):
            sent.append(sim.now_ns)
            sender.set_rate(8_000_000)

        sender = PacedSender(sim, 0, 1000, send)
        sender.start()
        assert sent == [0, 0]
        assert sim.pending_events == 1
        sim.run(until_ns=units.milliseconds(1) + 1)
        assert sent == [0, 0, units.milliseconds(1)]

    def test_bad_packet_size_rejected(self, sim):
        with pytest.raises(ValueError):
            PacedSender(sim, 1000, 0, lambda n: None)
