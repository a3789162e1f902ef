"""Probe reliability: deadlines, retries, dedup, and defensive parsing."""

import random

import pytest

from repro import units
from repro.core.assembler import assemble
from repro.core.tpp import FLAG_DONE
from repro.endhost.client import RetryPolicy, TPPEndpoint
from repro.endhost.probes import PeriodicProber
from repro.net.packet import ETHERTYPE_TPP, EthernetFrame


@pytest.fixture
def pair(linear_net):
    h0, h1 = linear_net.host("h0"), linear_net.host("h1")
    return linear_net, TPPEndpoint(h0), TPPEndpoint(h1)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout_ns=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_ns=10, max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_ns=10, backoff=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_ns=10, jitter_fraction=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(timeout_ns=10, rtt_multiplier=-1.0)

    def test_exponential_backoff(self):
        policy = RetryPolicy(timeout_ns=100, max_attempts=4, backoff=2.0)
        assert [policy.timeout_for(n) for n in (1, 2, 3)] == [100, 200, 400]

    def test_max_timeout_clamps(self):
        policy = RetryPolicy(timeout_ns=100, max_attempts=5, backoff=2.0,
                             max_timeout_ns=250)
        assert policy.timeout_for(3) == 250

    def test_jitter_spreads_deadlines(self):
        policy = RetryPolicy(timeout_ns=1000, jitter_fraction=0.3)
        rng = random.Random(3)
        timeouts = {policy.timeout_for(1, rng) for _ in range(20)}
        assert len(timeouts) > 5
        assert all(700 <= t <= 1300 for t in timeouts)

    def test_rtt_multiplier_raises_deadline_above_floor(self):
        policy = RetryPolicy(timeout_ns=1000, rtt_multiplier=6.0)
        # No estimate yet: the floor applies.
        assert policy.timeout_for(1) == 1000
        assert policy.timeout_for(1, rtt_ewma_ns=100.0) == 1000
        # Estimate above floor/multiplier: the deadline tracks the path.
        assert policy.timeout_for(1, rtt_ewma_ns=500.0) == 3000


class TestTimeoutAndRetry:
    def test_lost_probe_times_out(self, pair):
        net, client, _ = pair
        h0, h1 = net.host("h0"), net.host("h1")
        h0.ports[0].link.fail()
        expired = []
        client.send(assemble("NOP"), dst_mac=h1.mac,
                    on_timeout=expired.append,
                    retry_policy=RetryPolicy(
                timeout_ns=units.microseconds(50)))
        net.run(until_seconds=0.001)
        assert len(expired) == 1
        assert client.timeouts == 1
        assert client.pending_count == 0

    def test_retry_recovers_from_transient_loss(self, pair):
        net, client, _ = pair
        h0, h1 = net.host("h0"), net.host("h1")
        link = h0.ports[0].link
        link.fail()
        net.sim.schedule(units.microseconds(30), link.restore)
        results, expired = [], []
        client.send(assemble("NOP"), dst_mac=h1.mac,
                    on_response=results.append, on_timeout=expired.append,
                    retry_policy=RetryPolicy(
                        timeout_ns=units.microseconds(50), max_attempts=3))
        net.run(until_seconds=0.001)
        assert len(results) == 1
        assert expired == []
        assert client.retries == 1
        assert client.timeouts == 0

    def test_all_attempts_exhausted(self, pair):
        net, client, _ = pair
        h0, h1 = net.host("h0"), net.host("h1")
        h0.ports[0].link.fail()
        expired = []
        client.send(assemble("NOP"), dst_mac=h1.mac,
                    on_timeout=expired.append,
                    retry_policy=RetryPolicy(
                        timeout_ns=units.microseconds(50), max_attempts=3))
        net.run(until_seconds=0.001)
        assert len(expired) == 1
        assert expired[0].attempts == 3
        assert client.retries == 2
        assert client.timeouts == 1

    def test_late_echo_counted_not_delivered(self, pair):
        net, client, _ = pair
        h1 = net.host("h1")
        results, expired = [], []
        # 1 us deadline vs ~8 us round trip: the echo is alive but late.
        client.send(assemble("NOP"), dst_mac=h1.mac,
                    on_response=results.append, on_timeout=expired.append,
                    retry_policy=RetryPolicy(timeout_ns=1_000))
        net.run(until_seconds=0.001)
        assert results == []
        assert len(expired) == 1
        assert client.late_responses == 1
        assert client.orphan_responses == 0

    def test_late_echo_teaches_the_rtt_estimator(self, pair):
        net, client, _ = pair
        h1 = net.host("h1")
        client.send(assemble("NOP"), dst_mac=h1.mac,
                    retry_policy=RetryPolicy(timeout_ns=1_000))
        net.run(until_seconds=0.001)
        assert client.late_responses == 1
        # The straggler proved the deadline underestimated the path.
        assert client.rtt_ewma_ns > 1_000

    def test_rtt_ewma_tracks_echo_round_trip(self, pair):
        net, client, _ = pair
        h1 = net.host("h1")
        for _ in range(5):
            client.send(assemble("NOP"), dst_mac=h1.mac,
                        on_response=lambda r: None)
            net.run(until_seconds=net.sim.now_seconds + 0.001)
        # Path: 3 links of 1 us propagation each way, plus serialization.
        assert 6_000 < client.rtt_ewma_ns < 20_000

    def test_response_carries_rtt(self, pair):
        net, client, _ = pair
        h1 = net.host("h1")
        results = []
        client.send(assemble("NOP"), dst_mac=h1.mac,
                    on_response=results.append)
        net.run(until_seconds=0.001)
        assert results[0].rtt_ns > 6_000


class TestSequenceWindow:
    def test_stuck_probe_slot_never_reused(self, pair):
        """Regression: an 8-bit counter alone would reassign an in-flight
        seq after 256 sends and cross-wire the straggler's callback."""
        net, client, _ = pair
        h1 = net.host("h1")
        program = assemble("NOP")
        # One probe to a blackholed destination stays pending forever
        # (no deadline), squatting on seq 0.
        stuck = []
        client.send(program, dst_mac=0xDEADBEEF, on_response=stuck.append)
        results = []
        for _ in range(300):
            client.send(program, dst_mac=h1.mac, on_response=results.append)
            net.run(until_seconds=net.sim.now_seconds + 0.001)
        assert len(results) == 300
        assert stuck == []
        assert client.pending_count == 1
        # The wrapped sequence space skipped the occupied slot.
        assert 0 not in {r.seq for r in results}

    def test_duplicate_echo_deduplicated(self, pair):
        net, client, _ = pair
        h0, h1 = net.host("h0"), net.host("h1")
        results = []
        client.send(assemble("NOP"), dst_mac=h1.mac,
                    on_response=results.append)
        net.run(until_seconds=0.001)
        assert len(results) == 1
        # A duplicating link replays the identical echo.
        replay = EthernetFrame(dst=h0.mac, src=h1.mac,
                               ethertype=ETHERTYPE_TPP,
                               payload=results[0].tpp.copy())
        h1.send_frame(replay)
        net.run(until_seconds=0.002)
        assert len(results) == 1
        assert client.duplicate_responses == 1
        assert client.orphan_responses == 0

    def test_echo_from_wrong_host_is_orphaned(self, pair):
        net, client, responder = pair
        h0, h1 = net.host("h0"), net.host("h1")
        responder.echo_probes = False  # the real echo never comes
        results = []
        seq = client.send(assemble("NOP"), dst_mac=h1.mac,
                          on_response=results.append)
        net.run(until_seconds=0.001)
        # A reflected echo with the right seq/task but the wrong source
        # must not consume the record.
        fake = assemble("NOP").build(seq=seq)
        fake.flags |= FLAG_DONE
        h1.send_frame(EthernetFrame(dst=h0.mac, src=0x999999,
                                    ethertype=ETHERTYPE_TPP, payload=fake))
        net.run(until_seconds=0.002)
        assert results == []
        assert client.orphan_responses == 1
        assert client.pending_count == 1

    def test_pending_bounded_over_many_lossy_probes(self, pair):
        """Acceptance: >= 10k probes through 30% loss, pending table
        bounded the whole way."""
        net, client, _ = pair
        h0, h1 = net.host("h0"), net.host("h1")
        h0.ports[0].link.set_impairments(loss_rate=0.3)
        program = assemble("NOP")
        results = []
        prober = PeriodicProber(client, program, units.microseconds(20),
                                results.append, dst_mac=h1.mac)
        high_water = [0]
        original = prober._fire

        def watched_fire():
            original()
            high_water[0] = max(high_water[0], client.pending_count)

        prober._fire = watched_fire
        prober.start(first_delay_ns=1)
        net.run(until_seconds=0.25)
        prober.stop()
        assert prober.probes_sent >= 10_000
        assert high_water[0] <= prober.max_outstanding
        assert client.timeouts > 0
        assert prober.loss_rate_estimate == pytest.approx(0.3, rel=0.5)
        net.run(until_seconds=0.3)  # drain stragglers and deadlines
        assert client.pending_count == 0


class TestResultViewDefensiveParsing:
    def executed_result(self, net, client, h1):
        program = assemble(
            "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]", hops=4)
        results = []
        client.send(program, dst_mac=h1.mac, on_response=results.append)
        net.run(until_seconds=0.001)
        assert results
        return results[0]

    def test_intact_trace_parses(self, pair):
        net, client, _ = pair
        result = self.executed_result(net, client, net.host("h1"))
        hops = result.per_hop_words()
        assert len(hops) == 3
        assert all(len(words) == 2 for words in hops)

    def test_truncated_memory_clamps_instead_of_raising(self, pair):
        net, client, _ = pair
        result = self.executed_result(net, client, net.host("h1"))
        # Chop the trace mid-record: only whole surviving records parse.
        del result.tpp.memory[12:]
        assert result.per_hop_words() == [result.per_hop_words()[0]]
        del result.tpp.memory[:]
        assert result.per_hop_words() == []

    def test_ragged_perhop_length_rejected(self, pair):
        net, client, _ = pair
        result = self.executed_result(net, client, net.host("h1"))
        # A bit-flipped header field: per-hop length no longer a whole
        # number of words.
        result.tpp.perhop_len_bytes = 6
        assert result.per_hop_words() == []
