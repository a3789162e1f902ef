"""Event ordering, cancellation and heap compaction in the simulator."""

from repro.sim import simulator
from repro.sim.events import Event
from repro.sim.simulator import Simulator


def entries(sim):
    """Heap entries, cancelled stragglers included."""
    return sim.pending_events + sim.cancelled_pending


class TestEventOrdering:
    def test_pops_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(300, fired.append, 3)
        sim.schedule_at(100, fired.append, 1)
        sim.schedule_at(200, fired.append, 2)
        sim.run()
        assert fired == [1, 2, 3]

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in range(10):
            sim.schedule_at(50, fired.append, tag)
        sim.run()
        assert fired == list(range(10))

    def test_len_counts_pending(self):
        sim = Simulator()
        assert entries(sim) == 0
        sim.schedule_at(1, lambda: None)
        sim.schedule_at(2, lambda: None)
        assert entries(sim) == 2


class TestCancellation:
    def test_cancel_is_idempotent(self):
        event = Event(0, 0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_pop_skips_cancelled(self):
        sim = Simulator()
        fired = []
        first = sim.schedule_at(10, fired.append, 10)
        sim.schedule_at(20, fired.append, 20)
        first.cancel()
        assert sim.run() == 1
        assert fired == [20]

    def test_pop_empty_returns_none(self):
        assert Simulator().run() == 0


class TestLiveAccounting:
    def test_cancelled_pending_counts_stragglers(self):
        sim = Simulator()
        events = [sim.schedule_at(i, lambda: None) for i in range(5)]
        events[1].cancel()
        events[3].cancel()
        assert sim.cancelled_pending == 2
        assert sim.pending_events == 3
        # Raw heap entries still include the stragglers.
        assert entries(sim) == 5

    def test_pop_of_cancelled_decrements_counter(self):
        sim = Simulator()
        first = sim.schedule_at(10, lambda: None)
        sim.schedule_at(20, lambda: None)
        first.cancel()
        assert sim.cancelled_pending == 1
        sim.run(until_ns=15)  # skips and purges the straggler
        assert sim.cancelled_pending == 0

    def test_cancel_is_counted_once(self):
        sim = Simulator()
        event = sim.schedule_at(10, lambda: None)
        event.cancel()
        event.cancel()
        assert sim.cancelled_pending == 1

    def test_stale_cancel_after_pop_does_not_skew_counter(self):
        sim = Simulator()
        event = sim.schedule_at(10, lambda: None)
        assert sim.run() == 1
        event.cancel()  # handle outlived its heap entry
        assert sim.cancelled_pending == 0
        assert sim.pending_events == 0


class TestCompaction:
    def test_explicit_compact_purges_stragglers(self):
        sim = Simulator()
        events = [sim.schedule_at(i, lambda: None) for i in range(10)]
        for event in events[:6]:
            event.cancel()
        purged = sim.compact()
        assert purged == 6
        assert entries(sim) == 4
        assert sim.cancelled_pending == 0
        assert sim.compactions == 1

    def test_compact_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        keep = []
        for tag in range(20):
            event = sim.schedule_at(100 - tag // 2, fired.append, tag)
            if tag % 3:
                keep.append(tag)
            else:
                event.cancel()
        sim.compact()
        sim.run()
        expected = sorted(keep, key=lambda tag: (100 - tag // 2, tag))
        assert fired == expected

    def test_auto_compaction_bounds_stragglers(self, monkeypatch):
        monkeypatch.setattr(simulator, "COMPACT_MIN_CANCELLED", 8)
        monkeypatch.setattr(simulator, "COMPACT_FRACTION", 0.5)
        sim = Simulator()
        live = sim.schedule_at(1_000_000, lambda: None)
        stale = [sim.schedule_at(i, lambda: None) for i in range(100)]
        for event in stale:
            event.cancel()
        # Cancellation churn must have triggered compaction rather than
        # letting 100 stragglers accumulate behind one live event.
        assert sim.compactions >= 1
        assert sim.cancelled_pending <= 8 + 1
        assert sim.pending_events == 1
        assert not live.cancelled

    def test_compact_empty_is_noop(self):
        sim = Simulator()
        assert sim.compact() == 0
        assert sim.compactions == 0

    def test_pop_before_horizon(self):
        sim = Simulator()
        fired = []
        sim.schedule_at(10, fired.append, 10)
        sim.schedule_at(20, fired.append, 20)
        assert sim.run(until_ns=15) == 1
        assert fired == [10]
        assert sim.run(until_ns=15) == 0
        # The t=20 event stayed queued.
        assert entries(sim) == 1

