"""Event queue ordering and cancellation semantics."""

from repro.sim.events import Event, EventQueue


class TestEventOrdering:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.push(300, fired.append, (3,))
        queue.push(100, fired.append, (1,))
        queue.push(200, fired.append, (2,))
        while (event := queue.pop_before(None)) is not None:
            event.callback(*event.args)
        assert fired == [1, 2, 3]

    def test_ties_fire_in_schedule_order(self):
        queue = EventQueue()
        fired = []
        for tag in range(10):
            queue.push(50, fired.append, (tag,))
        while (event := queue.pop_before(None)) is not None:
            event.callback(*event.args)
        assert fired == list(range(10))

    def test_len_counts_pending(self):
        queue = EventQueue()
        assert queue.live_count + queue.cancelled_pending == 0
        queue.push(1, lambda: None)
        queue.push(2, lambda: None)
        assert queue.live_count + queue.cancelled_pending == 2


class TestCancellation:
    def test_cancel_is_idempotent(self):
        event = Event(0, 0, lambda: None)
        event.cancel()
        event.cancel()
        assert event.cancelled

    def test_pop_skips_cancelled(self):
        queue = EventQueue()
        first = queue.push(10, lambda: None)
        queue.push(20, lambda: None)
        first.cancel()
        event = queue.pop_before(None)
        assert event is not None and event.time_ns == 20

    def test_pop_empty_returns_none(self):
        assert EventQueue().pop_before(None) is None


class TestLiveAccounting:
    def test_cancelled_pending_counts_stragglers(self):
        queue = EventQueue()
        events = [queue.push(i, lambda: None) for i in range(5)]
        events[1].cancel()
        events[3].cancel()
        assert queue.cancelled_pending == 2
        assert queue.live_count == 3
        # Raw heap entries still include the stragglers.
        assert queue.live_count + queue.cancelled_pending == 5

    def test_pop_of_cancelled_decrements_counter(self):
        queue = EventQueue()
        first = queue.push(10, lambda: None)
        queue.push(20, lambda: None)
        first.cancel()
        assert queue.cancelled_pending == 1
        queue.pop_before(None)  # skips and purges the straggler
        assert queue.cancelled_pending == 0

    def test_cancel_is_counted_once(self):
        queue = EventQueue()
        event = queue.push(10, lambda: None)
        event.cancel()
        event.cancel()
        assert queue.cancelled_pending == 1

    def test_stale_cancel_after_pop_does_not_skew_counter(self):
        queue = EventQueue()
        event = queue.push(10, lambda: None)
        assert queue.pop_before(None) is event
        event.cancel()  # handle outlived its heap entry
        assert queue.cancelled_pending == 0
        assert queue.live_count == 0


class TestCompaction:
    def test_explicit_compact_purges_stragglers(self):
        queue = EventQueue()
        events = [queue.push(i, lambda: None) for i in range(10)]
        for event in events[:6]:
            event.cancel()
        purged = queue.compact()
        assert purged == 6
        assert queue.live_count + queue.cancelled_pending == 4
        assert queue.cancelled_pending == 0
        assert queue.compactions == 1

    def test_compact_preserves_firing_order(self):
        queue = EventQueue()
        fired = []
        keep = []
        for tag in range(20):
            event = queue.push(100 - tag // 2, fired.append, (tag,))
            if tag % 3:
                keep.append(tag)
            else:
                event.cancel()
        queue.compact()
        while (event := queue.pop_before(None)) is not None:
            event.callback(*event.args)
        expected = sorted(keep, key=lambda tag: (100 - tag // 2, tag))
        assert fired == expected

    def test_auto_compaction_bounds_stragglers(self):
        queue = EventQueue(compact_min_cancelled=8, compact_fraction=0.5)
        live = queue.push(1_000_000, lambda: None)
        stale = [queue.push(i, lambda: None) for i in range(100)]
        for event in stale:
            event.cancel()
        # Cancellation churn must have triggered compaction rather than
        # letting 100 stragglers accumulate behind one live event.
        assert queue.compactions >= 1
        assert queue.cancelled_pending <= 8 + 1
        assert queue.live_count == 1
        assert not live.cancelled

    def test_compact_empty_is_noop(self):
        queue = EventQueue()
        assert queue.compact() == 0
        assert queue.compactions == 0

    def test_pop_before_horizon(self):
        queue = EventQueue()
        queue.push(10, lambda: None)
        queue.push(20, lambda: None)
        event = queue.pop_before(15)
        assert event is not None and event.time_ns == 10
        assert queue.pop_before(15) is None
        # The t=20 event stayed queued.
        assert queue.live_count + queue.cancelled_pending == 1
