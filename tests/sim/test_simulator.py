"""Simulator run-loop semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim.simulator import Simulator


class TestScheduling:
    def test_clock_starts_at_zero(self, sim):
        assert sim.now_ns == 0

    def test_callback_sees_advanced_clock(self, sim):
        seen = []
        sim.schedule(500, lambda: seen.append(sim.now_ns))
        sim.run()
        assert seen == [500]

    def test_zero_delay_allowed(self, sim):
        fired = []
        sim.schedule(0, fired.append, "now")
        sim.run()
        assert fired == ["now"]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_absolute_time(self, sim):
        seen = []
        sim.schedule_at(1234, lambda: seen.append(sim.now_ns))
        sim.run()
        assert seen == [1234]

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(100, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(50, lambda: None)

    def test_events_can_schedule_events(self, sim):
        seen = []

        def first():
            sim.schedule(10, lambda: seen.append(sim.now_ns))

        sim.schedule(5, first)
        sim.run()
        assert seen == [15]

    def test_args_passed_through(self, sim):
        seen = []
        sim.schedule(1, lambda a, b: seen.append((a, b)), "x", 42)
        sim.run()
        assert seen == [("x", 42)]


class TestRunHorizon:
    def test_until_is_exclusive(self, sim):
        fired = []
        sim.schedule(100, fired.append, "a")
        sim.schedule(200, fired.append, "b")
        sim.run(until_ns=200)
        assert fired == ["a"]

    def test_clock_advances_to_horizon(self, sim):
        sim.run(until_ns=5_000)
        assert sim.now_ns == 5_000

    def test_consecutive_runs_compose(self, sim):
        fired = []
        sim.schedule(100, fired.append, "a")
        sim.schedule(300, fired.append, "b")
        sim.run(until_ns=200)
        sim.run(until_ns=400)
        assert fired == ["a", "b"]
        assert sim.now_ns == 400

    def test_event_at_horizon_fires_next_run(self, sim):
        fired = []
        sim.schedule(200, fired.append, "edge")
        sim.run(until_ns=200)
        assert fired == []
        sim.run(until_ns=201)
        assert fired == ["edge"]

    def test_returns_processed_count(self, sim):
        for _ in range(7):
            sim.schedule(1, lambda: None)
        assert sim.run() == 7
        assert sim.events_processed == 7

    def test_tally_survives_a_raising_callback(self, sim):
        """Events whose callbacks returned are counted even when a later
        callback raises out of ``run()``, and resuming counts on."""
        def boom():
            raise RuntimeError("callback failed")

        for _ in range(5):
            sim.schedule(1, lambda: None)
        sim.schedule(10, boom)
        sim.schedule(11, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run()
        assert sim.events_processed == 5
        assert sim.run() == 1
        assert sim.events_processed == 6


class TestStop:

    def test_run_not_reentrant(self, sim):
        error = []

        def reenter():
            try:
                sim.run()
            except SimulationError:
                error.append(True)

        sim.schedule(1, reenter)
        sim.run()
        assert error == [True]

    def test_now_seconds_view(self, sim):
        sim.run(until_ns=2_500_000_000)
        assert sim.now_seconds == pytest.approx(2.5)


class TestCompactionMidRun:
    """A callback that cancels enough timers makes the queue compact
    (filter + re-heapify) underneath the loop that is popping it."""

    CANCELLED = 200  # >= 128: well past compact_min_cancelled

    def _scenario(self, sim, compacting: bool):
        if not compacting:
            sim._queue.compact_min_cancelled = 10 ** 9
        fired = []
        doomed = [sim.schedule(1_000 + index, fired.append, ("doomed", index))
                  for index in range(self.CANCELLED)]
        # Survivors interleave with the doomed in time and tie at t=1500.
        for index in range(50):
            sim.schedule(1_500 if index % 2 else 900 + 40 * index,
                         fired.append, ("kept", index))

        def purge():
            for event in doomed:
                event.cancel()
            fired.append(("purged", sim.pending_events,
                          sim.cancelled_pending))
            # Scheduled after the rebuild: must land in the rebuilt heap.
            sim.schedule(0, fired.append, ("after", 0))
            sim.schedule(700, fired.append, ("after", 1))

        sim.schedule(500, purge)
        processed = sim.run()
        return fired, processed

    def test_agrees_with_an_uncompacted_twin(self):
        sim, twin = Simulator(), Simulator()
        fired, processed = self._scenario(sim, compacting=True)
        twin_fired, twin_processed = self._scenario(twin, compacting=False)
        assert sim._queue.compactions >= 1
        assert twin._queue.compactions == 0
        # The one difference allowed: stragglers the twin still holds.
        purged, twin_purged = fired.pop(0), twin_fired.pop(0)
        assert purged[:2] == twin_purged[:2] == ("purged", 50)
        assert purged[2] < twin_purged[2] == self.CANCELLED
        assert fired == twin_fired
        assert not any(tag == "doomed" for tag, _ in fired)
        assert processed == twin_processed == 1 + 50 + 2
        assert sim.events_processed == twin.events_processed == processed
        assert sim.pending_events == twin.pending_events == 0
        assert sim.now_ns == twin.now_ns

    def test_survivors_fire_in_time_then_schedule_order(self, sim):
        fired, _ = self._scenario(sim, compacting=True)
        kept = [index for tag, index in fired[1:] if tag == "kept"]
        early = [i for i in range(50) if not i % 2 and 900 + 40 * i < 1_500]
        ties = [i for i in range(50) if i % 2]
        late = [i for i in range(50) if not i % 2 and 900 + 40 * i > 1_500]
        assert kept == early + ties + late
        assert fired[1] == ("after", 0)
