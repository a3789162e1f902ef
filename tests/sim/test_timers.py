"""One-shot and periodic timers."""

import pytest

from repro.errors import SimulationError
from repro.sim.timers import OneShotTimer, PeriodicTimer


class TestOneShotTimer:
    def test_fires_once(self, sim):
        fired = []
        timer = OneShotTimer(sim, fired.append, "tick")
        timer.start(100)
        sim.run()
        assert fired == ["tick"]

    def test_restart_supersedes_pending(self, sim):
        fired = []
        timer = OneShotTimer(sim, lambda: fired.append(sim.now_ns))
        timer.start(100)
        timer.start(500)
        sim.run()
        assert fired == [500]

    def test_cancel_prevents_firing(self, sim):
        fired = []
        timer = OneShotTimer(sim, fired.append, 1)
        timer.start(100)
        timer.cancel()
        sim.run()
        assert fired == []

    def test_can_rearm_from_callback(self, sim):
        times = []

        def tick():
            times.append(sim.now_ns)
            if len(times) < 3:
                timer.start(10)

        timer = OneShotTimer(sim, tick)
        timer.start(10)
        sim.run()
        assert times == [10, 20, 30]


class TestPeriodicTimer:
    def test_fires_every_interval(self, sim):
        times = []
        timer = PeriodicTimer(sim, 100, lambda: times.append(sim.now_ns))
        timer.start()
        sim.run(until_ns=450)
        assert times == [100, 200, 300, 400]

    def test_first_delay_override(self, sim):
        times = []
        timer = PeriodicTimer(sim, 100, lambda: times.append(sim.now_ns))
        timer.start(first_delay_ns=10)
        sim.run(until_ns=250)
        assert times == [10, 110, 210]

    def test_stop_from_callback(self, sim):
        times = []

        def tick():
            times.append(sim.now_ns)
            if len(times) == 2:
                timer.stop()

        timer = PeriodicTimer(sim, 50, tick)
        timer.start()
        sim.run(until_ns=1_000)
        assert times == [50, 100]

    def test_zero_interval_rejected(self, sim):
        with pytest.raises(SimulationError):
            PeriodicTimer(sim, 0, lambda: None)

    def test_fire_count(self, sim):
        timer = PeriodicTimer(sim, 10, lambda: None)
        timer.start()
        sim.run(until_ns=55)
        assert timer.fire_count == 5

    def test_restart_resets_phase(self, sim):
        times = []
        timer = PeriodicTimer(sim, 100, lambda: times.append(sim.now_ns))
        timer.start()
        sim.run(until_ns=150)
        timer.start()  # re-phase at t=150
        sim.run(until_ns=400)
        assert times == [100, 250, 350]


class TestSameInstantCancelRearm:
    """Regression: cancel() + start() at the timer's own firing instant.

    The cancelled event is lazily deleted from the heap; its deletion must
    not fire the callback or linger in ``pending_events`` (which counts
    live events only).
    """

    def test_cancel_before_fire_suppresses_old_firing(self, sim):
        fired = []
        timer = OneShotTimer(sim, lambda: fired.append(sim.now_ns))

        def meddle():
            timer.cancel()
            timer.start(0)
            # The superseded event is a cancelled straggler, not pending.
            assert sim.pending_events == 1
            assert sim.cancelled_pending == 1

        # meddle is scheduled FIRST, so at t=100 it runs before the
        # timer's own event: the old firing must be suppressed.
        sim.schedule(100, meddle)
        timer.start(100)
        sim.run()
        assert fired == [100]
        assert sim.pending_events == 0
        assert sim.cancelled_pending == 0

    def test_cancel_after_fire_is_noop_and_rearm_fires_again(self, sim):
        fired = []
        timer = OneShotTimer(sim, lambda: fired.append(sim.now_ns))

        def meddle():
            timer.cancel()  # no-op: the timer already fired this instant
            timer.start(0)

        # Timer scheduled FIRST: FIFO order within the instant means it
        # fires before meddle runs, so the re-arm fires a second time.
        timer.start(100)
        sim.schedule(100, meddle)
        sim.run()
        assert fired == [100, 100]
        assert sim.pending_events == 0

    def test_rearm_same_instant_fires_after_other_events(self, sim):
        order = []
        timer = OneShotTimer(sim, lambda: order.append("timer"))

        def meddle():
            order.append("meddle")
            timer.cancel()
            timer.start(0)

        sim.schedule(100, meddle)
        timer.start(100)
        sim.schedule(100, lambda: order.append("bystander"))
        sim.run()
        # The re-armed event gets a fresh sequence number: it fires after
        # every event already scheduled for this instant.
        assert order == ["meddle", "bystander", "timer"]

    def test_periodic_stop_start_same_instant_single_tick(self, sim):
        times = []
        timer = PeriodicTimer(sim, 100, lambda: times.append(sim.now_ns))

        def meddle():
            timer.stop()
            timer.start()  # re-phase exactly at the pending tick's time
            assert sim.pending_events == 1

        sim.schedule(100, meddle)
        timer.start()
        sim.run(until_ns=450)
        # The t=100 tick was superseded; ticks resume at 200 on the new
        # phase with no double-fire and no straggler accumulation.
        assert times == [200, 300, 400]
        assert sim.pending_events == 1
        assert sim.cancelled_pending == 0

    def test_live_pending_stays_one_through_churn(self, sim):
        timer = OneShotTimer(sim, lambda: None)
        for _ in range(50):
            timer.start(1_000)  # each restart cancels the previous event
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0
