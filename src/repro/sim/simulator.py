"""The simulation event loop.

A :class:`Simulator` owns the clock and the event queue.  Devices (links,
switches, hosts) hold a reference to it and schedule their future work
through :meth:`Simulator.schedule`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.rng import SeededRNG


class Simulator:
    """Discrete-event simulator with an integer-nanosecond clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1_000, print, "fires at t=1us")
        sim.run(until_ns=units.seconds(1))

    The loop processes events in ``(time, schedule-order)`` order until the
    queue drains, ``until_ns`` is reached, or :meth:`stop` is called from
    inside a callback.

    The simulator also anchors the experiment's :class:`SeededRNG` family:
    any component holding a ``sim`` reference can draw from a named,
    deterministically seeded stream (``sim.rng.stream("impair/sw0->sw1")``)
    without threading an RNG through every constructor.
    """

    def __init__(self, seed: int = 0) -> None:
        #: Current simulated time in nanoseconds; only :meth:`run` writes.
        self.now_ns = 0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self.events_processed = 0
        #: Named-stream RNG family for every stochastic component in this
        #: simulation (link impairments, probe jitter, workloads).
        self.rng = SeededRNG(seed)

    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds (for reporting only)."""
        return self.now_ns / 1_000_000_000

    def pending_events(self) -> int:
        """Number of live events still queued.

        Cancelled stragglers awaiting lazy deletion are *not* counted (they
        will never fire); see :meth:`cancelled_pending` for those.
        """
        return self._queue.live_count

    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap entries (lazy deletion)."""
        return self._queue.cancelled_pending

    def schedule(self, delay_ns: int, callback: Callable[..., None],
                 *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay_ns`` from now.

        A zero delay is allowed (the event runs later in the current
        instant); a negative delay is a programming error.
        """
        if delay_ns < 0:
            raise SimulationError(
                f"cannot schedule {delay_ns} ns in the past"
                f" at t={self.now_ns}"
            )
        return self._queue.push(self.now_ns + delay_ns, callback, args)

    def schedule_at(self, time_ns: int, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``."""
        if time_ns < self.now_ns:
            raise SimulationError(
                f"cannot schedule at t={time_ns}, already at t={self.now_ns}"
            )
        return self._queue.push(time_ns, callback, args)

    def stop(self) -> None:
        """Request the run loop to exit after the current event."""
        self._stopped = True

    def run(self, until_ns: Optional[int] = None) -> int:
        """Process events until the queue drains or ``until_ns`` is reached.

        Events scheduled exactly at ``until_ns`` are **not** processed (the
        horizon is exclusive), but the clock is advanced to ``until_ns`` so
        consecutive ``run`` calls compose:  ``run(t1); run(t2)`` is the same
        as ``run(t2)``.

        Returns the number of events processed during this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        self._stopped = False
        processed = 0
        pop_before = self._queue.pop_before
        try:
            while not self._stopped:
                event = pop_before(until_ns)
                if event is None:
                    break
                self.now_ns = event.time_ns
                # pop_before never returns a cancelled event and nothing can
                # run between the pop and this call, so invoke the callback
                # directly instead of re-checking through Event.fire().
                event.callback(*event.args)
                processed += 1
        finally:
            self._running = False
        if until_ns is not None and not self._stopped:
            self.now_ns = max(self.now_ns, until_ns)
        self.events_processed += processed
        return processed
