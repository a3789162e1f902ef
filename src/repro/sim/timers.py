"""One-shot and periodic timers built on the event queue.

End-host rate controllers (RCP*'s per-flow probe loop), link-utilization
samplers, and EWMA updaters all run off :class:`PeriodicTimer`.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.simulator import Simulator


class OneShotTimer:
    """A restartable single-fire timer.

    Unlike a bare ``sim.schedule`` call, the timer can be cancelled and
    restarted, which is what retransmission-style logic needs.

    Same-instant semantics: ``cancel()`` + ``start()`` at the timer's own
    firing instant is deterministic.  If the cancelling event was scheduled
    *before* the timer's pending event, the old firing is suppressed and
    only the re-armed one runs; if it was scheduled *after*, the timer has
    already fired when the cancel executes (cancel is then a no-op on the
    spent event) and the re-arm fires again — plain FIFO order within the
    instant.  Either way superseded events are cancelled immediately and
    never counted by ``Simulator.pending_events``.
    """

    def __init__(self, sim: Simulator, callback: Callable[..., None],
                 *args: Any) -> None:
        self._sim = sim
        self._callback = callback
        self._args = args
        self._event: Optional[Event] = None

    def start(self, delay_ns: int) -> None:
        """Arm (or re-arm) the timer ``delay_ns`` from now."""
        self.cancel()
        self._event = self._sim.schedule(delay_ns, self._fire)

    def cancel(self) -> None:
        """Disarm the timer if pending.  Idempotent."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._callback(*self._args)


class PeriodicTimer:
    """Fires ``callback`` every ``interval_ns`` until stopped.

    The next firing is scheduled *before* the callback runs, so a callback
    that takes simulated time (by scheduling further events) cannot skew the
    period, and a callback may safely call :meth:`stop`.
    """

    def __init__(self, sim: Simulator, interval_ns: int,
                 callback: Callable[..., None], *args: Any) -> None:
        if interval_ns <= 0:
            raise SimulationError(
                f"periodic timer interval must be positive, got {interval_ns}"
            )
        self._sim = sim
        self.interval_ns = interval_ns
        self._callback = callback
        self._args = args
        self._event: Optional[Event] = None
        self.fire_count = 0

    def start(self, first_delay_ns: Optional[int] = None) -> None:
        """Begin firing; the first tick is after ``first_delay_ns``
        (default: one full interval)."""
        self.stop()
        delay = self.interval_ns if first_delay_ns is None else first_delay_ns
        self._event = self._sim.schedule(delay, self._fire)

    def stop(self) -> None:
        """Cancel any pending firing.  Idempotent."""
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = self._sim.schedule(self.interval_ns, self._fire)
        self.fire_count += 1
        self._callback(*self._args)
