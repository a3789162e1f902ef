"""The cancellation handle of a scheduled callback.

Events are ordered by ``(time_ns, sequence)``: two events scheduled for the
same instant fire in the order they were scheduled.  This determinism matters
for reproducibility — RCP convergence traces and ndb packet orderings must be
identical across runs with the same seed.  The heap itself lives in
:class:`~repro.sim.simulator.Simulator`; an :class:`Event` is what
``schedule`` returns so the caller can cancel it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.simulator import Simulator


class Event:
    """A single scheduled callback.

    Attributes:
        time_ns: absolute simulated time at which the event fires.
        sequence: tie-breaker among events at one instant — the order
            of scheduling, or a place taken earlier
            (:meth:`~repro.sim.simulator.Simulator.schedule_ordered`).
        callback: callable invoked as ``callback(*args)`` when fired.
        args: positional arguments for the callback.
        cancelled: set via :meth:`cancel`; cancelled events are skipped
            (lazy deletion — the heap entry stays until popped or the
            simulator compacts its heap).
    """

    __slots__ = ("time_ns", "sequence", "callback", "args", "cancelled",
                 "_sim")

    def __init__(self, time_ns: int, sequence: float,
                 callback: Callable[..., None],
                 args: Tuple[Any, ...] = (),
                 sim: Optional["Simulator"] = None) -> None:
        self.time_ns = time_ns
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = False
        # Owning simulator while the event sits in its heap; cleared on pop
        # or purge so cancelling a stale handle cannot skew live accounting.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                sim._note_cancelled()
