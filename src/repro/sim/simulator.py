"""The simulation event loop.

A :class:`Simulator` owns the clock and the pending-event heap.  Devices
(links, switches, hosts) hold a reference to it and schedule their future
work through :meth:`Simulator.schedule`.

Hot-path representation
-----------------------

The heap holds plain ``(time_ns, sequence, event)`` tuples rather than the
:class:`~repro.sim.events.Event` objects themselves, so every sift
comparison is a C-level tuple comparison of two ints (``sequence`` is
unique, so the event object is never compared).  ``schedule`` /
``schedule_at`` build the event and push its entry in their own frame, and
``run`` pops the heap inline: an event costs one Python frame to schedule
and none to dispatch beyond its callback.

Cancellation is lazy — :meth:`Event.cancel` marks the handle and the heap
entry is discarded when it reaches the top — but not unbounded: the
simulator counts cancelled stragglers and compacts (filter + re-heapify, in
place, since ``run`` holds the list) once they exceed
:data:`COMPACT_FRACTION` of the heap.  Timer re-arming churn (RCP
retransmission logic restarts its one-shot timer on every packet) otherwise
grows the heap without bound.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.sim.events import Event
from repro.sim.rng import SeededRNG

#: Below this many cancelled stragglers compaction is never attempted —
#: filtering a tiny heap costs more than the stragglers' memory.
COMPACT_MIN_CANCELLED = 64

#: Compact when cancelled stragglers exceed this fraction of heap entries
#: (i.e. the live fraction drops below ``1 - fraction``).
COMPACT_FRACTION = 0.5


class Simulator:
    """Discrete-event simulator with an integer-nanosecond clock.

    Typical use::

        sim = Simulator()
        sim.schedule(1_000, print, "fires at t=1us")
        sim.run(until_ns=units.seconds(1))

    The loop processes events in ``(time, schedule-order)`` order until the
    queue drains or ``until_ns`` is reached.

    The simulator also anchors the experiment's :class:`SeededRNG` family:
    any component holding a ``sim`` reference can draw from a named,
    deterministically seeded stream (``sim.rng.stream("impair/sw0->sw1")``)
    without threading an RNG through every constructor.
    """

    #: Events run so far, and the heap's live and cancelled entries (a
    #: heap that only grows shows here first).
    COUNTERS = ("events_processed", "pending_events", "cancelled_pending")

    def __init__(self, seed: int = 0) -> None:
        #: Current simulated time in nanoseconds; only :meth:`run` writes.
        self.now_ns = 0
        self._heap: List[Tuple[int, float, Event]] = []
        self._sequence = 0
        self._cancelled = 0
        #: How many times the heap has been compacted (observability).
        self.compactions = 0
        self._running = False
        self.events_processed = 0
        #: Named-stream RNG family for every stochastic component in this
        #: simulation (link impairments, probe jitter, workloads).
        self.rng = SeededRNG(seed)

    @property
    def now_seconds(self) -> float:
        """Current simulated time in seconds (for reporting only)."""
        return self.now_ns / 1_000_000_000

    @property
    def pending_events(self) -> int:
        """Number of live events still queued.

        Cancelled stragglers awaiting lazy deletion are *not* counted (they
        will never fire); see :meth:`cancelled_pending` for those.
        """
        return len(self._heap) - self._cancelled

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap entries (lazy deletion)."""
        return self._cancelled

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
        time_ns = self.now_ns + delay_ns
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time_ns, sequence, callback, args, self)
        heappush(self._heap, (time_ns, sequence, event))
        return event

    def schedule_at(self, time_ns: int, callback: Callable[..., None],
                    *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``."""
        if time_ns < self.now_ns:
            raise SimulationError(
                f"cannot schedule at t={time_ns}, already at t={self.now_ns}"
            )
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time_ns, sequence, callback, args, self)
        heappush(self._heap, (time_ns, sequence, event))
        return event

    @property
    def next_sequence(self) -> int:
        """The sequence number the next scheduled event takes."""
        return self._sequence

    def schedule_ordered(self, time_ns: int, sequence: float,
                         callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at ``time_ns`` in the place of
        ``sequence`` among the events due then.

        ``sequence`` is a number :attr:`next_sequence` gave earlier, plus
        a fraction: no pending event may share it at ``time_ns``.
        """
        if time_ns < self.now_ns:
            raise SimulationError(
                f"cannot schedule at t={time_ns}, already at t={self.now_ns}"
            )
        event = Event(time_ns, sequence, callback, args, self)
        heappush(self._heap, (time_ns, sequence, event))
        return event

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
        processed = 0
        # compact() rebuilds this list in place, so the alias stays valid
        # when a callback's cancellations trigger it.
        heap = self._heap
        try:
            while heap:
                time_ns, _, event = heap[0]
                if event.cancelled:
                    # Stragglers at the head are purged, horizon or not.
                    heappop(heap)
                    self._cancelled -= 1
                    event._sim = None
                    continue
                if until_ns is not None and time_ns >= until_ns:
                    break
                heappop(heap)
                event._sim = None
                self.now_ns = time_ns
                event.callback(*event.args)
                processed += 1
        finally:
            self._running = False
            # Counted even when a callback raises: every event whose
            # callback returned was processed.
            self.events_processed += processed
        if until_ns is not None:
            self.now_ns = max(self.now_ns, until_ns)
        return processed

    def compact(self) -> int:
        """Purge cancelled stragglers and re-heapify; returns purged count.

        Normally triggered automatically from :meth:`Event.cancel` when
        stragglers exceed :data:`COMPACT_FRACTION` of the heap, but safe to
        call at any point, from a callback too — compaction preserves
        ``(time_ns, sequence)`` firing order exactly.
        """
        if not self._cancelled:
            return 0
        heap = self._heap
        live = []
        for entry in heap:
            if entry[2].cancelled:
                entry[2]._sim = None
            else:
                live.append(entry)
        purged = len(heap) - len(live)
        heap[:] = live
        heapify(heap)
        self._cancelled = 0
        self.compactions += 1
        return purged

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (self._cancelled >= COMPACT_MIN_CANCELLED
                and self._cancelled > COMPACT_FRACTION * len(self._heap)):
            self.compact()
