"""Event objects and the pending-event queue.

Events are ordered by ``(time_ns, sequence)``: two events scheduled for the
same instant fire in the order they were scheduled.  This determinism matters
for reproducibility — RCP convergence traces and ndb packet orderings must be
identical across runs with the same seed.

Hot-path representation
-----------------------

The heap holds plain ``(time_ns, sequence, event)`` tuples rather than the
:class:`Event` objects themselves, so every sift comparison is a C-level
tuple comparison of two ints (``sequence`` is unique, so the event object is
never compared).  :class:`Event` itself uses ``__slots__``; it exists only as
the cancellation handle returned to callers.

Cancellation is lazy — :meth:`Event.cancel` marks the handle and the heap
entry is discarded when it reaches the top — but no longer unbounded: the
queue counts cancelled stragglers and compacts (filter + re-heapify) once
they exceed a configurable fraction of the heap.  Timer re-arming churn
(RCP retransmission logic restarts its one-shot timer on every packet)
otherwise grows the heap without bound.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

#: Below this many cancelled stragglers compaction is never attempted —
#: filtering a tiny heap costs more than the stragglers' memory.
DEFAULT_COMPACT_MIN_CANCELLED = 64

#: Compact when cancelled stragglers exceed this fraction of heap entries
#: (i.e. the live fraction drops below ``1 - fraction``).
DEFAULT_COMPACT_FRACTION = 0.5


class Event:
    """A single scheduled callback.

    Attributes:
        time_ns: absolute simulated time at which the event fires.
        sequence: monotonically increasing tie-breaker.
        callback: callable invoked as ``callback(*args)`` when fired.
        args: positional arguments for the callback.
        cancelled: set via :meth:`cancel`; cancelled events are skipped
            (lazy deletion — the heap entry stays until popped or the
            queue compacts).
    """

    __slots__ = ("time_ns", "sequence", "callback", "args", "cancelled",
                 "_queue")

    def __init__(self, time_ns: int, sequence: int,
                 callback: Callable[..., None],
                 args: Tuple[Any, ...] = (),
                 cancelled: bool = False) -> None:
        self.time_ns = time_ns
        self.sequence = sequence
        self.callback = callback
        self.args = args
        self.cancelled = cancelled
        # Owning queue while the event sits in its heap; cleared on pop or
        # purge so cancelling a stale handle cannot skew live accounting.
        self._queue: Optional["EventQueue"] = None

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        if not self.cancelled:
            self.cancelled = True
            queue = self._queue
            if queue is not None:
                queue._note_cancelled()

class EventQueue:
    """Min-heap of :class:`Event` with deterministic FIFO tie-breaking."""

    def __init__(self,
                 compact_min_cancelled: int = DEFAULT_COMPACT_MIN_CANCELLED,
                 compact_fraction: float = DEFAULT_COMPACT_FRACTION) -> None:
        self._heap: List[Tuple[int, int, Event]] = []
        self._sequence = 0
        self._cancelled = 0
        self.compact_min_cancelled = compact_min_cancelled
        self.compact_fraction = compact_fraction
        #: How many times the heap has been compacted (observability).
        self.compactions = 0

    @property
    def live_count(self) -> int:
        """Events that will actually fire (cancelled stragglers excluded)."""
        return len(self._heap) - self._cancelled

    @property
    def cancelled_pending(self) -> int:
        """Cancelled events still occupying heap entries."""
        return self._cancelled

    def push(self, time_ns: int, callback: Callable[..., None],
             args: Tuple[Any, ...] = ()) -> Event:
        """Add an event at absolute time ``time_ns`` and return its handle."""
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time_ns, sequence, callback, args)
        event._queue = self
        heapq.heappush(self._heap, (time_ns, sequence, event))
        return event

    def pop_before(self, horizon_ns: Optional[int]) -> Optional[Event]:
        """Pop the earliest live event strictly before ``horizon_ns``.

        Returns ``None`` when the queue is empty or the earliest live event
        is at or past the horizon (that event stays queued).  Cancelled
        stragglers encountered at the head are purged either way.  A
        ``None`` horizon means "no horizon".
        """
        heap = self._heap
        while heap:
            head = heap[0]
            event = head[2]
            if event.cancelled:
                heapq.heappop(heap)
                self._cancelled -= 1
                event._queue = None
                continue
            if horizon_ns is not None and head[0] >= horizon_ns:
                return None
            heapq.heappop(heap)
            event._queue = None
            return event
        return None

    def compact(self) -> int:
        """Purge cancelled stragglers and re-heapify; returns purged count.

        Normally triggered automatically from :meth:`Event.cancel` when
        stragglers exceed ``compact_fraction`` of the heap, but safe to
        call at any point — compaction preserves ``(time_ns, sequence)``
        firing order exactly.
        """
        if not self._cancelled:
            return 0
        live = [entry for entry in self._heap if not entry[2].cancelled]
        purged = len(self._heap) - len(live)
        for entry in self._heap:
            if entry[2].cancelled:
                entry[2]._queue = None
        self._heap = live
        heapq.heapify(live)
        self._cancelled = 0
        self.compactions += 1
        return purged

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (self._cancelled >= self.compact_min_cancelled
                and self._cancelled > self.compact_fraction
                * len(self._heap)):
            self.compact()
