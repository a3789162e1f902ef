"""Egress schedulers for multi-queue ports.

Figure 3's pipeline ends in "egress queues and scheduling": the scheduler
decides, using packet metadata such as priority, when each buffered packet
is transmitted.  The port's queue count picks the discipline:

- :class:`FifoScheduler` — single service order across one queue;
- :class:`StrictPriorityScheduler` — for more than one queue: queue 0 is
  highest priority and always drains first (can starve lower classes —
  by design).

A scheduler only picks *which queue* sends next; the port owns timing.
"""

from __future__ import annotations

from typing import List, Optional, Union

from repro.net.queues import DropTailQueue


class FifoScheduler:
    """Serve the single queue in arrival order."""

    def select(self, queues: List[DropTailQueue]) -> Optional[int]:
        """Index of the next queue to serve, or ``None`` if all empty."""
        return 0 if len(queues[0]) else None


class StrictPriorityScheduler:
    """Always serve the lowest-indexed non-empty queue."""

    def select(self, queues: List[DropTailQueue]) -> Optional[int]:
        """Index of the highest-priority backlogged queue."""
        for index, queue in enumerate(queues):
            if len(queue):
                return index
        return None


Scheduler = Union[FifoScheduler, StrictPriorityScheduler]
