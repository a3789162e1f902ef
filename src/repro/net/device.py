"""The interface every packet-handling node implements.

Links deliver frames by calling :meth:`Device.receive` with the index of the
arrival port.  Hosts and switches both subclass :class:`Device`.
"""

from __future__ import annotations

from collections import defaultdict
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.packet import EthernetFrame
    from repro.net.port import Port


class Device:
    """A named node with numbered ports attached to a simulator."""

    #: Whether this device defers same-instant arrivals for batched
    #: processing.  Links only maintain the ``inbound_at`` ledger for
    #: devices that opt in (the TPP switch); for everything else the
    #: announcements would be dead weight on the delivery hot path.
    batches_ingress = False

    def __init__(self, sim: Simulator, name: str,
                 trace: Optional[TraceRecorder] = None) -> None:
        self.sim = sim
        self.name = name
        self.trace = (trace if trace is not None
                      else TraceRecorder(enabled=False))
        self.ports: List["Port"] = []
        #: In-flight link arrivals, keyed by absolute arrival time.  Each
        #: :class:`~repro.net.link.Link` increments the destination's count
        #: when it schedules a delivery and retires the entry as frames
        #: land.  Maintained by the link layer; devices read the digest
        #: below instead.
        self.inbound_at: Dict[int, int] = defaultdict(int)
        #: Digest of the ledger, refreshed by the delivering link just
        #: before each ``receive`` callback: the number of *other* frames
        #: still due this instant.  The switch uses this to run its
        #: pipeline inline when no same-instant batch is possible.  Every
        #: announced arrival is eventually retired — delivered to
        #: ``receive``, or written off by a loss tombstone when the copy
        #: dies in flight — so the count always returns to zero by the
        #: end of each instant and stale instants cannot accumulate.
        self.inbound_now = 0

    def add_port(self, port: "Port") -> int:
        """Attach a port; returns its index on this device."""
        port.device = self
        port.index = len(self.ports)
        self.ports.append(port)
        return port.index

    def receive(self, frame: "EthernetFrame", in_port: int) -> None:
        """Handle a frame arriving on ``in_port``.  Subclasses override."""
        raise NotImplementedError
