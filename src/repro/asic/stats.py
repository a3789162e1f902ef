"""Per-port statistics maintenance: utilization EWMAs and queue averages.

The ASIC "already keeps track of per-port, per-queue occupancies in its
registers" (§2.1); what it additionally maintains for RCP-style control is
smoothed link utilization and average queue size.  These are computed by a
periodic sampler:

- :class:`UtilizationMeter` — EWMA of a byte counter's growth rate,
  expressed in milli-fractions of the line rate (integer, because TPPs move
  integer words).  ``Link:RX-Utilization`` measures *offered load into the
  egress link* (bytes admitted to the queue plus bytes dropped at it, i.e.
  y(t) in the RCP control equation), and ``Link:TX-Utilization`` measures
  the drain rate.
- :class:`QueueAverager` — EWMA of instantaneous queue occupancy in bytes
  (q(t) in the RCP equation).
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.port import Port
from repro.sim.simulator import Simulator
from repro.sim.timers import PeriodicTimer

DEFAULT_STATS_INTERVAL_NS = 1_000_000  # 1 ms
DEFAULT_EWMA_ALPHA = 0.5


class UtilizationMeter:
    """EWMA of a cumulative byte counter's rate, in milli-line-rate."""

    def __init__(self, counter: Callable[[], int], rate_bps: int,
                 alpha: float = DEFAULT_EWMA_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self._counter = counter
        self._rate_bps = rate_bps
        self._alpha = alpha
        self._last_count = counter()
        self._utilization = 0.0

    @property
    def utilization_milli(self) -> int:
        """Integer milli-fraction exported to the TPP address space."""
        return round(self._utilization * 1000)

    def sample(self, interval_ns: int) -> float:
        """Fold in the bytes accumulated since the previous sample."""
        count = self._counter()
        delta_bytes = count - self._last_count
        self._last_count = count
        interval_s = interval_ns / 1e9
        instantaneous = (delta_bytes * 8 / interval_s) / self._rate_bps
        self._utilization += self._alpha * (instantaneous - self._utilization)
        return self._utilization


class QueueAverager:
    """EWMA of instantaneous queue occupancy in bytes."""

    def __init__(self, occupancy: Callable[[], int],
                 alpha: float = DEFAULT_EWMA_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self._occupancy = occupancy
        self._alpha = alpha
        self._average = 0.0

    @property
    def average_bytes(self) -> int:
        """Current EWMA occupancy, rounded to whole bytes."""
        return round(self._average)

    def sample(self) -> float:
        """Fold in the current instantaneous occupancy."""
        self._average += self._alpha * (self._occupancy() - self._average)
        return self._average


class PortStats:
    """All smoothed statistics for one port (aggregated over its queues,
    plus one occupancy averager per queue)."""

    def __init__(self, port: Port, alpha: float) -> None:
        self.rx_utilization = UtilizationMeter(
            port.offered_bytes, port.rate_bps, alpha)
        self.tx_utilization = UtilizationMeter(
            lambda: port.tx_bytes, port.rate_bps, alpha)
        self.per_queue_avg = [
            QueueAverager(
                (lambda q: lambda: q.occupancy_bytes)(queue), alpha)
            for queue in port.queues
        ]

    def avg_queue_for(self, queue_id: int) -> QueueAverager:
        """The averager for a specific egress queue."""
        return self.per_queue_avg[min(queue_id,
                                      len(self.per_queue_avg) - 1)]

    def sample(self, interval_ns: int) -> None:
        self.rx_utilization.sample(interval_ns)
        self.tx_utilization.sample(interval_ns)
        for averager in self.per_queue_avg:
            averager.sample()


class SwitchStats:
    """Periodic sampler that owns the per-port statistics of one switch.

    Created by :meth:`repro.asic.switch.TPPSwitch.start_stats`; a port
    added later is adopted, and first sampled, at the next tick.
    """

    def __init__(self, sim: Simulator, ports: List[Port],
                 interval_ns: int = DEFAULT_STATS_INTERVAL_NS,
                 alpha: float = DEFAULT_EWMA_ALPHA) -> None:
        self.interval_ns = interval_ns
        self._alpha = alpha
        self._ports = ports  # the switch's live list
        self._per_port = [PortStats(port, alpha) for port in ports]
        self._timer = PeriodicTimer(sim, interval_ns, self._tick)

    def start(self) -> None:
        """Begin sampling every ``interval_ns``."""
        self._timer.start()

    def port(self, index: int) -> Optional[PortStats]:
        """The statistics block for a port index (``None`` until the
        port's first tick)."""
        per_port = self._per_port
        return per_port[index] if index < len(per_port) else None

    def _tick(self) -> None:
        per_port = self._per_port
        for port in self._ports[len(per_port):]:
            per_port.append(PortStats(port, self._alpha))
        for stats in per_port:
            stats.sample(self.interval_ns)
