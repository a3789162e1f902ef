"""Per-flow rate limiting (the enforcement half of RCP*).

"The implementation consists of a rate limiter and a rate controller at
end-hosts for every flow" (§2.2).  :class:`PacedSender` is that rate
limiter: a token-bucket shaper metered in bytes against the simulated
clock that emits fixed-size datagrams whenever tokens allow.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.events import Event
from repro.sim.simulator import Simulator


class PacedSender:
    """Emits fixed-size packets at a controllable rate.

    ``send_fn(packet_bytes)`` is called for every emission; the caller
    builds and transmits the actual datagram.  Tokens accrue at the
    pacing rate up to ``burst_bytes`` (default: two packets), and each
    packet spends its size in tokens.  The sender self-schedules: after
    each emission it sleeps exactly until the bucket can cover the next
    packet, so the achieved rate tracks the configured rate without busy
    polling.
    """

    def __init__(self, sim: Simulator, rate_bps: int, packet_bytes: int,
                 send_fn: Callable[[int], None],
                 burst_bytes: Optional[int] = None) -> None:
        if packet_bytes <= 0:
            raise ValueError(f"packet size must be positive: {packet_bytes}")
        if rate_bps < 0:
            raise ValueError(f"rate must be >= 0, got {rate_bps}")
        if burst_bytes is None:
            burst_bytes = 2 * packet_bytes
        self.sim = sim
        self.packet_bytes = packet_bytes
        self.send_fn = send_fn
        self.burst_bytes = burst_bytes
        self._rate_bps = rate_bps
        self._tokens = float(burst_bytes)
        self._refilled_ns = sim.now_ns
        self._wake: Optional[Event] = None
        self._running = False
        self.packets_sent = 0
        self.bytes_sent = 0

    @property
    def rate_bps(self) -> int:
        """Current pacing rate."""
        return self._rate_bps

    def set_rate(self, rate_bps: int) -> None:
        """Change the pacing rate (tokens accrue at the old rate up to
        now); wakes the pump if a zero rate had starved it."""
        now = self.sim.now_ns
        self._tokens = min(self.burst_bytes,
                           self._tokens + (now - self._refilled_ns) / 1e9
                           * self._rate_bps / 8)
        self._refilled_ns = now
        was_zero = self._rate_bps == 0
        self._rate_bps = max(0, int(rate_bps))
        if self._running and was_zero and rate_bps > 0:
            # Starved at rate zero, the bucket cannot cover a packet, so
            # the pump only sleeps until it will.
            if self._wake is not None:
                self._wake.cancel()
            self._pump()

    def start(self) -> None:
        """Begin emitting packets."""
        if self._running:
            return
        self._running = True
        self._pump()

    def stop(self) -> None:
        """Stop emitting packets (also from inside ``send_fn``)."""
        self._running = False
        if self._wake is not None:
            self._wake.cancel()
            self._wake = None

    def _pump(self) -> None:
        """Refill, send while the bucket covers a packet, then sleep
        until it will again — in one frame: this runs for every paced
        packet."""
        self._wake = None
        if not self._running:
            return
        now = self.sim.now_ns
        size = self.packet_bytes
        tokens = min(self.burst_bytes,
                     self._tokens + (now - self._refilled_ns) / 1e9
                     * self._rate_bps / 8)
        self._refilled_ns = now
        while tokens >= size:
            self._tokens = tokens = tokens - size
            self.send_fn(size)
            self.packets_sent += 1
            self.bytes_sent += size
            if not self._running:
                return
            # send_fn may have changed the rate; set_rate's refill adds
            # nothing at the same instant.
            tokens = self._tokens
        self._tokens = tokens
        if self._wake is not None:
            # A pump woken by set_rate inside send_fn already slept.
            self._wake.cancel()
            self._wake = None
        rate = self._rate_bps
        if rate:  # at rate zero, set_rate() restarts the pump
            self._wake = self.sim.schedule(
                max(1, round((size - tokens) * 8 / rate * 1e9)), self._pump)
