"""Periodic TPP probing.

RCP*'s rate controller "periodically (using the flow's packets, or using
additional probe packets) queries and modifies network state" (§2.2).  This
module is the *additional probe packets* path: a timer that fires a program
at a fixed (optionally jittered) interval and routes each echoed result to
a callback.

On lossy networks the prober degrades gracefully instead of leaking state:
every probe carries a deadline (at least :data:`TIMEOUT_INTERVALS` probe
periods), the number of outstanding probes is capped (a blackhole cannot
exhaust the endpoint's sequence window), and an EWMA over
answered-vs-expired probes gives the caller a live loss-rate estimate.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.assembler import AssembledProgram
from repro.endhost.client import (
    DEFAULT_RTT_MULTIPLIER,
    ProbeRequest,
    RetryPolicy,
    TPPEndpoint,
    TPPResultView,
)
from repro.sim.timers import PeriodicTimer

#: Weight of each completed probe in the loss-rate EWMA.
LOSS_EWMA_ALPHA = 0.1

#: The per-probe deadline's floor, in probing periods.  Deliberately
#: loose: before the endpoint has an RTT estimate the floor is all that
#: separates "lost" from "stuck behind a queue", and the
#: ``max_outstanding`` cap (not the deadline) is what bounds in-flight
#: state in the meantime.
TIMEOUT_INTERVALS = 20.0


class PeriodicProber:
    """Sends a TPP program every ``interval_ns``.

    Each probe's deadline is adaptive, floored at
    :data:`TIMEOUT_INTERVALS` probing periods; ``retry_policy``
    overrides that derived policy entirely.
    ``max_outstanding`` caps in-flight probes; a probe whose turn
    arrives at the cap is suppressed and counted, not queued.
    """

    def __init__(self, endpoint: TPPEndpoint, program: AssembledProgram,
                 interval_ns: int,
                 on_result: Callable[[TPPResultView], None],
                 dst_mac: Optional[int] = None, task_id: int = 0,
                 jitter_fraction: float = 0.0,
                 retry_policy: Optional[RetryPolicy] = None,
                 max_outstanding: int = 16,
                 on_timeout: Optional[Callable[[ProbeRequest], None]] = None,
                 ) -> None:
        if max_outstanding < 1:
            raise ValueError(
                f"max_outstanding must be >= 1: {max_outstanding}")
        # Fail construction, not every tick: an endpoint that would
        # reject this program (enforce-mode verification, or a hop
        # budget it cannot satisfy) would do so on each _fire() anyway,
        # so surface the verifier's diagnostics where the experiment is
        # being built.  budget() also applies auto-sizing once, so the
        # prober fires the correctly-sized program from the start.
        program = endpoint.budget(program)
        if endpoint.verify_mode == "enforce":
            endpoint.admit(program).raise_on_error()
        self.endpoint = endpoint
        self.program = program
        self.interval_ns = interval_ns
        self.on_result = on_result
        self.dst_mac = dst_mac
        self.task_id = task_id
        self.jitter_fraction = jitter_fraction
        # A named stream from the simulator's family: jitter is
        # deterministic per seed.
        self._rng = endpoint.host.sim.rng.stream(
            f"prober/{endpoint.host.name}/task{task_id}")
        if retry_policy is None:
            # Adaptive deadline: TIMEOUT_INTERVALS periods is only a
            # floor; once the endpoint has an echo-RTT estimate the
            # deadline tracks it, so congestion delay on the probed path
            # is not misread as loss.
            retry_policy = RetryPolicy(
                timeout_ns=max(1, round(TIMEOUT_INTERVALS * interval_ns)),
                rtt_multiplier=DEFAULT_RTT_MULTIPLIER)
        self.retry_policy = retry_policy
        self.max_outstanding = max_outstanding
        self.on_timeout = on_timeout
        self._timer = PeriodicTimer(endpoint.host.sim, interval_ns,
                                    self._fire)
        self.probes_sent = 0
        self.results_received = 0
        self.probes_timed_out = 0
        self.probes_suppressed = 0
        self.outstanding = 0
        #: EWMA of probe loss (1 = expired, 0 = answered); only meaningful
        #: once a few probes have completed.
        self.loss_rate_estimate = 0.0
        self._completed_probes = 0

    def start(self, first_delay_ns: Optional[int] = None) -> None:
        """Begin probing; the first probe defaults to one jittered
        interval from now (jitter decorrelates concurrent flows)."""
        if first_delay_ns is None:
            first_delay_ns = self._jittered_interval()
        self._timer.start(first_delay_ns)

    def stop(self) -> None:
        """Stop probing; in-flight probes may still return."""
        self._timer.stop()

    def _fire(self) -> None:
        # Re-jitter each period by adjusting the next firing.
        if self.jitter_fraction > 0.0:
            self._timer.start(self._jittered_interval())
        if self.outstanding >= self.max_outstanding:
            self.probes_suppressed += 1
            return
        self.probes_sent += 1
        self.outstanding += 1
        self.endpoint.send(self.program, dst_mac=self.dst_mac,
                           task_id=self.task_id, on_response=self._on_result,
                           on_timeout=self._on_probe_timeout,
                           retry_policy=self.retry_policy)

    def _jittered_interval(self) -> int:
        if self.jitter_fraction <= 0.0:
            return self.interval_ns
        spread = self.jitter_fraction * self.interval_ns
        return max(1, round(self.interval_ns
                            + self._rng.uniform(-spread, spread)))

    def _fold_loss(self, lost: float) -> None:
        self._completed_probes += 1
        if self._completed_probes == 1:
            self.loss_rate_estimate = lost
        else:
            self.loss_rate_estimate += LOSS_EWMA_ALPHA * (
                lost - self.loss_rate_estimate)

    def _on_result(self, result: TPPResultView) -> None:
        self.results_received += 1
        self.outstanding = max(0, self.outstanding - 1)
        self._fold_loss(0.0)
        self.on_result(result)

    def _on_probe_timeout(self, record: ProbeRequest) -> None:
        self.probes_timed_out += 1
        self.outstanding = max(0, self.outstanding - 1)
        self._fold_loss(1.0)
        if self.on_timeout is not None:
            self.on_timeout(record)
