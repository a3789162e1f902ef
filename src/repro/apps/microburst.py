"""Micro-burst detection (paper §2.1).

"Queue occupancy fluctuations due to small-timescale congestion (i.e.
micro-bursts) are hard to detect as queues change at timescales of a few
RTTs ... Today's monitoring mechanisms operate only on timescales that are
10s of seconds at best."

Pieces:

- :class:`TelemetryStream` — per-RTT (or faster) TPP probing of
  ``[Queue:QueueSize]`` along a path; one queue-occupancy time series per
  hop, recorded the instant each probe traversed the switch.
- :class:`CoarsePoller` — the strawman it beats: an SNMP-style
  control-plane poller reading the same queue every ``interval`` (default
  10 s).
- :class:`BurstDetector` — turns an occupancy series into discrete bursts
  (threshold crossings) and computes recall against ground truth, which is
  how the E6/E9 benchmarks score visibility granularities.
- :class:`BurstyTrafficGenerator` — an ON/OFF cross-traffic source that
  creates genuine 100 µs-scale bursts.
- :class:`HeavyHitterMonitor` — the per-flow upgrade of the one-counter-
  per-queue pipeline above: a heavy-hitter sketch in the congested
  switch's scratch SRAM, updated by certified per-flow TPPs and decoded
  on the end host, answers *which flows* caused the burst, not just that
  a queue filled.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.analysis.timeseries import TimeSeries
from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint, TPPResultView
from repro.endhost.flows import Flow
from repro.endhost.probes import PeriodicProber
from repro.net.host import Host
from repro.net.port import Port
from repro.sim.simulator import Simulator
from repro.sim.timers import OneShotTimer, PeriodicTimer

TELEMETRY_PROGRAM = """
PUSH [Switch:SwitchID]
PUSH [Queue:QueueSize]
"""

DEFAULT_COARSE_INTERVAL_NS = 10_000_000_000  # "10s of seconds at best"


class TelemetryStream:
    """TPP-based queue telemetry along one path."""

    def __init__(self, src: Host, dst_mac: int, interval_ns: int,
                 hops: int = 8) -> None:
        self.src = src
        endpoint = getattr(src, "tpp", None)
        if endpoint is None:
            endpoint = TPPEndpoint(src)
            src.tpp = endpoint
        self.endpoint = endpoint
        self.program = assemble(TELEMETRY_PROGRAM, hops=hops)
        #: The prober's deadline + outstanding cap keep telemetry alive
        #: (and its pending table bounded) when probes are being lost —
        #: a sample stream with holes still catches bursts; a stalled
        #: prober catches nothing.
        self.prober = PeriodicProber(endpoint, self.program, interval_ns,
                                     self._on_result, dst_mac=dst_mac)
        #: One occupancy series per switch id observed on the path.
        self.queue_series: Dict[int, TimeSeries] = {}
        self.samples = 0
        self.faulted_probes = 0

    def start(self, first_delay_ns: Optional[int] = None) -> None:
        """Begin probing."""
        self.prober.start(first_delay_ns)

    def _on_result(self, result: TPPResultView) -> None:
        if not result.ok:
            self.faulted_probes += 1
            return
        for switch_id, queue_bytes in result.per_hop_words():
            series = self.queue_series.get(switch_id)
            if series is None:
                series = TimeSeries(f"queue.sw{switch_id}")
                self.queue_series[switch_id] = series
            series.append(result.time_ns, queue_bytes)
            self.samples += 1

    def series_for(self, switch_id: int) -> TimeSeries:
        """Occupancy series observed at one switch."""
        return self.queue_series[switch_id]


class CoarsePoller:
    """Control-plane strawman: direct periodic reads of one queue.

    Reads ``port.queue.occupancy_bytes`` out-of-band (no packets), the way
    an SNMP/CLI poller would, at a fixed interval.
    """

    def __init__(self, sim: Simulator, port: Port,
                 interval_ns: int = DEFAULT_COARSE_INTERVAL_NS,
                 name: str = "coarse") -> None:
        self.series = TimeSeries(name)
        self._port = port
        self._sim = sim
        self._timer = PeriodicTimer(sim, interval_ns, self._poll)

    def start(self) -> None:
        """Begin polling (first sample after one interval)."""
        self._timer.start()

    def _poll(self) -> None:
        self.series.append(self._sim.now_ns,
                           self._port.queue.occupancy_bytes)


@dataclass(frozen=True)
class Burst:
    """One detected occupancy excursion above the threshold."""

    start_ns: int
    end_ns: int
    peak_bytes: float

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def overlaps(self, other: "Burst", slack_ns: int = 0) -> bool:
        """Whether two bursts intersect in time (with optional slack)."""
        return (self.start_ns - slack_ns <= other.end_ns
                and other.start_ns - slack_ns <= self.end_ns)


class BurstDetector:
    """Threshold-based burst extraction from an occupancy series."""

    def __init__(self, threshold_bytes: float,
                 min_duration_ns: int = 0) -> None:
        if threshold_bytes <= 0:
            raise ValueError(
                f"threshold must be positive: {threshold_bytes}")
        self.threshold_bytes = threshold_bytes
        self.min_duration_ns = min_duration_ns

    def detect(self, series: TimeSeries) -> List[Burst]:
        """Contiguous runs of samples above the threshold."""
        bursts: List[Burst] = []
        start: Optional[int] = None
        last_time = 0
        peak = 0.0
        for time_ns, value in series.samples():
            if value >= self.threshold_bytes:
                if start is None:
                    start = time_ns
                    peak = value
                else:
                    peak = max(peak, value)
                last_time = time_ns
            elif start is not None:
                self._close(bursts, start, last_time, peak)
                start = None
        if start is not None:
            self._close(bursts, start, last_time, peak)
        return bursts

    def _close(self, bursts: List[Burst], start: int, end: int,
               peak: float) -> None:
        if end - start >= self.min_duration_ns:
            bursts.append(Burst(start, end, peak))

    @staticmethod
    def recall(detected: Sequence[Burst], truth: Sequence[Burst],
               slack_ns: int = 0) -> float:
        """Fraction of ground-truth bursts that overlap a detection."""
        if not truth:
            return 1.0
        hits = sum(1 for true_burst in truth
                   if any(true_burst.overlaps(d, slack_ns) for d in detected))
        return hits / len(truth)


class BurstyTrafficGenerator:
    """ON/OFF cross traffic: short line-rate bursts, quiet gaps.

    During ON periods the flow sends at ``burst_rate_bps`` (above the
    bottleneck drain rate, so the queue ramps); during OFF periods it is
    silent and the queue drains — the classic micro-burst shape.  ON/OFF
    durations are exponential around the configured means, driven by a
    seeded RNG for reproducibility.  The exact ON windows are recorded so
    experiments have ground truth for when bursts were offered.
    """

    def __init__(self, flow: Flow, burst_rate_bps: int,
                 on_mean_ns: int, off_mean_ns: int,
                 rng: random.Random) -> None:
        self.flow = flow
        self.burst_rate_bps = burst_rate_bps
        self.on_mean_ns = on_mean_ns
        self.off_mean_ns = off_mean_ns
        self._rng = rng
        self._sim = flow.src.sim
        self._timer = OneShotTimer(self._sim, self._toggle)
        self._on = False
        self._running = False
        self.on_windows: List[Burst] = []
        self._window_start = 0

    def start(self) -> None:
        """Start in the OFF state; first burst after one OFF period."""
        self._running = True
        self.flow.set_rate(0)
        self.flow.start()
        self._timer.start(self._duration(self.off_mean_ns))

    def stop(self) -> None:
        """Stop generating (closes an open ON window)."""
        self._running = False
        self._timer.cancel()
        if self._on:
            self._end_on_window()
        self.flow.stop()

    def _duration(self, mean_ns: int) -> int:
        return max(1, round(self._rng.expovariate(1.0 / mean_ns)))

    def _toggle(self) -> None:
        if not self._running:
            return
        if self._on:
            self._end_on_window()
            self.flow.set_rate(0)
            self._timer.start(self._duration(self.off_mean_ns))
        else:
            self._on = True
            self._window_start = self._sim.now_ns
            self.flow.set_rate(self.burst_rate_bps)
            self._timer.start(self._duration(self.on_mean_ns))

    def _end_on_window(self) -> None:
        self._on = False
        self.on_windows.append(Burst(self._window_start, self._sim.now_ns,
                                     peak_bytes=0.0))


class _ControlPort:
    """Minimal egress-port stand-in for monitor-injected TPPs."""

    index = 0
    queue = None


class HeavyHitterMonitor:
    """Per-flow heavy-hitter detection at one switch.

    The queue-occupancy pipeline above answers *when* a micro-burst
    happened; this monitor answers *which flows* filled the queue.  It
    owns a :class:`~repro.telemetry.layout.HeavyHitterLayout` block of
    the switch's scratch SRAM (registered through the memory map,
    allocated through the MMU so TPP007 protection applies), generates
    one certified update TPP per flow key on first sight, registers each
    with :meth:`~repro.core.tcpu.TCPU.trust` so the fleet race table
    models the shared counters, and decodes estimates through probe
    TPPs plus :class:`~repro.analysis.sketch.HeavyHitterDecoder`.

    Its TCPU's ``race_mode`` is ``"warn"``: updaters for keys whose
    counters collide under the layout's hashes carry a genuine TPP020
    write-write race (count-min *depends* on colliding increments —
    estimates stay overestimate-only either way), so the monitor records
    the diagnostics rather than refusing the updater.
    """

    def __init__(self, mmu, layout, task_id: int = 1) -> None:
        from repro.asic.metadata import PacketMetadata
        from repro.core.mmu import ExecutionContext
        from repro.core.tcpu import TCPU

        self.mmu = mmu
        self.layout = layout
        self.task_id = task_id
        layout.register(mmu.memory_map)
        self.region = layout.allocate(mmu, task_id)
        # 2*depth + 1 instructions per update; probes chunk to <= 5.
        self.tcpu = TCPU(mmu, max_instructions=max(5, 2 * layout.depth + 1),
                         name="hh-monitor")
        def make_ctx():
            return ExecutionContext(metadata=PacketMetadata(),
                                    egress_port=_ControlPort())
        self._make_ctx = make_ctx
        self._updates: Dict[int, object] = {}
        self.packets_observed = 0
        self.updaters_refused = 0

    def updater_for(self, key: int):
        """The certified update program for ``key`` (cached; generated
        and admitted to the race table on first use)."""
        from repro.telemetry.programs import build_heavy_hitter_update
        update = self._updates.get(key)
        if update is None:
            update = build_heavy_hitter_update(
                self.layout, key, task_id=self.task_id,
                memory_map=self.mmu.memory_map)
            if not self.tcpu.trust(update.certificate):
                self.updaters_refused += 1
            self._updates[key] = update
        return update

    def observe(self, key: int, packets: int = 1) -> None:
        """Account ``packets`` arrivals of flow ``key`` (one update TPP
        executed per packet, exactly as in-band deployment would)."""
        update = self.updater_for(key)
        for _ in range(packets):
            report = self.tcpu.execute(update.build(), self._make_ctx())
            if not report.ok:
                raise RuntimeError(
                    f"sketch update faulted: {report.fault.name}")
            self.packets_observed += 1

    def snapshot(self) -> Dict[int, int]:
        """Probe-TPP snapshot of the whole sketch block."""
        from repro.telemetry.programs import read_sketch
        return read_sketch(self.tcpu, list(self.layout.words()),
                           self._make_ctx, task_id=self.task_id,
                           memory_map=self.mmu.memory_map)

    def report(self, k: int = 0):
        """Ranked heavy hitters with (ε, δ) error bounds."""
        from repro.analysis.sketch import HeavyHitterDecoder
        decoder = HeavyHitterDecoder(self.layout)
        return decoder.report(self.snapshot(), k)

    @property
    def race_conflicts(self) -> int:
        """TPP020-TPP023 diagnostics recorded while admitting updaters
        (non-empty whenever observed keys share counter cells)."""
        return len(self.tcpu.race_conflicts)
