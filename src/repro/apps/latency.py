"""Per-hop latency breakdown from in-packet timestamps (§2.1).

The micro-burst example infers queueing latency from queue *sizes*; with
the switch clock mapped into the address space the same machinery can
measure it directly: a hop-addressed TPP records each switch's clock and
the occupancy of the queue the packet is about to join::

    .mode hop
    LOAD [Switch:ClockLo], [Packet:Hop[0]]
    LOAD [Queue:QueueSize], [Packet:Hop[1]]

The difference between consecutive hops' clocks is the packet's actual
per-segment latency — pipeline, queueing, serialization and propagation
— attributed hop by hop, per packet.  This is precisely the measurement
model INT standardized years later.

Clock caveat handled here: the 32-bit ``ClockLo`` wraps every ~4.3 s, so
deltas are computed modulo 2^32 (segment latencies are far below the wrap
period).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.timeseries import TimeSeries
from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint, TPPResultView
from repro.endhost.probes import PeriodicProber
from repro.net.host import Host

PROFILE_PROGRAM = """
.mode hop
LOAD [Switch:SwitchID], [Packet:Hop[0]]
LOAD [Switch:ClockLo], [Packet:Hop[1]]
LOAD [Queue:QueueSize], [Packet:Hop[2]]
"""

_WRAP = 1 << 32


def clock_delta_ns(later: int, earlier: int) -> int:
    """Difference of two 32-bit clock samples, wrap-aware."""
    return (later - earlier) % _WRAP


@dataclass
class HopTiming:
    """One segment of a packet's journey."""

    switch_id: int
    arrival_clock_ns: int
    queue_bytes: int
    #: Time from the *previous* switch's pipeline to this one's —
    #: queueing + serialization + propagation of the segment in between.
    #: ``None`` on the first hop (no upstream switch to diff against).
    segment_latency_ns: Optional[int] = None


@dataclass
class PathProfile:
    """Decoded per-hop timing of one probe."""

    hops: List[HopTiming]
    received_at_ns: int

    def total_network_latency_ns(self) -> int:
        """First-to-last switch latency seen by this packet."""
        if len(self.hops) < 2:
            return 0
        return clock_delta_ns(self.hops[-1].arrival_clock_ns,
                              self.hops[0].arrival_clock_ns)

    def worst_segment(self) -> Optional[HopTiming]:
        """The hop whose inbound segment contributed the most latency."""
        candidates = [hop for hop in self.hops
                      if hop.segment_latency_ns is not None]
        if not candidates:
            return None
        return max(candidates, key=lambda hop: hop.segment_latency_ns)


class LatencyProfiler:
    """Periodic per-hop latency profiling of one path."""

    def __init__(self, src: Host, dst_mac: int, interval_ns: int,
                 max_hops: int = 8) -> None:
        endpoint = getattr(src, "tpp", None)
        if endpoint is None:
            endpoint = TPPEndpoint(src)
            src.tpp = endpoint
        self.endpoint = endpoint
        self.program = assemble(PROFILE_PROGRAM, hops=max_hops)
        self.prober = PeriodicProber(endpoint, self.program, interval_ns,
                                     self._on_result, dst_mac=dst_mac)
        self.profiles: List[PathProfile] = []
        #: Per-switch time series of inbound segment latency.
        self.segment_series: Dict[int, TimeSeries] = {}

    def start(self, first_delay_ns: Optional[int] = None) -> None:
        """Begin profiling."""
        self.prober.start(first_delay_ns)

    def _on_result(self, result: TPPResultView) -> None:
        if not result.ok:
            return
        profile = decode_profile(result)
        self.profiles.append(profile)
        for hop in profile.hops:
            if hop.segment_latency_ns is None:
                continue
            series = self.segment_series.get(hop.switch_id)
            if series is None:
                series = TimeSeries(f"segment.sw{hop.switch_id}")
                self.segment_series[hop.switch_id] = series
            series.append(result.time_ns, hop.segment_latency_ns)

def decode_profile(result: TPPResultView) -> PathProfile:
    """Turn a returned profile TPP into a :class:`PathProfile`."""
    hops: List[HopTiming] = []
    previous_clock: Optional[int] = None
    for switch_id, clock, queue_bytes in result.per_hop_words():
        timing = HopTiming(switch_id=switch_id, arrival_clock_ns=clock,
                           queue_bytes=queue_bytes)
        if previous_clock is not None:
            timing.segment_latency_ns = clock_delta_ns(clock,
                                                       previous_clock)
        hops.append(timing)
        previous_clock = clock
    return PathProfile(hops=hops, received_at_ns=result.time_ns)
