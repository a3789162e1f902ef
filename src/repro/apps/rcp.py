"""RCP* — the end-host Rate Control Protocol of §2.2.

The refactoring the paper demonstrates: the ASIC only supports reads and
writes; the whole control algorithm runs at end-hosts, in three phases per
flow:

**Phase 1 — Collect.**  A stack-addressed probe TPP gathers, per hop::

    PUSH [Switch:SwitchID]
    PUSH [Link:QueueSize]
    PUSH [Link:RX-Utilization]
    PUSH [Link:RCP-RateRegister]
    PUSH [Link:RCP-LastUpdate]

The receiver echoes the fully executed TPP back to the sender.  The
``RCP-RateRegister`` / ``RCP-LastUpdate`` mnemonics name per-port scratch
registers allocated network-wide by the control-plane agent, which also
initializes every rate register to the link capacity (footnote 3).

**Phase 2 — Compute.**  The flow's rate controller smooths its per-link
queue and utilization samples and, for the bottleneck link (the one with
the minimum fair-share register), evaluates the RCP control equation with
T = the *actual* time since the register was last updated.

**Phase 3 — Update.**  A TPP that executes only on the bottleneck switch
(CEXEC on the switch id, exactly the paper's listing) writes the new rate.
Because many flows share the register, the update is made race-free with
the CSTORE/CEXEC combination the paper's instruction set enables::

    CEXEC  [Switch:SwitchID], 0xFFFFFFFF, $switch    ; bottleneck only
    CSTORE [Link:RCP-LastUpdate], $seen_ts, $now_ts  ; atomic claim
    CEXEC  [Link:RCP-LastUpdate], 0xFFFFFFFF, $now_ts ; did we win?
    STORE  [Link:RCP-RateRegister], [Packet:0]       ; commit new rate

A flow that lost the CSTORE race (another flow updated the link since this
flow's last collect) simply does nothing — it will pick up the fresh value
on its next probe.  Congestion control "does not require such strong
notions of consistency" (§2.2), but the linearizable update costs nothing
and keeps the aggregate update rate at ~1/T regardless of flow count.

Between updates, every flow paces its traffic at the minimum fair-share
rate across its path — the rate-limiter half of the implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional

from repro.analysis.timeseries import TimeSeries
from repro.apps.rcp_common import (
    DEFAULT_ALPHA,
    DEFAULT_BETA,
    rcp_rate_update,
)
from repro.control.agent import ControlPlaneAgent
from repro.core.assembler import assemble
from repro.endhost.client import (
    DEFAULT_RTT_MULTIPLIER,
    RetryPolicy,
    TPPEndpoint,
    TPPResultView,
)
from repro.endhost.flows import Flow, FlowSink
from repro.endhost.probes import PeriodicProber
from repro.net.host import Host
from repro.net.packet import ETHERTYPE_IPV4, ETHERTYPE_TPP, EthernetFrame
from repro.sim.timers import PeriodicTimer

COLLECT_PROGRAM = """
PUSH [Switch:SwitchID]
PUSH [Link:QueueSize]
PUSH [Link:RX-Utilization]
PUSH [Link:RCP-RateRegister]
PUSH [Link:RCP-LastUpdate]
"""

UPDATE_PROGRAM = """
.memory 1
.data 0 $NewRate
CEXEC [Switch:SwitchID], 0xFFFFFFFF, $BottleneckSwitchID
CSTORE [Link:RCP-LastUpdate], $SeenTimestamp, $NowTimestamp
CEXEC [Link:RCP-LastUpdate], 0xFFFFFFFF, $NowTimestamp
STORE [Link:RCP-RateRegister], [Packet:0]
"""

#: Rate registers hold kb/s so 10 Gb/s links fit comfortably in a 32-bit
#: word; timestamps are microseconds (wraps after ~71 min of simulation).
RATE_UNIT_BPS = 1000
TIMESTAMP_UNIT_NS = 1000

DEFAULT_PROBE_INTERVAL_NS = 5_000_000   # 5 ms
DEFAULT_UPDATE_INTERVAL_NS = 10_000_000  # T = 10 ms
DEFAULT_SAMPLE_EWMA_ALPHA = 0.3
#: Hops of packet memory preallocated in the collect probe.  Probes are
#: real traffic on the bottleneck, so the preallocation should match the
#: expected path length ("the maximum number of hops is small within a
#: datacenter", §2.1) rather than default to the assembler's worst case.
DEFAULT_MAX_HOPS = 6
#: Collect probes unanswered after this many probe intervals count as
#: lost; the control loop then holds (one miss) or decays (a run of
#: misses) its rate instead of stalling on stale samples.
COLLECT_TIMEOUT_INTERVALS = 3
#: Multiplicative rate decay per consecutive missed collect beyond the
#: first, and the floor it stops at (a fraction of link capacity).
MISS_DECAY = 0.7
MISS_RATE_FLOOR_FRACTION = 0.01


@dataclass
class LinkSample:
    """Smoothed per-link state a flow maintains from its probes.

    Smoothing is *time-constant* based, not per-sample: the weight of a
    new sample is ``1 - exp(-dt / tau)`` for the elapsed time since the
    previous one.  This keeps the control loop's effective bandwidth
    independent of the probing cadence — essential for piggybacked
    probes, whose rate rises and falls with the flow's own rate.
    """

    switch_id: int
    queue_bytes_avg: float = 0.0
    utilization_avg: float = 0.0
    rate_register_bps: float = 0.0
    last_update_ts: int = 0
    samples: int = 0
    last_sample_ns: int = 0

    def fold(self, queue_bytes: int, utilization: float,
             rate_register_bps: float, last_update_ts: int,
             now_ns: int, tau_ns: float) -> None:
        if self.samples == 0:
            self.queue_bytes_avg = float(queue_bytes)
            self.utilization_avg = utilization
        else:
            dt = max(1, now_ns - self.last_sample_ns)
            weight = 1.0 - math.exp(-dt / tau_ns)
            self.queue_bytes_avg += weight * (queue_bytes
                                              - self.queue_bytes_avg)
            self.utilization_avg += weight * (utilization
                                              - self.utilization_avg)
        self.rate_register_bps = rate_register_bps
        self.last_update_ts = last_update_ts
        self.last_sample_ns = now_ns
        self.samples += 1


class RCPStarTask:
    """Network-wide setup for RCP*: one per experiment.

    Creates the task with the control-plane agent, allocates the two
    per-port scratch registers, registers their mnemonics in the shared
    memory map, and initializes every rate register to its link's capacity.
    """

    def __init__(self, agent: ControlPlaneAgent) -> None:
        self.agent = agent
        self.memory_map = agent.memory_map
        allocation = agent.create_task("rcp")
        self.task_id = allocation.task_id
        self.rate_vaddr = agent.allocate_link_register(
            "rcp", "rate", mnemonic="Link:RCP-RateRegister")
        self.ts_vaddr = agent.allocate_link_register(
            "rcp", "last_update", mnemonic="Link:RCP-LastUpdate")
        agent.initialize_link_register(
            self.rate_vaddr,
            lambda switch, port_index:
                switch.ports[port_index].rate_bps // RATE_UNIT_BPS)
        agent.initialize_link_register(self.ts_vaddr,
                                       lambda switch, port_index: 0)

    def rate_register_bps(self, switch, port_index: int) -> float:
        """Control-plane view of one link's fair-share register (bps);
        used by the benchmark harness to plot R(t)/C."""
        from repro.core.memory_map import LINK_SCRATCH_BASE
        slot = self.rate_vaddr - LINK_SCRATCH_BASE
        return switch.mmu.peek_link_scratch(port_index, slot) * RATE_UNIT_BPS


class RCPStarFlow:
    """One flow's rate controller + rate limiter (userspace, as in §2.2)."""

    def __init__(self, task: RCPStarTask, index: int, src: Host, dst: Host,
                 dst_mac: int, capacity_bps: float, rtt_s: float,
                 packet_bytes: int = 1000,
                 probe_interval_ns: int = DEFAULT_PROBE_INTERVAL_NS,
                 update_interval_ns: int = DEFAULT_UPDATE_INTERVAL_NS,
                 alpha: float = DEFAULT_ALPHA, beta: float = DEFAULT_BETA,
                 initial_rate_bps: Optional[int] = None,
                 max_hops: int = DEFAULT_MAX_HOPS,
                 piggyback_every: Optional[int] = None) -> None:
        self.task = task
        self.index = index
        self.src = src
        self.capacity_bps = capacity_bps
        self.rtt_s = rtt_s
        self.update_interval_ns = update_interval_ns
        self.alpha = alpha
        self.beta = beta
        # Convert the per-sample alpha (calibrated at the standalone
        # probe cadence) into the equivalent time constant:
        # alpha = 1 - exp(-interval / tau)  =>  tau = -interval/ln(1-a).
        self.sample_tau_ns = (-probe_interval_ns
                              / math.log(1.0 - DEFAULT_SAMPLE_EWMA_ALPHA))

        if initial_rate_bps is None:
            initial_rate_bps = max(1, int(capacity_bps * 0.05))
        data_port = 42000 + index
        self.flow = Flow(src, dst, dst_mac, data_port,
                         rate_bps=initial_rate_bps,
                         packet_bytes=packet_bytes)
        self.sink = FlowSink(dst, data_port)

        self.endpoint = self._endpoint_for(src)
        receiver_endpoint = self._endpoint_for(dst)
        #: One deadline policy for every probe this flow sends.  It is
        #: also installed as the endpoint default so fire-and-forget
        #: update probes get bounded request records — their echoes then
        #: consume their own records instead of aliasing a collect's.
        self.probe_policy = RetryPolicy(
            timeout_ns=COLLECT_TIMEOUT_INTERVALS * probe_interval_ns,
            rtt_multiplier=DEFAULT_RTT_MULTIPLIER)
        if self.endpoint.retry_policy is None:
            self.endpoint.retry_policy = self.probe_policy
        self.collect_program = assemble(COLLECT_PROGRAM,
                                        memory_map=task.memory_map,
                                        hops=max_hops)
        #: Figure 4: the update's instructions never change, only the
        #: packet-memory words its symbols initialise — assembled once
        #: here, :meth:`~AssembledProgram.rebind` per update.
        self.update_program = assemble(
            UPDATE_PROGRAM, memory_map=task.memory_map,
            symbols=dict.fromkeys(("NewRate", "BottleneckSwitchID",
                                   "SeenTimestamp", "NowTimestamp"), 0))
        #: §2.2: the controller queries "using the flow's packets, or
        #: using additional probe packets".  ``piggyback_every = N``
        #: selects the former: every Nth data packet carries the collect
        #: TPP and the receiver sends a trimmed echo (TPP only, payload
        #: stripped) back.  ``None`` selects standalone probes.
        self.piggyback_every = piggyback_every
        self.probe_interval_ns = probe_interval_ns
        self._data_packets = 0
        self._last_collect_ns = -probe_interval_ns
        self.prober: Optional[PeriodicProber] = None
        self._keepalive: Optional[PeriodicTimer] = None
        if piggyback_every is None:
            self.prober = PeriodicProber(
                self.endpoint, self.collect_program, probe_interval_ns,
                self._on_collect, dst_mac=dst_mac, task_id=task.task_id,
                jitter_fraction=0.1,
                retry_policy=self.probe_policy,
                on_timeout=self._on_collect_miss)
        else:
            receiver_endpoint.enable_trimmed_echo(task.task_id)
            self.flow.frame_factory = self._piggyback_frame
            # A paced-down flow emits few packets and would starve its
            # own sampling loop on stale (congested) samples; a keepalive
            # probe fills the gaps whenever no data packet has carried
            # the collect TPP for a full probe interval.
            self._keepalive = PeriodicTimer(src.sim, probe_interval_ns,
                                            self._keepalive_probe)

        self.links: List[LinkSample] = []
        self.rate_series = TimeSeries(f"rcp*-flow{index}.rate")
        self.updates_attempted = 0
        self.updates_sent = 0
        self.collects_missed = 0
        self.collects_rejected = 0
        self._consecutive_misses = 0

    @staticmethod
    def _endpoint_for(host: Host) -> TPPEndpoint:
        endpoint = getattr(host, "tpp", None)
        if endpoint is None:
            endpoint = TPPEndpoint(host)
            host.tpp = endpoint
        return endpoint

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        """Start the data flow and the probe loop."""
        self.flow.start()
        if self.prober is not None:
            self.prober.start(first_delay_ns=1)
        if self._keepalive is not None:
            self._keepalive.start()

    def stop(self) -> None:
        """Stop probing and sending."""
        if self.prober is not None:
            self.prober.stop()
        if self._keepalive is not None:
            self._keepalive.stop()
        self.flow.stop()

    # ------------------------------------------------------------------ #
    # Piggybacked collect (probe rides the flow's own packets)
    # ------------------------------------------------------------------ #

    def _piggyback_frame(self, flow: Flow,
                         packet_bytes: int) -> EthernetFrame:
        self._data_packets += 1
        if self._data_packets % self.piggyback_every:
            return EthernetFrame(dst=flow.dst_mac, src=flow.src.mac,
                                 ethertype=ETHERTYPE_IPV4,
                                 payload=flow.make_datagram(packet_bytes))
        overhead = (12 + 4 * self.collect_program.n_instructions
                    + self.collect_program.memory_bytes)
        datagram = flow.make_datagram(packet_bytes, shim_bytes=overhead)
        tpp = self.endpoint.wrap(self.collect_program, payload=datagram,
                                 task_id=self.task.task_id,
                                 on_response=self._on_collect,
                                 on_timeout=self._on_collect_miss,
                                 retry_policy=self.probe_policy,
                                 dst_mac=self.flow.dst_mac)
        self._last_collect_ns = self.src.sim.now_ns
        return EthernetFrame(dst=flow.dst_mac, src=flow.src.mac,
                             ethertype=ETHERTYPE_TPP, payload=tpp)

    def _keepalive_probe(self) -> None:
        # Only a floor: fire when the data path has not carried a
        # collect TPP for several probe intervals (i.e. the flow is
        # paced way down), not between ordinary piggybacks.
        if (self.src.sim.now_ns - self._last_collect_ns
                < 2 * self.probe_interval_ns):
            return
        self._last_collect_ns = self.src.sim.now_ns
        self.endpoint.send(self.collect_program, dst_mac=self.flow.dst_mac,
                           task_id=self.task.task_id,
                           on_response=self._on_collect,
                           on_timeout=self._on_collect_miss,
                           retry_policy=self.probe_policy)

    # ------------------------------------------------------------------ #
    # Phase 1 -> 2: collect and compute
    # ------------------------------------------------------------------ #

    def _on_collect_miss(self, _record=None) -> None:
        """A collect probe expired unanswered (phase 1 produced nothing).

        §2.2's loop would silently stall on its last samples.  Instead:
        hold the current rate for an isolated miss (one lost probe is
        noise, not congestion), then decay multiplicatively on a run of
        misses — persistent loss is evidence the path is in trouble, and
        pushing stale-rate traffic into it makes things worse.  The floor
        keeps probing alive so the flow recovers when the path does.
        """
        self.collects_missed += 1
        self._consecutive_misses += 1
        if self._consecutive_misses < 2:
            return
        floor = max(1, int(self.capacity_bps * MISS_RATE_FLOOR_FRACTION))
        decayed = max(floor, int(self.flow.rate_bps * MISS_DECAY))
        if decayed < self.flow.rate_bps:
            self._apply_rate(decayed)

    def _on_collect(self, result: TPPResultView) -> None:
        self._consecutive_misses = 0
        if not result.ok:
            return
        hops = result.per_hop_words()
        if not hops:
            return
        # Plausibility gate for corrupted echoes: a truncated trace (fewer
        # hops than the established path), a switch id that contradicts
        # it, or a zero fair-share register (never legitimate — the agent
        # initializes registers to link capacity) all mark a sample set
        # that must not steer the control loop.
        if self.links:
            if len(hops) < len(self.links):
                self.collects_rejected += 1
                return
            if (len(hops) == len(self.links)
                    and any(sample.switch_id != hop[0]
                            for sample, hop in zip(self.links, hops))):
                self.collects_rejected += 1
                return
        if any(hop[3] <= 0 for hop in hops):
            self.collects_rejected += 1
            return
        if len(self.links) != len(hops):
            self.links = [LinkSample(switch_id=hop[0]) for hop in hops]
        for sample, hop in zip(self.links, hops):
            switch_id, queue_bytes, util_milli, rate_kbps, ts = hop
            sample.switch_id = switch_id
            sample.fold(queue_bytes, util_milli / 1000.0,
                        rate_kbps * RATE_UNIT_BPS, ts,
                        now_ns=result.time_ns, tau_ns=self.sample_tau_ns)

        bottleneck = min(self.links, key=lambda s: s.rate_register_bps)
        self._apply_rate(min(s.rate_register_bps for s in self.links))
        self._maybe_update(bottleneck)

    def _apply_rate(self, rate_bps: float) -> None:
        self.flow.set_rate(int(rate_bps))
        self.rate_series.append(self.src.sim.now_ns, rate_bps)

    # ------------------------------------------------------------------ #
    # Phase 2 -> 3: compute and update
    # ------------------------------------------------------------------ #

    def _maybe_update(self, link: LinkSample) -> None:
        now_ts = self.src.sim.now_ns // TIMESTAMP_UNIT_NS
        elapsed_ts = (now_ts - link.last_update_ts) & 0xFFFF_FFFF
        if elapsed_ts * TIMESTAMP_UNIT_NS < self.update_interval_ns:
            return
        self.updates_attempted += 1
        # Cap the interval used in the control equation: a register that
        # has never been updated would otherwise produce a huge step.
        interval_s = min(elapsed_ts * TIMESTAMP_UNIT_NS / 1e9,
                         4 * self.update_interval_ns / 1e9)
        offered_bps = link.utilization_avg * self.capacity_bps
        new_rate = rcp_rate_update(
            link.rate_register_bps, self.capacity_bps, offered_bps,
            link.queue_bytes_avg * 8, interval_s, self.rtt_s,
            self.alpha, self.beta)
        program = self.update_program.rebind({
            "NewRate": int(new_rate) // RATE_UNIT_BPS,
            "BottleneckSwitchID": link.switch_id,
            "SeenTimestamp": link.last_update_ts,
            "NowTimestamp": now_ts & 0xFFFF_FFFF,
        })
        self.updates_sent += 1
        self.endpoint.send(program, dst_mac=self.flow.dst_mac,
                           task_id=self.task.task_id)
        # Optimistically assume our CSTORE wins; if it lost, the next
        # collect phase brings the true register value anyway.
        link.last_update_ts = now_ts & 0xFFFF_FFFF
