"""The TPP-capable switch: Figure 3's pipeline around a TCPU.

Stages on packet arrival (see package docs): RX accounting, header parsing,
forwarding lookup (TCAM > L2 > L3), metadata stamping, TPP execution, then
enqueue on the egress port after a fixed pipeline latency.

The TCPU is deliberately placed *after* the lookup stages and *before* the
packet is stored in switch memory, so a TPP observes the queue it is about
to join and all packet modifications are committed before buffering —
"all modifications to the packet are in local buffers ... committed to the
packet before it is copied to switch memory" (§3.3).
"""

from __future__ import annotations

import zlib
from operator import attrgetter
from typing import Any, Callable, Optional

from repro.asic.metadata import PacketMetadata
from repro.asic.parser import ParsedHeaders, parse_frame
from repro.asic.stats import (
    DEFAULT_EWMA_ALPHA,
    DEFAULT_STATS_INTERVAL_NS,
    PortStats,
    SwitchStats,
)
from repro.asic.tables import (
    DROP,
    EntryAllocator,
    L2Entry,
    L2Table,
    L3Entry,
    L3Table,
    LookupResult,
    Tcam,
    TcamRule,
)
from repro.core.memory_map import MemoryMap
from repro.core.mmu import MMU, ExecutionContext
from repro.core.tcpu import DEFAULT_MAX_INSTRUCTIONS, TCPU
from repro.core.tpp import TPPSection
from repro.net.device import Device
from repro.net.packet import ETHERTYPE_IPV4, Datagram, EthernetFrame
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder, snapshot

#: Fixed pipeline latency between arrival and egress enqueue.  The paper
#: quotes ~300 ns cut-through for low-latency ASICs; we default to 500 ns
#: for a store-and-forward pipeline.
DEFAULT_PIPELINE_LATENCY_NS = 500


class TPPSwitch(Device):
    """A switch with L2/L3/TCAM forwarding and a dataplane TCPU."""

    # Links announce scheduled deliveries in our ``inbound_at`` ledger so
    # receive() can defer same-instant frames into one TCPU batch.
    batches_ingress = True

    COUNTERS = ("packets_switched", "packets_dropped_no_route",
                "packets_dropped_by_rule", "tpps_stripped", "tpps_dropped")

    def __init__(self, sim: Simulator, name: str, switch_id: int,
                 mac: int = 0, trace: Optional[TraceRecorder] = None,
                 memory_map: Optional[MemoryMap] = None,
                 max_tpp_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 pipeline_latency_ns: int = DEFAULT_PIPELINE_LATENCY_NS,
                 tpp_enabled: bool = True) -> None:
        super().__init__(sim, name, trace)
        self.switch_id = switch_id
        self.mac = mac
        self.pipeline_latency_ns = pipeline_latency_ns
        self.tpp_enabled = tpp_enabled

        self.mmu = MMU(memory_map, name=name)
        # The switch knows its own SwitchID, so its TCPU's race table can
        # discount accesses behind constant fences that never pass here.
        try:
            fence_values = {
                self.mmu.memory_map.resolve("Switch:SwitchID"): switch_id}
        except KeyError:  # pragma: no cover - custom maps may omit it
            fence_values = None
        self.tcpu = TCPU(self.mmu, max_tpp_instructions,
                         name=f"{name}.tcpu", fence_values=fence_values)

        allocator = EntryAllocator()
        self._allocator = allocator
        self.l2 = L2Table(allocator)
        self.l3 = L3Table(allocator)
        self.tcam = Tcam(allocator)

        self.stats: Optional[SwitchStats] = None
        #: Edge security policy (see repro.control.security); ``None``
        #: means every port is trusted.
        self.tpp_policy: Any = None
        #: Dataplane extension hooks invoked for every forwarded datagram
        #: as ``hook(frame, datagram, metadata, egress_port)``.  This is
        #: how the in-network RCP baseline stamps fair-share rates — the
        #: kind of baked-in ASIC feature TPPs make unnecessary.
        self.datagram_hooks: list = []

        # Pipeline counters.
        self.packets_switched = 0
        self.packets_dropped_no_route = 0
        self.packets_dropped_by_rule = 0
        self.tpps_stripped = 0
        self.tpps_dropped = 0

        # Ingress buffer for the zero-delay drain event (see receive()).
        self._ingress: list = []
        self._drain_scheduled = False

        self._bind_memory_map()

    # ------------------------------------------------------------------ #
    # Control-plane configuration
    # ------------------------------------------------------------------ #

    def install_l2_route(self, dst_mac: int, out_port: int) -> L2Entry:
        """Install/replace the unicast route for a MAC."""
        return self.l2.install(dst_mac, out_port)

    def install_l3_route(self, prefix: int, prefix_len: int,
                         out_port: int) -> L3Entry:
        """Install an IPv4 prefix route."""
        return self.l3.install(prefix, prefix_len, out_port)

    def install_tcam_rule(self, rule: TcamRule) -> TcamRule:
        """Install a ternary override rule."""
        return self.tcam.install(rule)

    def start_stats(self, interval_ns: int = DEFAULT_STATS_INTERVAL_NS,
                    alpha: float = DEFAULT_EWMA_ALPHA) -> SwitchStats:
        """Start the periodic statistics sampler over the current ports."""
        self.stats = SwitchStats(self.sim, self.ports, interval_ns, alpha)
        self.stats.start()
        return self.stats

    def fastpath_stats(self) -> dict:
        """Snapshot of the TCPU, its program cache and the MMU counters."""
        return snapshot(self.tcpu, self.tcpu.cache, self.mmu)

    # ------------------------------------------------------------------ #
    # Dataplane
    # ------------------------------------------------------------------ #

    def receive(self, frame: EthernetFrame, in_port: int) -> None:
        """RX accounting at arrival; when more frames are due this
        instant (per the link layer's ``inbound_at`` ledger) the
        pipeline is deferred to a zero-delay drain event so same-ns
        frames across any ports can be executed as one TCPU batch.  A
        lone arrival — the steady state — runs the pipeline inline with
        no event overhead.

        The event queue is FIFO at equal timestamps, so every same-ns
        ``receive`` lands before the drain fires and per-frame latency
        is unchanged: egress enqueue still happens at arrival +
        ``pipeline_latency_ns``.
        """
        port = self.ports[in_port]
        port.rx_bytes += frame.size_bytes
        port.rx_frames += 1
        if not self._ingress and not self.inbound_now:
            # Inline fast path: the delivering link counts announced
            # arrivals and sets ``inbound_now`` to how many *other*
            # frames are still due this instant — zero proves no
            # same-ns peer can arrive, so batching is impossible and
            # the deferred drain would be pure event overhead.  This is
            # ``_process_parsed``, unrolled: the lone-arrival steady
            # state is the wall-clock-critical path.
            headers = parse_frame(frame)
            looked = self._ingress_metadata(frame, in_port, headers)
            if looked is None:
                return
            result, metadata = looked
            if headers.tpp is not None:
                forwarded = self._handle_tpp(frame, headers.tpp, metadata,
                                             in_port)
                if forwarded is None:
                    return
                frame = forwarded
            self._finalize(frame, result, metadata)
            return
        self._ingress.append((frame, in_port))
        if not self._drain_scheduled:
            self._drain_scheduled = True
            self.sim.schedule(0, self._drain_ingress)

    def _drain_ingress(self) -> None:
        """Process everything that arrived this instant.

        Maximal *consecutive* runs of TPP frames sharing a
        ``program_key`` go through :meth:`TCPU.execute_batch`
        (amortized parse/lookup/guard, vectorized when eligible);
        singletons and non-TPP frames take the scalar path.  Arrival
        order is preserved across runs — drops, traces, hop stamps and
        egress enqueues happen in the same per-frame order the scalar
        pipeline would produce.
        """
        self._drain_scheduled = False
        buffered, self._ingress = self._ingress, []
        parsed = [(frame, in_port, parse_frame(frame))
                  for frame, in_port in buffered]
        i = 0
        n = len(parsed)
        while i < n:
            frame, in_port, headers = parsed[i]
            tpp = headers.tpp
            if tpp is None:
                self._process_parsed(frame, in_port, headers)
                i += 1
                continue
            j = i + 1
            key = tpp.program_key
            while j < n:
                next_tpp = parsed[j][2].tpp
                if next_tpp is None or next_tpp.program_key != key:
                    break
                j += 1
            if j - i == 1:
                self._process_parsed(frame, in_port, headers)
            else:
                self._process_run(parsed[i:j])
            i = j

    def _process_parsed(self, frame: EthernetFrame, in_port: int,
                        headers: ParsedHeaders) -> None:
        """The scalar pipeline for one already-parsed frame."""
        looked = self._ingress_metadata(frame, in_port, headers)
        if looked is None:
            return
        result, metadata = looked

        if headers.tpp is not None:
            forwarded = self._handle_tpp(frame, headers.tpp, metadata,
                                         in_port)
            if forwarded is None:
                return
            frame = forwarded

        self._finalize(frame, result, metadata)

    def _process_run(self, run: list) -> None:
        """Pipeline a run of same-``program_key`` TPP frames as a batch.

        Phase A walks the run in arrival order doing everything scalar
        (lookup, drops, metadata, edge policy); survivors that want
        execution stage their section + context.  Phase B executes the
        staged group in one ``execute_batch`` call.  Phase C finalizes
        every surviving frame in arrival order, so hook invocation,
        ``packets_switched``, hop stamps and egress enqueues interleave
        exactly as the scalar pipeline's would.
        """
        staged = []  # (frame, result, metadata, tpp-or-None) in order
        sections: list = []
        ctxs: list = []
        for frame, in_port, headers in run:
            tpp = headers.tpp
            looked = self._ingress_metadata(frame, in_port, headers)
            if looked is None:
                continue
            result, metadata = looked
            forwarded, execute = self._apply_tpp_policy(frame, tpp, in_port)
            if forwarded is None:
                continue
            if not execute:
                staged.append((forwarded, result, metadata, None))
                continue
            ctx = ExecutionContext(
                metadata=metadata,
                egress_port=self.ports[metadata.output_port],
                time_ns=self.sim.now_ns,
                task_id=tpp.task_id)
            sections.append(tpp)
            ctxs.append(ctx)
            staged.append((forwarded, result, metadata, tpp))

        reports = (self.tcpu.execute_batch(sections, ctxs)
                   if sections else [])

        index = 0
        for frame, result, metadata, tpp in staged:
            if tpp is not None:
                if self.trace.firehose:
                    self._emit_tpp_exec(frame, tpp, reports[index])
                index += 1
            self._finalize(frame, result, metadata)

    def _ingress_metadata(self, frame: EthernetFrame, in_port: int,
                          headers: ParsedHeaders):
        """Forwarding lookup + metadata stamp; ``None`` means dropped.

        One frame for the stage every packet crosses: TCAM first, then L2
        exact match, then L3 LPM (Figure 3); the matched entry's hit
        counter; egress queue selection.
        """
        tcam = self.tcam
        # An empty TCAM (the common case) is not walked.
        result = tcam.lookup(headers, in_port) if tcam._rules else None
        if result is not None:
            hits = tcam.hit_counts[result.entry_id]
        else:
            l2 = self.l2
            entry = l2._entries.get(headers.dst_mac)
            if entry is not None:
                result = entry.results[0]
                if result.alternate_routes:
                    # ECMP: a flow stays on one path (no reordering),
                    # flows spread over the candidates.  Only here is the
                    # stable 5-tuple hash needed; it is memoised because
                    # it is the same at every switch of the journey.
                    flow_hash = headers.flow_hash
                    if flow_hash is None:
                        flow_hash = headers.flow_hash = zlib.crc32((
                            f"{headers.src_mac}|{headers.dst_mac}|"
                            f"{headers.src_ip}|{headers.dst_ip}|"
                            f"{headers.ip_protocol}|{headers.src_port}|"
                            f"{headers.dst_port}").encode())
                    result = entry.results[flow_hash % len(entry.results)]
                hit_counts = l2.hit_counts
                hits = hit_counts.get(entry.entry_id, 0) + 1
                hit_counts[entry.entry_id] = hits
            else:
                result = self.l3.lookup(headers.dst_ip)
                if result is None:
                    self.packets_dropped_no_route += 1
                    self.trace.emit(self.sim.now_ns, self.name,
                                    "switch.no_route",
                                    frame_uid=frame.uid, dst=frame.dst)
                    return None
                hits = self.l3.hit_counts[result.entry_id]
        out_port = result.out_port
        if out_port == DROP:
            self.packets_dropped_by_rule += 1
            self.trace.emit(self.sim.now_ns, self.name, "switch.rule_drop",
                            frame_uid=frame.uid, entry_id=result.entry_id)
            return None

        # Egress queue: a TCAM set-queue action wins, else the packet's IP
        # traffic class.  Neither is negative (Tcam.install and Datagram
        # refuse that); an id past the port's last queue joins the last.
        queue_id = result.queue_id
        if queue_id is None:
            queue_id = headers.tos
        if queue_id:
            queue_id = min(queue_id, len(self.ports[out_port].queues) - 1)
        metadata = PacketMetadata(
            in_port, out_port, result.entry_id, result.version, hits,
            queue_id, frame.size_bytes, self.sim.now_ns,
            result.alternate_routes)
        return result, metadata

    def _finalize(self, frame: EthernetFrame, result: LookupResult,
                  metadata: PacketMetadata) -> None:
        """Post-TCPU stages: datagram hooks, counters, egress enqueue."""
        if self.datagram_hooks:
            datagram = self._find_datagram(frame)
            if datagram is not None:
                egress_port = self.ports[result.out_port]
                for hook in self.datagram_hooks:
                    hook(frame, datagram, metadata, egress_port)
                # Hooks may legally grow the datagram (e.g. attach a
                # congestion shim header), so the cached wire size is stale.
                frame.invalidate_size_cache()

        self.packets_switched += 1
        frame.hops.append(self.name)
        egress = self.ports[result.out_port]
        self.sim.schedule(self.pipeline_latency_ns, egress.enqueue, frame,
                          metadata.queue_id)

    @staticmethod
    def _find_datagram(frame: EthernetFrame) -> Optional[Datagram]:
        payload = frame.payload
        if isinstance(payload, TPPSection):
            payload = payload.payload
        return payload if isinstance(payload, Datagram) else None

    def _apply_tpp_policy(self, frame: EthernetFrame, tpp: TPPSection,
                          in_port: int
                          ) -> "tuple[Optional[EthernetFrame], bool]":
        """Edge policy for one TPP frame.

        Returns ``(frame, execute)``: the (possibly stripped) frame to
        keep forwarding — ``None`` if it must be dropped — and whether
        the TCPU should execute the section.
        """
        action = "execute"
        if self.tpp_policy is not None:
            action = self.tpp_policy.action_for(self, in_port, tpp)

        if action == "drop":
            self.tpps_dropped += 1
            self.trace.emit(self.sim.now_ns, self.name, "tpp.dropped",
                            frame_uid=frame.uid, port=in_port)
            return None, False
        if action == "strip":
            self.tpps_stripped += 1
            self.trace.emit(self.sim.now_ns, self.name, "tpp.stripped",
                            frame_uid=frame.uid, port=in_port)
            inner = tpp.payload
            if isinstance(inner, Datagram):
                frame.payload = inner
                frame.ethertype = ETHERTYPE_IPV4
                frame.invalidate_size_cache()
                return frame, False
            return None, False  # nothing forwardable inside
        if action == "forward":
            return frame, False  # forward without executing
        return frame, self.tpp_enabled

    def _handle_tpp(self, frame: EthernetFrame, tpp: TPPSection,
                    metadata: PacketMetadata,
                    in_port: int) -> Optional[EthernetFrame]:
        """Apply edge policy, then execute the TPP on the TCPU."""
        if self.tpp_policy is not None:
            forwarded, execute = self._apply_tpp_policy(frame, tpp, in_port)
            if forwarded is None or not execute:
                return forwarded
            frame = forwarded
        elif not self.tpp_enabled:  # _apply_tpp_policy's no-policy answer
            return frame
        report = self.tcpu.execute(tpp, ExecutionContext(
            metadata, self.ports[metadata.output_port], self.sim.now_ns,
            tpp.task_id))
        if self.trace.firehose:
            self._emit_tpp_exec(frame, tpp, report)
        return frame

    def _emit_tpp_exec(self, frame: EthernetFrame, tpp: TPPSection,
                       report: Any) -> None:
        # tpp.exec is DEBUG firehose: callers test trace.firehose first,
        # and the packet-memory snapshot is built only if it is recorded.
        if self.trace.wants("tpp.exec"):
            self.trace.emit(
                self.sim.now_ns, self.name, "tpp.exec",
                frame_uid=frame.uid, seq=tpp.seq, task=tpp.task_id,
                executed=report.executed, skipped=report.skipped,
                fault=int(report.fault), cycles=report.cycles,
                sp_or_hop=tpp.hop_or_sp, memory_words=tpp.words(),
            )

    # ------------------------------------------------------------------ #
    # Memory map bindings
    # ------------------------------------------------------------------ #

    def _bind_memory_map(self) -> None:
        bind = self.mmu.bind_reader

        # Switch: global registers.
        bind("Switch:SwitchID", lambda ctx: self.switch_id)
        bind("Switch:NumPorts", lambda ctx: len(self.ports))
        bind("Switch:ClockLo", lambda ctx: ctx.time_ns & 0xFFFF_FFFF)
        bind("Switch:ClockHi", lambda ctx: ctx.time_ns >> 32)
        bind("Switch:L2TableVersion", lambda ctx: self.l2.table_version)
        bind("Switch:L2TableEntries", lambda ctx: len(self.l2))
        bind("Switch:L3TableEntries", lambda ctx: len(self.l3))
        bind("Switch:TCAMEntries", lambda ctx: len(self.tcam))
        bind("Switch:TPPsExecuted", lambda ctx: self.tcpu.tpps_executed)
        bind("Switch:PacketsSwitched", lambda ctx: self.packets_switched)

        # PacketMetadata: the packet in the pipeline.
        meta = lambda attr: attrgetter(f"metadata.{attr}")
        bind("PacketMetadata:InputPort", meta("input_port"))
        bind("PacketMetadata:OutputPort", meta("output_port"))
        bind("PacketMetadata:MatchedEntryID", meta("matched_entry_id"))
        bind("PacketMetadata:MatchedEntryVersion",
             meta("matched_entry_version"))
        bind("PacketMetadata:QueueID", meta("queue_id"))
        bind("PacketMetadata:PacketLength", meta("packet_length"))
        bind("PacketMetadata:ArrivalTimeLo",
             lambda ctx: ctx.metadata.arrival_time_ns & 0xFFFF_FFFF)
        bind("PacketMetadata:ArrivalTimeHi",
             lambda ctx: ctx.metadata.arrival_time_ns >> 32)
        bind("PacketMetadata:AlternateRoutes", meta("alternate_routes"))
        bind("PacketMetadata:MatchedEntryHits", meta("matched_entry_hits"))

        # Queue: the packet's egress queue.  QueueSize is the backlog
        # awaiting transmission (the packet currently on the wire has left
        # the buffer from the memory manager's point of view).  It is the
        # register queue probes read, so it skips ctx.queue: the metadata's
        # queue id was clamped to the port's queues when it was stamped.
        bind("Queue:QueueSize", lambda ctx: (
            ctx.egress_port.queues[ctx.metadata.queue_id].backlog_bytes))
        bind("Queue:QueueSizePackets", lambda ctx: len(ctx.queue))
        bind("Queue:BytesEnqueued",
             lambda ctx: ctx.queue.stats.bytes_enqueued)
        bind("Queue:BytesDropped", lambda ctx: ctx.queue.stats.bytes_dropped)
        bind("Queue:PacketsEnqueued",
             lambda ctx: ctx.queue.stats.packets_enqueued)
        bind("Queue:PacketsDropped",
             lambda ctx: ctx.queue.stats.packets_dropped)
        bind("Queue:AvgQueueSize", self._avg_queue_size)

        # Link: the packet's egress port.
        bind("Link:RX-Utilization",
             self._port_stat(lambda s: s.rx_utilization.utilization_milli))
        bind("Link:TX-Utilization",
             self._port_stat(lambda s: s.tx_utilization.utilization_milli))
        bind("Link:BytesReceived", lambda ctx: ctx.egress_port.rx_bytes)
        bind("Link:BytesTransmitted", lambda ctx: ctx.egress_port.tx_bytes)
        bind("Link:FramesReceived", lambda ctx: ctx.egress_port.rx_frames)
        bind("Link:FramesTransmitted", lambda ctx: ctx.egress_port.tx_frames)
        bind("Link:CapacityMbps",
             lambda ctx: ctx.egress_port.link.rate_bps // 1_000_000)
        bind("Link:SNR-MilliDb", self._snr_milli_db)

    def _port_stats(self, ctx: ExecutionContext) -> Optional[PortStats]:
        """The egress port's sampled statistics, if it has any yet."""
        return (None if self.stats is None
                else self.stats.port(ctx.egress_port_index))

    def _avg_queue_size(self, ctx: ExecutionContext) -> int:
        port_stats = self._port_stats(ctx)
        if port_stats is None:
            return ctx.queue.occupancy_bytes
        return port_stats.avg_queue_for(
            ctx.metadata.queue_id).average_bytes

    def _port_stat(self, extract: Callable[[PortStats], int]
                   ) -> Callable[[ExecutionContext], int]:
        def reader(ctx: ExecutionContext) -> int:
            port_stats = self._port_stats(ctx)
            return 0 if port_stats is None else extract(port_stats)
        return reader

    @staticmethod
    def _snr_milli_db(ctx: ExecutionContext) -> int:
        channel = getattr(ctx.egress_port, "wireless_channel", None)
        if channel is None:
            return 0
        return int(channel.current_snr_milli_db)
