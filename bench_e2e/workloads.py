"""The six fixed-size workloads of the end-to-end benchmark.

Every workload is built only from public ``repro.*`` APIs and drives whole
packets through end-host -> link -> port -> parse -> ASIC stages -> TCPU ->
echo -> controller.  One instance is one repeat: ``setup()`` goes from
nothing to a ready network, ``run()`` is the timed region, ``finish()``
checks the outputs and returns an :class:`Outcome`.

Sizes are the constants below (scaled down only by ``--self-test``).  The
seed feeds the network's named RNG streams, the key / host-pair choices
and the join jitter -- nothing else.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from layers import queue_drops
from repro import units
from repro.analysis.convergence import jain_fairness
from repro.analysis.sketch import (
    CountMinDecoder,
    HeavyHitterDecoder,
    image_from_mmu,
)
from repro.apps.ndb import NdbCollector, NdbTagger, PathVerifier
from repro.apps.rcp import RCPStarFlow, RCPStarTask
from repro.asic.tables import TcamRule
from repro.control.agent import ControlPlaneAgent
from repro.core.assembler import assemble
from repro.core.memory_map import LINK_SCRATCH_BASE, MemoryMap
from repro.endhost.client import TPPEndpoint
from repro.endhost.flows import Flow, FlowSink
from repro.net.packet import ETHERTYPE_IPV4, EthernetFrame
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import Network, TopologyBuilder
from repro.sim.timers import PeriodicTimer
from repro.telemetry import HeavyHitterLayout, build_heavy_hitter_update


@dataclass
class Outcome:
    """What one repeat produced, after its correctness checks."""

    attempted: int
    failed: int
    hops: int
    latencies_ns: List[int]
    #: Named digest parts; hashed together into the repeat's ``sim_digest``.
    digest: Dict[str, object]
    #: Correctness-check failures (empty means the repeat is correct).
    errors: List[str] = field(default_factory=list)

    @property
    def sim_digest(self) -> str:
        canonical = repr(sorted(self.digest.items())).encode()
        return hashlib.sha256(canonical).hexdigest()


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def network_digest(net: Network) -> Dict[str, object]:
    """Digest parts every workload shares: per-device delivery counts,
    the final SRAM image of every switch, and the event count."""
    switches = list(net.switches.values())
    return {
        "events": net.sim.events_processed,
        "switched": tuple(sw.packets_switched for sw in switches),
        "received": tuple(h.frames_received for h in net.hosts.values()),
        "sram": _sha(b"".join(sw.mmu.sram_image() for sw in switches)),
        "tpps": tuple(sw.tcpu.tpps_executed for sw in switches),
    }


class Workload:
    """One repeat of one workload (see the module docstring)."""

    name = ""
    why = ""
    #: Simulated seconds of traffic at scale 1.0.
    sim_seconds = 0.0
    #: Simulated time allowed for in-flight packets to land after the
    #: sources stop (no source is active in it).
    drain_ns = 100_000
    #: The size factor ``--self-test`` runs at.
    quick_scale = 0.2

    def __init__(self, seed: int, scale: float, hooks) -> None:
        self.seed = seed
        self.hooks = hooks
        self.end_ns = units.seconds(self.sim_seconds * scale)
        self.net: Network = None  # set by setup()

    def setup(self) -> None:
        raise NotImplementedError

    def stop_sources(self) -> None:
        raise NotImplementedError

    def run(self) -> None:
        """The timed region: traffic until ``end_ns``, then drain."""
        sim = self.net.sim
        sim.run(until_ns=self.end_ns)
        self.stop_sources()
        sim.run(until_ns=self.end_ns + self.drain_ns)

    def finish(self) -> Outcome:
        raise NotImplementedError

    # -- shared checks -------------------------------------------------- #

    def _base_errors(self) -> List[str]:
        errors = []
        drops = queue_drops(self.net)
        if drops:
            errors.append(f"{drops} packets tail-dropped")
        faults = sum(sw.tcpu.faults for sw in self.net.switches.values())
        if faults:
            errors.append(f"{faults} TCPU faults")
        return errors


# --------------------------------------------------------------------- #
# forward_line
# --------------------------------------------------------------------- #

class ForwardLine(Workload):
    name = "forward_line"
    why = ("smallest-packet bare forwarding with no TPP: sim + net + asic "
           "lookup do all the work, so a TCPU or endpoint change must "
           "show no change here")
    sim_seconds = 0.025
    RATE_BPS = 200 * units.MEGABITS_PER_SEC
    PACKET_BYTES = 64
    UDP_PORT = 7000
    #: The flow starts at a seeded offset below this (one packet time).
    PHASE_NS = 2_560

    def setup(self) -> None:
        net = TopologyBuilder(seed=self.seed).linear(3)
        self.net = net
        self.hooks.network(net)
        install_shortest_path_routes(net)
        h0, h1 = net.host("h0"), net.host("h1")
        self.sink = FlowSink(h1, self.UDP_PORT)
        self.flow = Flow(h0, h1, h1.mac, self.UDP_PORT, self.RATE_BPS,
                         packet_bytes=self.PACKET_BYTES,
                         frame_factory=self._emit)
        self.sent_ns: List[int] = []
        phase = net.rng.stream("bench/phase").randrange(self.PHASE_NS)
        net.sim.schedule(phase, self.flow.start)

    def _emit(self, flow: Flow, packet_bytes: int) -> EthernetFrame:
        # The flow's default frame, plus the send timestamp.
        self.sent_ns.append(flow.src.sim.now_ns)
        return EthernetFrame(dst=flow.dst_mac, src=flow.src.mac,
                             ethertype=ETHERTYPE_IPV4,
                             payload=flow.make_datagram(packet_bytes))

    def stop_sources(self) -> None:
        self.flow.stop()

    def finish(self) -> Outcome:
        arrivals = self.sink.arrivals
        delivered = len(arrivals)
        sent = len(self.sent_ns)
        # One FIFO path and no loss: the i-th arrival is the i-th send.
        latencies = [arrived - sent_at for (arrived, _), sent_at
                     in zip(arrivals, self.sent_ns)]
        errors = self._base_errors()
        if any(lat <= 0 for lat in latencies):
            errors.append("non-positive one-way latency")
        tpps = sum(sw.tcpu.tpps_executed
                   for sw in self.net.switches.values())
        if tpps:
            errors.append(f"{tpps} TPPs executed on a TPP-free workload")
        digest = network_digest(self.net)
        digest["delivered"] = delivered
        digest["latency_sum"] = sum(latencies)
        return Outcome(attempted=sent, failed=sent - delivered,
                       hops=sum(digest["switched"]),
                       latencies_ns=latencies, digest=digest, errors=errors)


# --------------------------------------------------------------------- #
# probe_line
# --------------------------------------------------------------------- #

PROBE_PROGRAM = """
PUSH [Switch:SwitchID]
PUSH [Queue:QueueSize]
PUSH [Link:CapacityMbps]
"""


class ProbeLine(Workload):
    name = "probe_line"
    why = ("lone standalone 3-PUSH probes, echoed, enforce-mode endpoint: "
           "the scalar compiled TCPU lane and endhost.client send / "
           "register / echo / match take their largest share here")
    sim_seconds = 0.02
    INTERVAL_NS = 5_000

    def setup(self) -> None:
        net = TopologyBuilder(seed=self.seed).linear(3)
        self.net = net
        self.hooks.network(net)
        install_shortest_path_routes(net)
        h0, h1 = net.host("h0"), net.host("h1")
        self.sender = TPPEndpoint(h0, verify_mode="enforce")
        self.responder = TPPEndpoint(h1)
        self.hooks.endpoint(self.sender)
        self.hooks.endpoint(self.responder)
        self.dst_mac = h1.mac
        self.program = self.hooks.call("core.assemble", assemble,
                                       PROBE_PROGRAM, hops=3)
        # Admission (verify) is paid once, here, and its certificate
        # lets every switch run the check-elided closures.
        certificate = self.sender.admit(self.program).certificate
        for switch in net.switches.values():
            if not switch.tcpu.trust(certificate):
                raise RuntimeError("probe certificate refused")
        capacity = units.GIGABITS_PER_SEC // units.MEGABITS_PER_SEC
        self.expected = [[sw.switch_id, 0, capacity]
                         for sw in net.switches.values()]
        self.sent_at: Dict[int, int] = {}
        self.sent = 0
        self.latencies: List[int] = []
        self.mismatched = 0
        self.word_hash = hashlib.sha256()
        self.timer = PeriodicTimer(net.sim, self.INTERVAL_NS, self._send)
        phase = net.rng.stream("bench/phase").randrange(self.INTERVAL_NS)
        self.timer.start(first_delay_ns=1 + phase)

    def _send(self) -> None:
        seq = self.sender.send(self.program, dst_mac=self.dst_mac,
                               on_response=self._on_response)
        self.sent_at[seq] = self.net.sim.now_ns
        self.sent += 1

    def _on_response(self, result) -> None:
        words = result.per_hop_words()
        if not result.ok or words != self.expected:
            self.mismatched += 1
            return
        self.word_hash.update(repr(words).encode())
        self.latencies.append(result.time_ns - self.sent_at.pop(result.seq))

    def stop_sources(self) -> None:
        self.timer.stop()

    def finish(self) -> Outcome:
        errors = self._base_errors()
        if self.mismatched:
            errors.append(f"{self.mismatched} probes with wrong hop words")
        digest = network_digest(self.net)
        digest["matched"] = len(self.latencies)
        digest["words"] = self.word_hash.hexdigest()[:16]
        digest["latency_sum"] = sum(self.latencies)
        return Outcome(attempted=self.sent,
                       failed=self.sent - len(self.latencies),
                       hops=sum(digest["switched"]),
                       latencies_ns=self.latencies, digest=digest,
                       errors=errors)


# --------------------------------------------------------------------- #
# sketch_burst / sketch_stagger
# --------------------------------------------------------------------- #

class SketchBurst(Workload):
    name = "sketch_burst"
    why = ("8 senders emit the same-key certified sketch update in the "
           "same ns, so runs of 8 reach core.batch's vector write lane: "
           "the only traffic on which batching can pay")
    sim_seconds = 0.0105
    N_SENDERS = 8
    N_KEYS = 64
    BURST_INTERVAL_NS = 4_000
    #: Sender i fires this many ns after sender 0 (0 = same instant).
    STAGGER_NS = 0
    TASK_ID = 1

    def setup(self) -> None:
        hooks = self.hooks
        # 10 Gb/s leaves: a burst of 8 update frames drains from the hub's
        # sink port well inside one burst interval, so nothing queues up.
        builder = TopologyBuilder(seed=self.seed,
                                  rate_bps=10 * units.GIGABITS_PER_SEC)
        net = builder.star(self.N_SENDERS + 1)
        self.net = net
        hooks.network(net)
        install_shortest_path_routes(net)
        self.switch = next(iter(net.switches.values()))
        self.layout = HeavyHitterLayout(base_word=16, width=16, depth=3,
                                        n_slots=8)
        self.layout.allocate(self.switch.mmu, self.TASK_ID)
        self.switch.tcpu.max_instructions = 2 * self.layout.depth + 1

        hosts = list(net.hosts.values())
        self.senders = []
        for host in hosts[:self.N_SENDERS]:
            endpoint = TPPEndpoint(host)
            hooks.endpoint(endpoint)
            self.senders.append(endpoint)
        sink_host = hosts[self.N_SENDERS]
        self.sink_mac = sink_host.mac
        sink = TPPEndpoint(sink_host, echo_probes=False)
        hooks.endpoint(sink)
        sink.add_tap(self._on_update)

        rng = net.rng.stream("bench/sketch-keys")
        keys = rng.sample(range(1, 1 << 16), self.N_KEYS)
        memory_map = self.switch.mmu.memory_map
        self.updates = {}
        for key in keys:
            update = hooks.call("telemetry.build_update",
                                build_heavy_hitter_update, self.layout,
                                key, task_id=self.TASK_ID,
                                memory_map=memory_map)
            if not self.switch.tcpu.trust(update.certificate):
                raise RuntimeError(f"certificate for key {key} refused")
            self.updates[key] = update
        # A skewed key sequence (a few elephants, many mice), fixed up
        # front so burst and stagger replay the identical stream.
        weights = [1.0 / (rank + 1) for rank in range(self.N_KEYS)]
        n_bursts = self.end_ns // self.BURST_INTERVAL_NS
        self.sequence = rng.choices(keys, weights=weights, k=n_bursts)
        self.next_burst = 0
        self.sent_at: Dict[Tuple[int, int], int] = {}
        self.sent = 0
        self.latencies: List[int] = []
        self.timer = PeriodicTimer(net.sim, self.BURST_INTERVAL_NS,
                                   self._burst)
        self.timer.start(first_delay_ns=1)

    def _burst(self) -> None:
        if self.next_burst >= len(self.sequence):
            return
        update = self.updates[self.sequence[self.next_burst]]
        self.next_burst += 1
        if not self.STAGGER_NS:
            for endpoint in self.senders:
                self._send(endpoint, update)
            return
        schedule = self.net.sim.schedule
        for index, endpoint in enumerate(self.senders):
            schedule(index * self.STAGGER_NS, self._send, endpoint, update)

    def _send(self, endpoint: TPPEndpoint, update) -> None:
        seq = endpoint.send(update.program, dst_mac=self.sink_mac,
                            task_id=self.TASK_ID)
        self.sent_at[(endpoint.host.mac, seq)] = self.net.sim.now_ns
        self.sent += 1

    def _on_update(self, tpp, frame) -> None:
        self.latencies.append(self.net.sim.now_ns
                              - self.sent_at.pop((frame.src, tpp.seq)))

    def stop_sources(self) -> None:
        self.timer.stop()

    def finish(self) -> Outcome:
        layout = self.layout
        sent_keys = self.sequence[:self.next_burst]
        truth = Counter()
        expected = {word: 0 for word in layout.words()}
        for key in sent_keys:
            truth[key] += self.N_SENDERS
            slot = layout.slot_word(key)
            if expected[slot] == layout.unclaimed_value:  # first claim wins
                expected[slot] = key
        for key, count in truth.items():
            for word in layout.countmin.words_for(key):
                expected[word] += count

        image, applied, beyond_bound, underestimates, strangers = (
            self.hooks.call("analysis.decode", self._decode, truth))
        errors = self._base_errors()
        if image != expected:
            errors.append("SRAM image differs from the exact truth")
        if underestimates:
            errors.append(f"{underestimates} count-min underestimates")
        if strangers:
            errors.append(f"candidate slots hold unsent keys {strangers}")
        # err <= eps*N holds per key with probability >= 1 - delta.
        allowed = math.ceil(layout.delta * len(truth))
        if beyond_bound > allowed:
            errors.append(f"{beyond_bound} estimates beyond eps*N "
                          f"(> {allowed} allowed by delta)")
        if len(self.latencies) != self.sent:
            errors.append("updates lost before the sink")
        digest = network_digest(self.net)
        digest["applied"] = applied
        # The arrival order at the sink differs between burst and
        # stagger, the multiset of latencies within one workload does not.
        digest["latency_sum"] = sum(self.latencies)
        return Outcome(attempted=self.sent,
                       failed=self.sent - min(applied, len(self.latencies)),
                       hops=sum(digest["switched"]),
                       latencies_ns=self.latencies, digest=digest,
                       errors=errors)

    def _decode(self, truth: Counter):
        """Read the sketch back the way an end host would."""
        layout = self.layout
        image = image_from_mmu(self.switch.mmu, layout.words())
        countmin = CountMinDecoder(layout.countmin)
        applied = countmin.row_sum(image, row=0)
        bound = layout.countmin.error_bound(sum(truth.values()))
        beyond = under = 0
        for key, count in truth.items():
            estimate = countmin.raw_estimate(image, key)
            under += estimate < count
            beyond += estimate - count > bound
        claimed = HeavyHitterDecoder(layout).candidates(image)
        strangers = sorted(set(claimed) - set(truth))
        return image, applied, beyond, under, strangers


class SketchStagger(SketchBurst):
    name = "sketch_stagger"
    why = ("the same updates, keys and count as sketch_burst but sender i "
           "is offset by 37*i ns: every arrival is alone, core.batch does "
           "nothing, and the final SRAM image must equal sketch_burst's")
    STAGGER_NS = 37


# --------------------------------------------------------------------- #
# rcp_dumbbell
# --------------------------------------------------------------------- #

class RcpDumbbell(Workload):
    name = "rcp_dumbbell"
    why = ("three RCP* flows join a 20 Mb/s bottleneck: writes beside "
           "reads (CSTORE/CEXEC/STORE updates re-assembled per update), "
           "retry timers, control registers, the stats sampler, apps.rcp")
    sim_seconds = 0.8
    drain_ns = 5_000_000
    quick_scale = 0.5  # the fairness check needs the flows to converge
    CAPACITY_BPS = 20 * units.MEGABITS_PER_SEC
    LINK_DELAY_NS = 200_000
    PROBE_INTERVAL_NS = 1_000_000
    UPDATE_INTERVAL_NS = 1_000_000
    STATS_INTERVAL_NS = 1_000_000
    RTT_S = 0.004
    #: Flow i joins at this fraction of the run (+ seeded jitter).
    JOIN_FRACTIONS = (0.0, 0.25, 0.5)
    JOIN_JITTER_S = 0.005
    #: Floors checked over the last 20 % of the run.
    MIN_JAIN = 0.99
    MIN_UTILISATION = 0.4

    def setup(self) -> None:
        hooks = self.hooks
        builder = TopologyBuilder(seed=self.seed,
                                  rate_bps=10 * self.CAPACITY_BPS,
                                  delay_ns=self.LINK_DELAY_NS)
        net = builder.dumbbell(3, self.CAPACITY_BPS)
        self.net = net
        hooks.network(net)
        install_shortest_path_routes(net)
        switches = list(net.switches.values())
        for switch in switches:
            switch.start_stats(self.STATS_INTERVAL_NS)
        self.task = hooks.call("control.setup", self._control_plane,
                               switches)
        # Endpoints start from an RTT prior of twice the propagation RTT:
        # the collect deadline is adaptive (a multiple of the smoothed
        # RTT), and without a prior a flow that joins during a queue
        # excursion reads its first delayed echo as a loss.
        prior_ns = 2.0 * 6 * self.LINK_DELAY_NS
        for host in net.hosts.values():
            host.tpp = TPPEndpoint(host)
            host.tpp.rtt_ewma_ns = prior_ns
            hooks.endpoint(host.tpp)

        jitter = net.rng.stream("bench/rcp-join")
        self.flows: List[RCPStarFlow] = []
        self.latencies: List[int] = []
        self.folded = 0
        for index, fraction in enumerate(self.JOIN_FRACTIONS):
            src, dst = net.host(f"h{index}"), net.host(f"h{index + 3}")
            flow = RCPStarFlow(
                self.task, index, src, dst, dst.mac,
                capacity_bps=self.CAPACITY_BPS, rtt_s=self.RTT_S,
                probe_interval_ns=self.PROBE_INTERVAL_NS,
                update_interval_ns=self.UPDATE_INTERVAL_NS, max_hops=2)
            self._tap_collects(flow)
            self.flows.append(flow)
            join_ns = round(fraction * self.end_ns)
            if index:
                join_ns += units.seconds(
                    jitter.uniform(0.0, self.JOIN_JITTER_S))
            net.sim.schedule_at(join_ns, flow.start)

    @staticmethod
    def _control_plane(switches) -> RCPStarTask:
        agent = ControlPlaneAgent(switches, memory_map=MemoryMap.standard())
        return RCPStarTask(agent)

    def _tap_collects(self, flow: RCPStarFlow) -> None:
        """Count and time every collect the flow's controller folds."""
        fold = self.hooks.callback(flow.prober.on_result)

        def on_collect(result) -> None:
            before = flow.links[0].samples if flow.links else 0
            fold(result)
            if flow.links and flow.links[0].samples == before + 1:
                self.folded += 1
                self.latencies.append(result.rtt_ns)

        flow.prober.on_result = on_collect

    def stop_sources(self) -> None:
        for flow in self.flows:
            flow.stop()

    def finish(self) -> Outcome:
        fairness, utilisation = self.hooks.call("analysis.decode",
                                                self._steady_state)
        errors = self._base_errors()
        if fairness < self.MIN_JAIN:
            errors.append(f"Jain index {fairness:.4f} < {self.MIN_JAIN}")
        if not self.MIN_UTILISATION <= utilisation <= 1.0:
            errors.append(f"bottleneck utilisation {utilisation:.3f} "
                          f"outside [{self.MIN_UTILISATION}, 1]")
        probers = [flow.prober for flow in self.flows]
        sent = sum(prober.probes_sent for prober in probers)
        suppressed = sum(prober.probes_suppressed for prober in probers)
        if suppressed:
            errors.append(f"{suppressed} collect probes suppressed")
        digest = network_digest(self.net)
        digest["folded"] = self.folded
        digest["latency_sum"] = sum(self.latencies)
        digest["rates"] = tuple(flow.flow.rate_bps for flow in self.flows)
        digest["updates"] = tuple(flow.updates_sent for flow in self.flows)
        digest["registers"] = self._registers()
        digest["goodput"] = tuple(flow.sink.bytes_received
                                  for flow in self.flows)
        return Outcome(attempted=sent, failed=sent - self.folded,
                       hops=sum(digest["switched"]),
                       latencies_ns=self.latencies, digest=digest,
                       errors=errors)

    def _steady_state(self) -> Tuple[float, float]:
        start = round(0.8 * self.end_ns)
        goodputs = [flow.sink.goodput_bps(start, self.end_ns)
                    for flow in self.flows]
        return (jain_fairness(goodputs),
                sum(goodputs) / self.CAPACITY_BPS)

    def _registers(self) -> tuple:
        slots = (self.task.rate_vaddr - LINK_SCRATCH_BASE,
                 self.task.ts_vaddr - LINK_SCRATCH_BASE)
        return tuple(switch.mmu.peek_link_scratch(port.index, slot)
                     for switch in self.net.switches.values()
                     for port in switch.ports for slot in slots)


# --------------------------------------------------------------------- #
# ndb_fattree
# --------------------------------------------------------------------- #

class NdbFattree(Workload):
    name = "ndb_fattree"
    why = ("hop-mode trace TPPs piggybacked on every data packet across "
           "ECMP + TCAM lookup, 12 switches and many ports, with the "
           "apps.ndb collector / verifier working per packet")
    sim_seconds = 0.016
    RATE_BPS = 100 * units.MEGABITS_PER_SEC
    PACKET_BYTES = 200
    UDP_PORT = 9000

    def setup(self) -> None:
        hooks = self.hooks
        net = TopologyBuilder(seed=self.seed).fat_tree(k=4)
        self.net = net
        hooks.network(net)
        install_shortest_path_routes(net)
        adjacency = net.adjacency()
        leaves = [sw for name, sw in net.switches.items()
                  if name.startswith("leaf")]
        spines = {name for name in net.switches if name.startswith("spine")}
        leaf_of = {}
        for leaf in leaves:
            for _, peer, _ in adjacency[leaf.name]:
                if peer in net.hosts:
                    leaf_of[peer] = leaf
        # ECMP: every leaf may reach a remote host through any spine.
        self.uplinks = {leaf.name: {peer: port for port, peer, _
                                    in adjacency[leaf.name]
                                    if peer in spines}
                        for leaf in leaves}
        for leaf in leaves:
            for name, host in net.hosts.items():
                if leaf_of[name] is leaf:
                    continue
                for port in self.uplinks[leaf.name].values():
                    leaf.l2.add_alternate(host.mac, port)

        # One flow per leaf; its sink hangs off the leaf `shift` further on,
        # so every flow crosses the spine layer whatever the seed picks.
        rng = net.rng.stream("bench/ndb-pairs")
        by_leaf = [[name for name in net.hosts if leaf_of[name] is leaf]
                   for leaf in leaves]
        shift = rng.randrange(1, len(leaves))
        sources = [rng.choice(pair) for pair in by_leaf]
        self.tagger = NdbTagger(hops=5)
        self.sent_at: Dict[int, int] = {}
        self.flows = []
        self.collectors = []
        self.sinks = []
        for index, src_name in enumerate(sources):
            dst_pair = by_leaf[(index + shift) % len(leaves)]
            dst_name = next(name for name in dst_pair
                            if name not in sources)
            src, dst = net.host(src_name), net.host(dst_name)
            dst.tpp = TPPEndpoint(dst)
            hooks.endpoint(dst.tpp)
            self.collectors.append(NdbCollector(dst))
            self.sinks.append(FlowSink(dst, self.UDP_PORT))
            flow = Flow(src, dst, dst.mac, self.UDP_PORT, self.RATE_BPS,
                        packet_bytes=self.PACKET_BYTES)
            self.tagger.attach(flow)
            self._stamp_sends(flow)
            self.flows.append(flow)
            flow.start()
        # The fat-finger event: at half-time one flow's source leaf gets
        # a TCAM rule that detours it through a spine it was not using.
        self.victim = rng.randrange(len(self.flows))
        self.victim_leaf = leaf_of[sources[self.victim]]
        self.detour_choice = rng.random()
        self.rule = None
        self.leaf_of = leaf_of
        net.sim.schedule_at(self.end_ns // 2, self._fat_finger)

    def _stamp_sends(self, flow: Flow) -> None:
        tag = self.hooks.callback(flow.frame_factory)

        def factory(flow: Flow, packet_bytes: int) -> EthernetFrame:
            frame = tag(flow, packet_bytes)
            self.sent_at[frame.uid] = flow.src.sim.now_ns
            return frame

        flow.frame_factory = factory

    def _fat_finger(self) -> None:
        journeys = self.collectors[self.victim].journeys
        spine_ids = {self.net.switch(name).switch_id: name
                     for name in self.uplinks[self.victim_leaf.name]}
        in_use = spine_ids[journeys[-1].switch_ids()[1]]
        others = sorted(name for name in spine_ids.values()
                        if name != in_use)
        wrong = others[int(self.detour_choice * len(others))]
        self.rule = self.victim_leaf.install_tcam_rule(TcamRule(
            priority=99, out_port=self.uplinks[self.victim_leaf.name][wrong],
            dst_mac=self.flows[self.victim].dst_mac))
        self.wrong_spine_id = self.net.switch(wrong).switch_id

    def stop_sources(self) -> None:
        for flow in self.flows:
            flow.stop()

    def finish(self) -> Outcome:
        judged, latencies, path_hash, errors = self.hooks.call(
            "analysis.decode", self._judge)
        errors += self._base_errors()
        sent = sum(flow.packets_sent for flow in self.flows)
        delivered = sum(sink.packets_received for sink in self.sinks)
        if delivered != sent:
            errors.append(f"{sent - delivered} data packets not delivered")
        digest = network_digest(self.net)
        digest["judged"] = judged
        digest["paths"] = path_hash
        digest["latency_sum"] = sum(latencies)
        digest["tagged"] = self.tagger.packets_tagged
        return Outcome(attempted=sent, failed=sent - judged,
                       hops=sum(digest["switched"]),
                       latencies_ns=latencies, digest=digest, errors=errors)

    def _judge(self):
        """Reassemble and judge every journey against controller intent.

        Intent per flow is the ECMP path its packets took from the first
        one on (which must be source leaf -> a spine -> destination leaf);
        after the rule the victim's packets must be judged wrong-path via
        the detour spine and everybody else's must stay clean.
        """
        net = self.net
        errors: List[str] = []
        latencies: List[int] = []
        path_hash = hashlib.sha256()
        judged = 0
        spine_ids = {net.switch(name).switch_id
                     for name in net.switches if name.startswith("spine")}
        for index, (flow, collector) in enumerate(
                zip(self.flows, self.collectors)):
            journeys = collector.journeys
            if not journeys:
                errors.append(f"flow {index}: no journeys")
                continue
            src_leaf = self.leaf_of[flow.src.name]
            dst_leaf = self.leaf_of[flow.dst.name]
            intended = journeys[0].switch_ids()
            if (len(intended) != 3 or intended[0] != src_leaf.switch_id
                    or intended[1] not in spine_ids
                    or intended[2] != dst_leaf.switch_id):
                errors.append(f"flow {index}: first path {intended} is not "
                              f"leaf-spine-leaf")
                continue
            entries = {}
            for switch_id in intended:
                switch = next(sw for sw in net.switches.values()
                              if sw.switch_id == switch_id)
                entry = switch.l2.entry_for(flow.dst_mac)
                entries[switch_id] = (entry.entry_id, entry.version)
            verifier = PathVerifier(intended, entries)
            detoured = [intended[0], self.wrong_spine_id, intended[2]]
            wrong_seen = False
            for journey in journeys:
                kinds = {v.kind for v in verifier.verify_one(journey)}
                path = journey.switch_ids()
                via_rule = (index == self.victim
                            and journey.hops[0].entry_id
                            == self.rule.entry_id)
                if via_rule:
                    wrong_seen = True
                    ok = (path == detoured and kinds
                          == {"wrong-path", "unknown-rule"})
                else:
                    # Once the rule matched, every later packet must too.
                    ok = not kinds and not wrong_seen
                if ok:
                    judged += 1
                    latencies.append(journey.received_at_ns
                                     - self.sent_at[journey.frame_uid])
                path_hash.update(repr((index, path)).encode())
            if index == self.victim and not wrong_seen:
                errors.append("the detour rule never showed in a trace")
        return judged, latencies, path_hash.hexdigest()[:16], errors


WORKLOADS = {cls.name: cls for cls in (
    ForwardLine, ProbeLine, SketchBurst, SketchStagger, RcpDumbbell,
    NdbFattree)}
