"""Per-layer metrics of one traced repeat.

Times come from the spans :mod:`tracing` recorded (self time = span minus
children, inside the timed ``bench.run`` phase unless noted); counts are
read from the program's public statistics at the same boundary, the end
of the repeat.  README.md says which end-to-end metric each one should
move, and on which workload.
"""

from __future__ import annotations

import math
from typing import Dict, List

from tracing import LAYERS, Tracer

RUN, SETUP, FINISH = "bench.run", "bench.setup", "bench.finish"


def percentile(sorted_values: List[int], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = math.ceil(fraction * len(sorted_values))
    return float(sorted_values[max(0, rank - 1)])


def queue_drops(net) -> int:
    """Packets tail-dropped at any port queue of the network."""
    return sum(queue.stats.packets_dropped for device in net.all_devices()
               for port in device.ports for queue in port.queues)


def layer_metrics(tracer: Tracer, outcome, wall_ratio: float
                  ) -> Dict[str, float]:
    """``outcome`` is the traced repeat's; ``wall_ratio`` its timed wall
    time over that of the untraced repeat run just before it."""
    summary = tracer.summary()
    wall_ns = summary.phase_ns[RUN]
    layer_ns = summary.layer_self_ns(RUN)
    hops = max(1, outcome.hops)
    ops = max(1, outcome.attempted - outcome.failed)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    def us_per(nanoseconds: float, denominator: float) -> float:
        return per(nanoseconds / 1e3, denominator)

    def count(phase, *names) -> int:
        return summary.matching(summary.count, phase, *names)

    def total(phase, *names) -> int:
        return summary.matching(summary.total_ns, phase, *names)

    def own(phase, *names) -> int:
        return summary.matching(summary.self_ns, phase, *names)

    def children_of(parent_suffix: str, child: str) -> int:
        return sum(value for (phase, name, parent), value
                   in summary.edges.items()
                   if phase == RUN and name == child
                   and parent.endswith(parent_suffix))

    switches = [sw for net in tracer.nets for sw in net.switches.values()]
    tcpus = [sw.tcpu for sw in switches]
    cache = [sw.fastpath_stats() for sw in switches]
    events = sum(net.sim.events_processed for net in tracer.nets)
    tpps = sum(tcpu.tpps_executed for tcpu in tcpus)
    batched = sum(tcpu.batched_tpps for tcpu in tcpus)
    vector = sum(tcpu.vector_tpps for tcpu in tcpus)
    hits = sum(stats["hits"] for stats in cache)
    lookups = hits + sum(stats["misses"] for stats in cache)
    endpoints = tracer.endpoints
    sends = ("endhost.send", "endhost.wrap", "endhost.send_tpp")
    receive = "endhost.TPPEndpoint._on_tpp_frame"
    pump = "endhost.PacedSender._pump"
    latencies = sorted(outcome.latencies_ns)
    attributed = sum(layer_ns.get(layer, 0) for layer in LAYERS)

    return {
        "sim.events_per_hop": events / hops,
        "sim.self_us_per_event": us_per(layer_ns.get("sim", 0), events),
        "sim.self_share": layer_ns.get("sim", 0) / wall_ns,
        "sim.latency_us_p50": percentile(latencies, 0.50) / 1e3,
        "sim.latency_us_p99": percentile(latencies, 0.99) / 1e3,
        "net.self_us_per_hop": us_per(layer_ns.get("net", 0), hops),
        "net.self_share": layer_ns.get("net", 0) / wall_ns,
        "net.enqueue_calls_per_hop": count(RUN, "net.enqueue") / hops,
        "net.queue_drops": float(sum(queue_drops(net)
                                     for net in tracer.nets)),
        "asic.receive_self_us_per_hop": us_per(
            own(RUN, "asic.receive", "asic.TPPSwitch._drain_ingress"), hops),
        "asic.self_share": layer_ns.get("asic", 0) / wall_ns,
        # Every hop schedules its egress enqueue exactly once, from
        # receive() when it ran inline or from the zero-delay drain.
        "asic.deferred_fraction":
            children_of("._drain_ingress", "sim.schedule") / hops,
        "asic.stats_self_share": own(RUN, "asic.SwitchStats.") / wall_ns,
        "core.exec_us_per_tpp": us_per(total(RUN, "core.execute"),
                                       count(RUN, "core.execute")),
        "core.tpps_executed": float(tpps),
        "core.instructions_per_tpp": per(
            sum(tcpu.instructions_executed for tcpu in tcpus), tpps),
        "core.batch_us_per_tpp": us_per(total(RUN, "core.execute_batch"),
                                        batched),
        "core.batch_mean_occupancy": per(
            batched, sum(tcpu.batches_executed for tcpu in tcpus)),
        "core.lane_vector_fraction": per(vector, tpps),
        "core.lane_safe_fraction": per(batched - vector, tpps),
        "core.batch_fallbacks": float(sum(tcpu.batch_fallbacks
                                          for tcpu in tcpus)),
        "core.self_share": layer_ns.get("core", 0) / wall_ns,
        "core.cache_hit_ratio": per(hits, lookups),
        "core.verified_fraction": per(
            sum(tcpu.verified_executions for tcpu in tcpus), tpps),
        # Assemble / verify are counted over the whole repeat: in-loop on
        # rcp_dumbbell, during set-up on the sketch workloads.
        "core.assemble_calls": float(count(None, "core.assemble")),
        "core.assemble_us_per_call": us_per(total(None, "core.assemble"),
                                            count(None, "core.assemble")),
        "core.verify_calls": float(count(None, "core.verify")),
        "core.verify_us_per_call": us_per(total(None, "core.verify"),
                                          count(None, "core.verify")),
        "core.faults": float(sum(tcpu.faults for tcpu in tcpus)),
        "endhost.send_us_per_probe": us_per(own(RUN, *sends),
                                            count(RUN, *sends)),
        "endhost.rx_us_per_tpp": us_per(own(RUN, receive),
                                        count(RUN, receive)),
        "endhost.self_share": layer_ns.get("endhost", 0) / wall_ns,
        "endhost.pacer_us_per_pkt": us_per(
            own(RUN, pump), children_of(pump, "net.enqueue")),
        "endhost.timeouts": float(sum(e.timeouts for e in endpoints)),
        "endhost.retries": float(sum(e.retries for e in endpoints)),
        "endhost.orphan_responses": float(sum(e.orphan_responses
                                              for e in endpoints)),
        "control.setup_us": total(SETUP, "control.") / 1e3,
        "apps.callback_us_per_op": us_per(layer_ns.get("apps", 0), ops),
        "apps.self_share": layer_ns.get("apps", 0) / wall_ns,
        "telemetry.build_us_per_program": us_per(
            total(SETUP, "telemetry."), count(SETUP, "telemetry.")),
        "analysis.decode_us": total(FINISH, "analysis.") / 1e3,
        "trace.overhead_ratio": wall_ratio,
        "trace.unattributed_share": 1.0 - attributed / wall_ns,
    }
