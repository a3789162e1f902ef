#!/usr/bin/env python
"""ndb — debugging the forwarding plane with TPPs (paper §2.3).

A leaf/spine fabric forwards a monitored flow.  Mid-run, a "fat-fingered"
operator installs a high-priority TCAM rule on the source leaf that
detours the flow through the wrong spine.  Black-box connectivity stays
green — packets still arrive — but the per-packet TPP traces catch the
divergence immediately and name the switch and the rule responsible.

Run:  python examples/ndb_debugger.py
"""

from collections import Counter

from repro import units
from repro.apps.ndb import NdbCollector, NdbTagger, PathVerifier
from repro.asic.tables import TcamRule
from repro.endhost.flows import Flow, FlowSink
from repro.net.routing import host_path, install_shortest_path_routes
from repro.net.topology import TopologyBuilder
from repro.sim.trace import TraceLevel

# --- fabric: 2 spines, 4 leaves, 8 hosts ------------------------------------
builder = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC, delay_ns=2_000)
net = builder.fat_tree(k=2)
install_shortest_path_routes(net)
h0, h2 = net.host("h0"), net.host("h2")  # hosts on different leaves

# --- monitored flow: every packet wrapped in the trace TPP ------------------
sink = FlowSink(h2, 99)
collector = NdbCollector(h2)
tagger = NdbTagger(hops=5)
flow = Flow(h0, h2, h2.mac, 99, rate_bps=20 * units.MEGABITS_PER_SEC,
            packet_bytes=500)
tagger.attach(flow)

# --- controller intent -------------------------------------------------------
intended_path = host_path(net, "h0", "h2")
expected_switches = [net.switch(name).switch_id
                     for name in intended_path if name in net.switches]
current_entries = {}
for switch in net.switches.values():
    entry = switch.l2.entry_for(h2.mac)
    if entry is not None:
        current_entries[switch.switch_id] = (entry.entry_id, entry.version)
verifier = PathVerifier(expected_switches, current_entries)
print(f"controller intent: h0 -> {' -> '.join(intended_path[1:-1])} -> h2")

# --- the fat-finger event at t = 30 ms ---------------------------------------
leaf = net.switches[intended_path[1]]
wrong_spine = next(name for name in net.switches
                   if name.startswith("spine")
                   and name != intended_path[2])
wrong_port = next(local for local, peer, _ in net.adjacency()[leaf.name]
                  if peer == wrong_spine)


def fat_finger():
    leaf.install_tcam_rule(TcamRule(priority=99, out_port=wrong_port,
                                    dst_mac=h2.mac))
    print(f"t=30ms: operator installs a priority-99 TCAM rule on "
          f"{leaf.name} -> {wrong_spine} (oops)")


net.sim.schedule(units.milliseconds(30), fat_finger)

# --- zoom in: a 1 ms DEBUG firehose window after the change -----------------
net.sim.schedule(units.milliseconds(40), net.trace.set_level,
                 TraceLevel.DEBUG)
net.sim.schedule(units.milliseconds(41), net.trace.set_level,
                 TraceLevel.INFO)

flow.start()
net.run(until_seconds=0.06)
flow.stop()

# --- what ndb saw -------------------------------------------------------------
print(f"\npackets delivered: {sink.packets_received} "
      f"(connectivity looks fine!)")
print(f"journeys reassembled from TPP traces: {len(collector.journeys)}")

paths_seen = Counter(tuple(j.switch_ids()) for j in collector.journeys)
for path, count in paths_seen.most_common():
    marker = "OK " if list(path) == expected_switches else "BAD"
    print(f"  [{marker}] path {list(path)}: {count} packets")

violations = verifier.verify(collector.journeys)
print(f"\nviolations detected: {len(violations)}")
by_kind = Counter(v.kind for v in violations)
for kind, count in by_kind.items():
    print(f"  {kind}: {count}")
first = next(v for v in violations if v.kind == "wrong-path")
print(f"\nfirst wrong-path packet: frame {first.frame_uid}: "
      f"{first.detail}")
rule_violation = next((v for v in violations if v.kind == "unknown-rule"),
                      None)
if rule_violation is not None:
    print(f"culprit rule seen in the dataplane on switch "
          f"{rule_violation.switch_id}: {rule_violation.detail}")
detour = [record for record in net.trace.records(kind="link.deliver")
          if record.detail["dst_device"] == wrong_spine]
print(f"\nDEBUG window 40-41 ms: {len(detour)} frame deliveries into "
      f"{wrong_spine}, the detour the traces flagged")
assert detour
print("\nndb pinpointed the divergence from per-packet dataplane traces "
      "— no packet copies, no switch CPU involvement (§2.3).")
