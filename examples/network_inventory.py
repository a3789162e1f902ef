#!/usr/bin/env python
"""Path characterization with arithmetic folding and scatter/gather.

Two techniques on top of the basic instruction set:

- MIN/MAX fold whole-path state into *one word* of packet memory
  (the narrowest link, the deepest queue), regardless of hop count;
- per-switch CEXEC-gated TPPs scatter a big collection task over several
  packets ("end-hosts can use multiple TPPs if a single packet is
  insufficient", §3.2) and gather the results.

Run:  python examples/network_inventory.py
"""

from repro import units
from repro.apps.pathprobe import PathBottleneckProbe, SwitchInventory
from repro.endhost.client import TPPEndpoint
from repro.net.packet import Datagram, RawPayload
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import Network

# --- a path with a deliberate 100 Mb/s waist in the middle -----------------
net = Network(seed=0)
switches = [net.add_switch() for _ in range(4)]
rates = [units.GIGABITS_PER_SEC, 100 * units.MEGABITS_PER_SEC,
         400 * units.MEGABITS_PER_SEC]
for (left, right), rate in zip(zip(switches, switches[1:]), rates):
    net.link(left, right, rate)
h0, h1 = net.add_host(), net.add_host()
net.link(h0, switches[0], units.GIGABITS_PER_SEC)
net.link(h1, switches[-1], units.GIGABITS_PER_SEC)
install_shortest_path_routes(net)
h0.tpp = TPPEndpoint(h0)
h1.tpp = TPPEndpoint(h1)

# Populate some extra forwarding state so the inventory has texture.
from repro.asic.tables import TcamRule
net.switch("sw1").install_tcam_rule(
    TcamRule(priority=1, out_port=1, dst_port=53))
net.switch("sw2").install_tcam_rule(
    TcamRule(priority=1, out_port=1, dst_port=53))
net.switch("sw2").install_tcam_rule(
    TcamRule(priority=2, out_port=1, dst_port=123))

# ...and an IPv4 prefix route on sw0 for an off-fabric subnet: a datagram
# whose next-hop MAC no L2 table knows is forwarded by longest-prefix
# match (the pipeline's L3 stage); sw1 has no route for it and drops it.
uplink = next(local for local, peer, _ in net.adjacency()["sw0"]
              if peer == "sw1")
route = net.switch("sw0").install_l3_route(0x0A630000, 16, uplink)
h0.send_datagram(0x02FF_FFFF_FFFF,
                 Datagram(h0.ip, 0x0A630001, 1, 9, RawPayload(100)))

# --- one folded probe: two words describe the whole path -------------------
summaries = []
probe = PathBottleneckProbe(h0.tpp, h1.mac)
probe.probe(summaries.append)
net.run(until_seconds=0.01)
summary = summaries[0]
print("folded path probe (2 words of packet memory, 4 switches):")
print(f"  narrowest link on path : {summary.bottleneck_capacity_mbps} "
      f"Mb/s")
print(f"  deepest queue on path  : {summary.max_queue_bytes} bytes")

# --- scatter/gather: one CEXEC-gated TPP per switch -------------------------
reports = []
SwitchInventory(h0.tpp, h1.mac).collect(reports.append)
net.run(until_seconds=0.05)

print("\nswitch inventory (1 discovery TPP + 1 gated TPP per switch):")
print(f"{'switch':>8} {'L2':>4} {'TCAM':>8} {'pkts switched':>14} "
      f"{'TPPs run':>9}")
for switch_id, report in sorted(reports[0].items()):
    print(f"{switch_id:>8} {report.l2_entries:>4} "
          f"{report.tcam_entries:>8} {report.packets_switched:>14} "
          f"{report.tpps_executed:>9}")

print(f"\noff-fabric datagram: sw0 routed it by prefix "
      f"({net.switch('sw0').l3.hit_counts[route.entry_id]} L3 hit), sw1 "
      f"dropped it ({net.switch('sw1').packets_dropped_no_route} no-route "
      f"drop)")
assert net.switch("sw0").l3.hit_counts[route.entry_id] == 1
assert net.switch("sw1").packets_dropped_no_route == 1

print("\nThe MIN fold needs 8 bytes of packet memory for any path length;"
      "\na PUSH-per-hop survey of the same two statistics needs "
      "8 x hops bytes.")
