"""The hop's Python budget: function calls per switched hop.

Every workload crosses sim -> net -> asic before its first TPP instruction
runs, and that path is many small calls rather than one hot function, so
its cost is tracked as a *count*: ``call`` + ``c_call`` profile events
inside ``sim.run()`` per switched hop.  The count is deterministic and the
same on every machine, which a wall-clock threshold is not.

Figures this test measured on the commit before the TPP stages were
merged (``6ec2c3e``), with the senders and receivers below:

- bare forwarding, 200 paced 64-byte datagrams over ``linear(3)``:
  **74.85** calls per hop (117.49 before the hop itself was merged, at
  ``f3133a6``);
- 200 paced 3-``PUSH`` probes, echoed, over the same line: **99.27**
  (142.93 at ``f3133a6``);
- a 100 Mb/s flow of 200-byte datagrams over the same line, every packet
  wrapped in the hop-mode ndb trace TPP and reassembled by a collector:
  **134.34**.

The budgets are 1.00x, 0.85x and 0.87x of those: forwarding crosses no
TPP stage and must not move.  A failure here means a per-hop value is
being recomputed, a single-caller stage became its own frame again, an
idle port went back to polling its scheduler, or a trace record is built
that nobody asked for; see docs/architecture.md, "Hot path & trace
levels".
"""

import sys

from repro import units
from repro.apps.ndb import NdbCollector, NdbTagger
from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint
from repro.endhost.flows import Flow, FlowSink
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder

PARENT_FORWARD_CALLS_PER_HOP = 74.85
PARENT_PROBE_CALLS_PER_HOP = 99.27
PARENT_PIGGYBACK_CALLS_PER_HOP = 134.34

PACKETS = 200
#: One 64-byte packet time at the flow's 200 Mb/s.
SPACING_NS = 2_560

PROBE = """
PUSH [Switch:SwitchID]
PUSH [Queue:QueueSize]
PUSH [Link:CapacityMbps]
"""


def line():
    net = TopologyBuilder(seed=1).linear(3)
    install_shortest_path_routes(net)
    return net, net.host("h0"), net.host("h1")


def calls_inside(run) -> int:
    """``call`` + ``c_call`` events raised while ``run()`` executes."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" or event == "c_call":
            calls += 1

    previous = sys.getprofile()
    sys.setprofile(count)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return calls


def hops(net) -> int:
    return sum(switch.packets_switched for switch in net.switches.values())


def test_bare_forwarding_budget():
    net, h0, h1 = line()
    sink = FlowSink(h1, 7000)
    flow = Flow(h0, h1, h1.mac, 7000, 200 * units.MEGABITS_PER_SEC,
                packet_bytes=64)
    flow.start()

    def run():
        net.sim.run(until_ns=PACKETS * SPACING_NS)
        flow.stop()
        net.sim.run()

    calls = calls_inside(run)
    assert sink.packets_received == flow.packets_sent >= PACKETS
    assert hops(net) == 3 * flow.packets_sent
    per_hop = calls / hops(net)
    print(f"forwarding: {per_hop:.2f} calls/hop "
          f"(parent {PARENT_FORWARD_CALLS_PER_HOP})")
    assert per_hop <= PARENT_FORWARD_CALLS_PER_HOP


def test_probe_budget():
    net, h0, h1 = line()
    h0.tpp, h1.tpp = TPPEndpoint(h0), TPPEndpoint(h1)
    program = assemble(PROBE)
    echoed = []

    def probe():
        h0.tpp.send(program, dst_mac=h1.mac, on_response=echoed.append)

    for index in range(PACKETS):
        net.sim.schedule(index * SPACING_NS, probe)
    calls = calls_inside(net.sim.run)
    assert len(echoed) == PACKETS
    assert all(result.tpp.sp == 9 * result.tpp.word_size
               for result in echoed)
    assert hops(net) == 6 * PACKETS  # three out, three back
    per_hop = calls / hops(net)
    print(f"probe: {per_hop:.2f} calls/hop "
          f"(parent {PARENT_PROBE_CALLS_PER_HOP})")
    assert per_hop <= 0.85 * PARENT_PROBE_CALLS_PER_HOP


def test_piggyback_trace_budget():
    net, h0, h1 = line()
    h1.tpp = TPPEndpoint(h1)
    collector = NdbCollector(h1)
    sink = FlowSink(h1, 9000)
    flow = Flow(h0, h1, h1.mac, 9000, 100 * units.MEGABITS_PER_SEC,
                packet_bytes=200)
    NdbTagger(hops=5).attach(flow)
    flow.start()

    def run():
        net.sim.run(until_ns=PACKETS * 16_000)  # one packet time each
        flow.stop()
        net.sim.run()

    calls = calls_inside(run)
    assert sink.packets_received == flow.packets_sent == PACKETS + 1
    assert hops(net) == 3 * flow.packets_sent
    assert len(collector.journeys) == flow.packets_sent
    assert all(journey.switch_ids() == [1, 2, 3]
               for journey in collector.journeys)
    per_hop = calls / hops(net)
    print(f"piggyback: {per_hop:.2f} calls/hop "
          f"(parent {PARENT_PIGGYBACK_CALLS_PER_HOP})")
    assert per_hop <= 0.87 * PARENT_PIGGYBACK_CALLS_PER_HOP
