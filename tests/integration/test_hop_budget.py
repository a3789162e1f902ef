"""The hop's Python budget: function calls per switched hop.

Every workload crosses sim -> net -> asic before its first TPP instruction
runs, and that path is many small calls rather than one hot function, so
its cost is tracked as a *count*: ``call`` + ``c_call`` profile events
inside ``sim.run()`` per switched hop.  The count is deterministic and the
same on every machine, which a wall-clock threshold is not.

Figures this test measured on the commit before the hop was merged
(``f3133a6``), with the senders and receivers below:

- bare forwarding, 200 paced 64-byte datagrams over ``linear(3)``:
  **117.49** calls per hop;
- 200 paced 3-``PUSH`` probes, echoed, over the same line: **142.93**.

The budgets are 0.70x and 0.75x of those.  A failure here means a per-hop
value is being recomputed, a single-caller stage became its own frame
again, or an idle port went back to polling its scheduler; see
docs/architecture.md, "Hot path & trace levels".
"""

import sys

from repro import units
from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint
from repro.endhost.flows import Flow, FlowSink
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder

PARENT_FORWARD_CALLS_PER_HOP = 117.49
PARENT_PROBE_CALLS_PER_HOP = 142.93

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
    assert per_hop <= 0.70 * PARENT_FORWARD_CALLS_PER_HOP


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
    assert all(len(result.stack_words()) == 9 for result in echoed)
    assert hops(net) == 6 * PACKETS  # three out, three back
    per_hop = calls / hops(net)
    print(f"probe: {per_hop:.2f} calls/hop "
          f"(parent {PARENT_PROBE_CALLS_PER_HOP})")
    assert per_hop <= 0.75 * PARENT_PROBE_CALLS_PER_HOP
