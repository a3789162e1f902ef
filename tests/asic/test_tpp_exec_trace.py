"""The per-hop ``tpp.exec`` record is opt-in firehose.

Nothing under ``src/`` reads it, and each record snapshots the whole packet
memory, so a default network stores none; a run that opts in gets exactly
the records it always had.
"""

import hashlib

from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder
from repro.sim.trace import TraceLevel

PROBES = 200
SPACING_NS = 2_560

PROBE = """
PUSH [Switch:SwitchID]
PUSH [Queue:QueueSize]
PUSH [Link:CapacityMbps]
"""

#: sha256 of :func:`canonical` over the 1,200 records of :func:`probe_line`
#: as recorded when ``tpp.exec`` was on by default.
RECORDS_SHA256 = (
    "0993e958755003b01fedb14d3a787ebf4a8fd97e6a238eb18840e41ec9cbaa44")


def probe_line():
    """200 echoed 3-``PUSH`` probes over ``linear(3)``, not yet run."""
    net = TopologyBuilder(seed=1).linear(3)
    install_shortest_path_routes(net)
    h0, h1 = net.host("h0"), net.host("h1")
    h0.tpp, h1.tpp = TPPEndpoint(h0), TPPEndpoint(h1)
    program = assemble(PROBE)
    for index in range(PROBES):
        net.sim.schedule(index * SPACING_NS, lambda: h0.tpp.send(
            program, dst_mac=h1.mac, on_response=lambda result: None))
    return net


def canonical(records):
    """Every field, in order; ``frame_uid`` relative to the first record's
    because the uid counter is process-wide."""
    base = records[0].detail["frame_uid"]
    return [(r.time_ns, r.source, r.detail["frame_uid"] - base,
             tuple(sorted((key, value) for key, value in r.detail.items()
                          if key != "frame_uid")))
            for r in records]


def switched(net) -> int:
    return sum(switch.packets_switched for switch in net.switches.values())


def test_default_network_stores_no_tpp_exec_record():
    net = probe_line()
    net.sim.run()
    assert switched(net) == 6 * PROBES  # three hops out, three back
    assert len(net.trace) == 0
    assert net.trace.records_emitted == 0
    assert not net.trace.firehose


def test_opted_in_records_are_the_default_on_ones():
    net = probe_line()
    net.trace.set_kind_level("tpp.exec", TraceLevel.INFO)
    net.sim.run()
    records = net.trace.records(kind="tpp.exec")
    assert len(records) == len(net.trace) == 6 * PROBES
    assert sorted(records[0].detail) == [
        "cycles", "executed", "fault", "frame_uid", "memory_words", "seq",
        "skipped", "sp_or_hop", "task"]
    # The first probe's first hop: three PUSHes, SP 0 -> 12, 24 words of
    # packet memory (the default 8-hop allocation).
    first = records[0]
    assert (first.source, first.time_ns) == ("sw0", 2104)
    assert first.detail["executed"] == 3 and first.detail["cycles"] == 6
    assert first.detail["sp_or_hop"] == 12
    assert first.detail["memory_words"] == [1, 0, 1000] + [0] * 21
    digest = hashlib.sha256(repr(canonical(records)).encode()).hexdigest()
    assert digest == RECORDS_SHA256


def test_opting_in_mid_run_applies_from_the_next_tpp():
    net = probe_line()
    net.sim.run(until_ns=PROBES // 2 * SPACING_NS)
    assert len(net.trace) == 0
    before = switched(net)
    net.trace.set_kind_level("tpp.exec", TraceLevel.INFO)
    assert net.trace.firehose
    opted_in_at = net.sim.now_ns
    net.sim.run()
    records = net.trace.records(kind="tpp.exec")
    # One record per TPP hop switched after the level change, none before.
    assert len(records) == switched(net) - before > 0
    assert records[0].time_ns >= opted_in_at
