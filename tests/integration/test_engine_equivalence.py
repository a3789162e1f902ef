"""Whole-network engine equivalence: each scenario, three engines.

Each seeded scenario runs three ways — as built (compiled closures +
ingress batching), with every switch forced onto the reference
interpreter (``tcpu.compile_enabled = False``), and with every switch
forced packet-at-a-time (``tcpu.batch_enabled = False``) — and must
produce bit-identical observables: the wire bytes of every TPP an end
host received, the per-hop words decoded from every response, the final
SRAM image and the ``packets_switched`` / ``tpps_executed`` / ``faults``
counters of every switch.
"""

import pytest

from repro import units
from repro.apps.rcp import RCPStarFlow, RCPStarTask
from repro.control.agent import ControlPlaneAgent
from repro.control.security import VerifierPolicy
from repro.core.assembler import assemble
from repro.core.batch import HAVE_NUMPY
from repro.core.memory_map import MemoryMap
from repro.endhost.client import TPPEndpoint
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder
from repro.telemetry import HeavyHitterLayout, build_heavy_hitter_update

ENGINES = ("default", "interpreted", "unbatched")


def select_engine(net, engine):
    for switch in net.switches.values():
        if engine == "interpreted":
            switch.tcpu.compile_enabled = False
        elif engine == "unbatched":
            switch.tcpu.batch_enabled = False


def switch_state(net):
    return [(name, sw.mmu.sram_image(), sw.packets_switched,
             sw.tcpu.tpps_executed, sw.tcpu.faults)
            for name, sw in net.switches.items()]


def record_arrivals(endpoint, into):
    """Log the wire bytes of every executed TPP terminating here."""
    endpoint.add_tap(lambda tpp, frame: into.append(bytes(tpp.encode())))


def record_response(into):
    def on_response(result):
        into.append((bytes(result.tpp.encode()), result.per_hop_words(),
                     result.fault))
    return on_response


def probe_line(engine):
    """Echoed 3-PUSH probes down a 3-switch line; the middle batch of
    probes crosses a link that corrupts every frame in flight."""
    net = TopologyBuilder(seed=4, rate_bps=units.GIGABITS_PER_SEC,
                          delay_ns=1_000).linear(n_switches=3)
    install_shortest_path_routes(net)
    select_engine(net, engine)
    h0, h1 = net.host("h0"), net.host("h1")
    sender = TPPEndpoint(h0, verify_mode="enforce")
    responder = TPPEndpoint(h1)
    program = assemble("PUSH [Switch:SwitchID]\n"
                       "PUSH [Queue:QueueSize]\n"
                       "PUSH [Link:CapacityMbps]", hops=3)
    certificate = sender.admit(program).certificate
    for switch in net.switches.values():
        assert switch.tcpu.trust(certificate)
    arrivals, responses = [], []
    record_arrivals(responder, arrivals)
    link = h0.ports[0].link

    def send(n):
        for _ in range(n):
            sender.send(program, dst_mac=h1.mac,
                        on_response=record_response(responses))

    send(4)
    net.run(until_seconds=0.001)
    link.set_impairments(corrupt_rate=1.0)
    send(3)
    net.run(until_seconds=0.002)
    link.set_impairments()
    send(4)
    net.run(until_seconds=0.004)
    assert link.frames_corrupted == 3
    assert len(arrivals) == len(responses) == 11
    # The damage is real (truncated memory overflows the stack at some
    # hop) and the clean probes around it are untouched.
    assert all(sw.tcpu.faults for sw in net.switches.values())
    expected = [[sw.switch_id, 0, 1000] for sw in net.switches.values()]
    intact = [words == expected for _, words, _ in responses]
    assert all(intact[:4]) and all(intact[7:]) and not all(intact[4:7])
    return arrivals, responses, switch_state(net), net


def rcp_dumbbell(engine):
    """Three RCP* flows joining a bottleneck: collect probes piggybacked
    and standalone, CSTORE/CEXEC/STORE update TPPs, link scratch."""
    capacity = 20 * units.MEGABITS_PER_SEC
    net = TopologyBuilder(seed=5, rate_bps=10 * capacity,
                          delay_ns=200_000).dumbbell(3, capacity)
    install_shortest_path_routes(net)
    select_engine(net, engine)
    switches = list(net.switches.values())
    for switch in switches:
        switch.start_stats(1_000_000)
    task = RCPStarTask(ControlPlaneAgent(
        switches, memory_map=MemoryMap.standard()))
    for host in net.hosts.values():
        host.tpp = TPPEndpoint(host)
        host.tpp.rtt_ewma_ns = 2.0 * 6 * 200_000
    collects = []
    flows = []
    for index in range(3):
        src, dst = net.host(f"h{index}"), net.host(f"h{index + 3}")
        flow = RCPStarFlow(task, index, src, dst, dst.mac,
                           capacity_bps=capacity, rtt_s=0.004,
                           probe_interval_ns=1_000_000,
                           update_interval_ns=1_000_000, max_hops=2)
        fold = flow.prober.on_result

        def on_collect(result, fold=fold):
            collects.append((bytes(result.tpp.encode()),
                             result.per_hop_words(), result.fault))
            fold(result)

        flow.prober.on_result = on_collect
        flows.append(flow)
        net.sim.schedule_at(index * 20_000_000, flow.start)
    net.run(until_seconds=0.08)
    for flow in flows:
        flow.stop()
    net.run(until_seconds=0.085)
    assert len(collects) > 100
    assert all(flow.updates_sent > 10 for flow in flows)
    scratch = [switch.mmu.peek_link_scratch(port.index, slot)
               for switch in switches for port in switch.ports
               for slot in range(4)]
    rates = [flow.flow.rate_bps for flow in flows]
    return collects, (scratch, rates), switch_state(net), net


def sketch_burst(engine):
    """Eight senders fire the same certified heavy-hitter update in the
    same nanosecond: runs of 8 reach the hub's batch engine."""
    n_senders, task_id = 8, 1
    net = TopologyBuilder(seed=3, rate_bps=10 * units.GIGABITS_PER_SEC
                          ).star(n_senders + 1)
    install_shortest_path_routes(net)
    select_engine(net, engine)
    switch = next(iter(net.switches.values()))
    layout = HeavyHitterLayout(base_word=16, width=16, depth=3, n_slots=8)
    layout.allocate(switch.mmu, task_id)
    switch.tcpu.max_instructions = 2 * layout.depth + 1
    hosts = list(net.hosts.values())
    senders = [TPPEndpoint(host) for host in hosts[:n_senders]]
    sink_host = hosts[n_senders]
    sink = TPPEndpoint(sink_host, echo_probes=False)
    arrivals = []
    record_arrivals(sink, arrivals)
    updates = []
    for key in (7, 4242, 7, 31337, 4242, 7):
        update = build_heavy_hitter_update(
            layout, key, task_id=task_id,
            memory_map=switch.mmu.memory_map)
        assert switch.tcpu.trust(update.certificate)
        updates.append(update)

    def burst(update):
        for endpoint in senders:
            endpoint.send(update.program, dst_mac=sink_host.mac,
                          task_id=task_id)

    for index, update in enumerate(updates):
        net.sim.schedule_at(1 + index * 4_000, burst, update)
    net.run(until_seconds=0.001)
    assert len(arrivals) == n_senders * len(updates)
    return arrivals, None, switch_state(net), net


def fenced_template_burst(engine):
    """Eight senders behind a ``VerifierPolicy``-guarded edge fire one
    fenced-STORE template in the same nanosecond: first the image whose
    fence is statically dead, then the image aimed at this switch, then
    both interleaved.  All share a program key; the policy's verdict
    memo and the certificate it pushes to the TCPU are per image."""
    n_senders = 8
    net = TopologyBuilder(seed=6, rate_bps=10 * units.GIGABITS_PER_SEC
                          ).star(n_senders + 1)
    install_shortest_path_routes(net)
    select_engine(net, engine)
    switch = next(iter(net.switches.values()))
    hosts = list(net.hosts.values())
    sender_names = {host.name for host in hosts[:n_senders]}
    policy = VerifierPolicy(memory_map=switch.mmu.memory_map)
    for local, peer, _ in net.adjacency()[switch.name]:
        if peer in sender_names:
            policy.mark_untrusted(switch.name, local)
    switch.tpp_policy = policy
    senders = [TPPEndpoint(host) for host in hosts[:n_senders]]
    sink_host = hosts[n_senders]
    sink = TPPEndpoint(sink_host, echo_probes=False)
    arrivals = []
    record_arrivals(sink, arrivals)
    dead = assemble("LOAD [Switch:SwitchID], [Packet:0]\n"
                    "CEXEC [Switch:SwitchID], $Mask, $Want\n"
                    "STORE [Sram:Word0], [Packet:0]\n",
                    symbols={"Mask": 0x0F, "Want": 0x100})
    live = dead.rebind({"Mask": 0xFFFFFFFF, "Want": switch.switch_id})
    assert dead.program_key == live.program_key

    def burst(images):
        for endpoint, image in zip(senders, images):
            endpoint.send(image, dst_mac=sink_host.mac)

    bursts = ([dead] * n_senders, [live] * n_senders,
              [dead, live] * (n_senders // 2))
    for index, images in enumerate(bursts):
        net.sim.schedule_at(1 + index * 4_000, burst, images)
    net.run(until_seconds=0.001)
    assert len(arrivals) == n_senders * len(bursts)
    assert (policy.tpps_verified, policy.tpps_admitted) == (2, 24)
    assert switch.tcpu.certificates == 1   # one program key ...
    assert len(switch.tcpu.fleet) == 2     # ... two images
    assert switch.mmu.peek_sram(0) == switch.switch_id  # live STOREs ran
    if engine == "default":
        assert switch.tcpu.batch_occupancy == {n_senders: len(bursts)}
    return arrivals, None, switch_state(net), net


@pytest.mark.parametrize("scenario",
                         [probe_line, rcp_dumbbell, sketch_burst,
                          fenced_template_burst])
def test_three_engines_are_bit_identical(scenario):
    reference = None
    for engine in ENGINES:
        wire, decoded, switches, net = scenario(engine)
        tcpus = [sw.tcpu for sw in net.switches.values()]
        # The three runs really are three engines, not one run thrice.
        if engine == "interpreted":
            assert all(t.cache.misses == 0 for t in tcpus)
        else:
            assert any(t.cache.misses > 0 for t in tcpus)
        if engine != "default":
            assert all(t.batches_executed == 0 for t in tcpus)
        if reference is None:
            reference = (wire, decoded, switches)
            continue
        assert wire == reference[0], engine
        assert decoded == reference[1], engine
        assert switches == reference[2], engine


def test_sketch_burst_default_engine_takes_the_vector_lane():
    """The equivalence above is only interesting if the default run
    batches: all 48 updates must ride 8-wide vector batches."""
    _, _, _, net = sketch_burst("default")
    tcpu = next(iter(net.switches.values())).tcpu
    assert tcpu.batch_occupancy == {8: 6}
    if HAVE_NUMPY:
        assert tcpu.vector_tpps == 48
        assert tcpu.batch_demotions == {}
