"""The one-event link traversal against the two-event reference.

On a link that is up, unimpaired and attached to a receiver, a port
schedules each frame's arrival when its serialization starts.  The
reference takes the two-event path for every frame: an end-of-
serialization event that calls ``Link.deliver_after_propagation``, which
schedules the arrival.  The reference run pins every link there by
overriding two attributes of each link instance (``direct`` and
``_choose_path``) — the state that path choice keeps, not an option of
the program.

Each draw builds a network twice with the same per-link rates, delays,
queue counts and buffers, sends the same frames (same-ns bursts and
backlogs included) and fails, restores and impairs links at the same
instants (mid-serialization included).  Both runs must deliver the
same frames to the same hosts at the same instants and count the same at
every link, port, queue and switch, and every run conserves frames
(ROADMAP item 14): what hosts sent plus what links duplicated is what
hosts received plus what was dropped or lost.

Same-instant arrivals land in the order their serializations started on
both paths (docs/architecture.md, "Event representation"), so the two
runs agree even where links of unequal delay tie.  Propagation delays
are at least 1 ns, as the ingress ledger needs
(``Link._schedule_at_peer``).
"""

from hypothesis import example, given, settings, strategies as st

from repro import units
from repro.net.packet import (
    ETHERTYPE_IPV4,
    Datagram,
    EthernetFrame,
    RawPayload,
)
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import Network
from repro.sim.trace import snapshot

UDP_PORT = 9
HORIZON_NS = 60_000

rates = st.sampled_from([10 * units.MEGABITS_PER_SEC,
                         100 * units.MEGABITS_PER_SEC,
                         units.GIGABITS_PER_SEC,
                         10 * units.GIGABITS_PER_SEC])
link_specs = st.tuples(rates, st.sampled_from([1, 7, 100, 1_000]),
                       st.integers(1, 3), st.integers(1_600, 12_000))
shapes = st.one_of(st.tuples(st.just("linear"), st.integers(1, 4)),
                   st.tuples(st.just("dumbbell"), st.integers(1, 3)))
# Whole microseconds and round frame sizes make serializations end on
# the instants sends and faults are drawn at, so ties get exercised.
instants = st.one_of(st.integers(0, HORIZON_NS // 1_000).map(
    lambda us: 1_000 * us), st.integers(0, HORIZON_NS))
frame_bytes = st.one_of(st.sampled_from([125, 250, 1250]),
                        st.integers(64, 1518))
# (instant, sender, receiver, frame bytes, traffic class, copies): copies
# of one send leave in the same ns and make the backlogs.
sends = st.lists(st.tuples(instants, st.integers(0, 7), st.integers(0, 7),
                           frame_bytes, st.integers(0, 2),
                           st.integers(1, 4)),
                 min_size=1, max_size=25)
# (loss, corruption, duplication); a 1e-12 loss rate never fires but still
# takes the link off the direct path.
impairments = st.tuples(st.sampled_from([0.0, 1e-12, 0.3, 1.0]),
                        st.sampled_from([0.0, 0.3]),
                        st.sampled_from([0.0, 0.5]))
perturbations = st.lists(
    st.tuples(instants, st.integers(0, 31),
              st.sampled_from(["fail", "restore", "impair", "clear"]),
              impairments),
    max_size=8)


def build(shape, specs, seed):
    """The drawn network, with every link's rate, propagation delay,
    queue count and buffer taken from ``specs`` in wiring order."""
    net = Network(seed=seed)
    kind, size = shape
    specs = iter(specs * 32)

    def wire(a, b):
        rate, delay_ns, n_queues, capacity = next(specs)
        net.link(a, b, rate, delay_ns, capacity, n_queues)

    if kind == "linear":
        switches = [net.add_switch() for _ in range(size)]
        for left, right in zip(switches, switches[1:]):
            wire(left, right)
        wire(net.add_host(), switches[0])
        wire(net.add_host(), switches[-1])
    else:
        left, right = net.add_switch(), net.add_switch()
        wire(left, right)
        for _ in range(size):
            wire(net.add_host(), left)
        for _ in range(size):
            wire(net.add_host(), right)
    install_shortest_path_routes(net)
    return net


def links_of(net):
    return [port.link for device in net.all_devices()
            for port in device.ports]


def pin_reference(net):
    """Hold every link on the decide-at-end path."""
    for link in links_of(net):
        link.direct = False
        link._choose_path = lambda: None


def run(shape, specs, traffic, faults, reference):
    net = build(shape, specs, seed=7)
    if reference:
        pin_reference(net)
    sim = net.sim
    hosts = list(net.hosts.values())
    links = links_of(net)
    base_uid = EthernetFrame(0, 0, 0, RawPayload(0)).uid
    deliveries = {host.name: [] for host in hosts}
    for host in hosts:
        host.on_udp_port(UDP_PORT, lambda datagram, frame, name=host.name:
                         deliveries[name].append(
                             (sim.now_ns, frame.uid - base_uid,
                              frame.size_bytes)))
    for at_ns, src, dst, size, tos, copies in traffic:
        sender = hosts[src % len(hosts)]
        receiver = hosts[dst % len(hosts)]
        if receiver is sender:
            continue
        for _ in range(copies):
            frame = EthernetFrame(
                dst=receiver.mac, src=sender.mac, ethertype=ETHERTYPE_IPV4,
                payload=Datagram(sender.ip, receiver.ip, 1, UDP_PORT,
                                 RawPayload(size - 46), tos=tos))
            sim.schedule_at(at_ns, sender.send_frame, frame)
    for at_ns, index, action, (loss, corrupt, duplicate) in faults:
        link = links[index % len(links)]
        if action == "impair":
            sim.schedule_at(at_ns, link.set_impairments, loss, corrupt,
                            duplicate)
        elif action == "clear":
            sim.schedule_at(at_ns, link.set_impairments)
        else:
            sim.schedule_at(at_ns, getattr(link, action))
    sim.run()
    assert sim.pending_events == 0
    return net, deliveries


def counters(net):
    ports = [port for device in net.all_devices() for port in device.ports]
    return {
        "links": [snapshot(port.link) for port in ports],
        "ports": [(port.tx_bytes, port.tx_frames, port.rx_bytes,
                   port.rx_frames) for port in ports],
        "queues": [(vars(queue.stats), queue.occupancy_bytes)
                   for port in ports for queue in port.queues],
        "switches": [snapshot(switch) for switch in net.switches.values()],
        "hosts": [(host.frames_sent, host.frames_received)
                  for host in net.hosts.values()],
    }


def conservation_residual(net):
    """Σ sent + Σ duplicated − Σ received − Σ dropped − Σ lost."""
    hosts = net.hosts.values()
    switches = net.switches.values()
    ports = [port for device in net.all_devices() for port in device.ports]
    sent = sum(host.frames_sent for host in hosts)
    received = sum(host.frames_received for host in hosts)
    duplicated = sum(port.link.frames_duplicated for port in ports)
    lost = sum(port.link.frames_lost for port in ports)
    queue_drops = sum(queue.stats.packets_dropped for port in ports
                      for queue in port.queues)
    switch_drops = sum(switch.packets_dropped_no_route
                       + switch.packets_dropped_by_rule
                       + switch.tpps_dropped for switch in switches)
    return sent + duplicated - received - queue_drops - switch_drops - lost


#: Two hosts of ``dumbbell(2)`` send 1250 bytes to h2 in the same ns over
#: identical links, so both frames tie at the left switch; link 0 is h0's
#: uplink, whose frame is serialized over [0, 10 us).
TIE = (("dumbbell", 2), [(units.GIGABITS_PER_SEC, 1_000, 1, 12_000)],
       [(0, 0, 2, 1250, 0, 1), (0, 1, 2, 1250, 0, 1)])


class TestAgainstTwoEventReference:
    @given(shapes, st.lists(link_specs, min_size=1, max_size=6), sends,
           perturbations)
    # The tie, with h0's uplink off the direct path from the start, handed
    # over mid-serialization, and failed at the instant serialization ends.
    @example(*TIE, [(0, 0, "impair", (1e-12, 0.0, 0.0))])
    @example(*TIE, [(1_000, 0, "fail", (0.0, 0.0, 0.0)),
                    (2_000, 0, "restore", (0.0, 0.0, 0.0))])
    @example(*TIE, [(10_000, 0, "fail", (0.0, 0.0, 0.0))])
    @settings(max_examples=150, deadline=None)
    def test_same_deliveries_and_counters(self, shape, specs, traffic,
                                          faults):
        shipped, shipped_deliveries = run(shape, specs, traffic, faults,
                                          reference=False)
        reference, reference_deliveries = run(shape, specs, traffic,
                                              faults, reference=True)
        assert shipped_deliveries == reference_deliveries
        assert counters(shipped) == counters(reference)
        assert conservation_residual(shipped) == 0
        assert conservation_residual(reference) == 0
        # The shipped run saves one event per unimpaired traversal.
        assert (shipped.sim.events_processed
                <= reference.sim.events_processed)

    def test_a_quiet_traversal_costs_one_event(self):
        """A lone frame over an idle, healthy line: one event per link
        traversal plus one per switch pipeline — never an end-of-
        serialization event."""
        specs = [(units.GIGABITS_PER_SEC, 1_000, 1, 12_000)]
        net, deliveries = run(("linear", 3), specs,
                              [(0, 0, 1, 100, 0, 1)], [], reference=False)
        assert [len(seen) for seen in deliveries.values()] == [0, 1]
        # The send, 4 link traversals and 3 switch pipelines.
        assert net.sim.events_processed == 1 + 4 + 3
