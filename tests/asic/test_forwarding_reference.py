"""The forwarding stage against a straight-line reference.

``TPPSwitch._ingress_metadata`` states the whole per-packet decision in
one frame — TCAM by priority, then L2 with the ECMP pick, then L3 LPM, the
matched entry's hit counter, the egress-queue clamp — and shares prebuilt
``LookupResult`` objects between packets.  The reference below states the
same decision the slow, obvious way; hypothesis drives both with the same
tables and packets, and everything a TPP or a controller can observe must
agree: the metadata registers (seen through the public ``datagram_hooks``
extension point) and the drop counters.
"""

import zlib

from hypothesis import given, settings, strategies as st

from repro import units
from repro.asic.tables import DROP, TcamRule
from repro.net.packet import (
    ETHERTYPE_IPV4,
    Datagram,
    EthernetFrame,
    RawPayload,
)
from repro.net.topology import Network

N_PORTS = 4
MACS = (0xA1, 0xA2, 0xA3)
IPS = (0x0A000001, 0x0A000102, 0x0A010203, 0xC0A80001)
UDP_PORTS = (7, 9)


def build_switch(queues_per_port):
    """One switch with ``N_PORTS`` host-facing ports; the hook records
    what the pipeline decided for every datagram it forwards."""
    net = Network(seed=1)
    switch = net.add_switch("sw0")
    for n_queues in queues_per_port:
        net.link(switch, net.add_host(), units.GIGABITS_PER_SEC,
                 n_queues=n_queues)
    seen = []
    switch.datagram_hooks.append(
        lambda frame, datagram, metadata, egress: seen.append(
            (frame.uid, metadata, egress.index)))
    return net, switch, seen


def flow_string_hash(packet) -> int:
    """crc32 of the seven-field string — the ECMP hash since the seed."""
    key = (f"{packet['src_mac']}|{packet['dst_mac']}|{packet['src_ip']}|"
           f"{packet['dst_ip']}|17|{packet['src_port']}|"
           f"{packet['dst_port']}")
    return zlib.crc32(key.encode())


class Reference:
    """TCAM by priority -> L2 (hash % n) -> L3 LPM, with hit counters."""

    def __init__(self, queues_per_port):
        self.queues_per_port = queues_per_port
        self.rules = []     # installed TcamRule objects, install order
        self.l2 = {}        # mac -> (L2Entry, [out ports])
        self.l3 = []        # L3Entry objects, install order
        self.hits = {}
        self.no_route = 0
        self.rule_drops = 0

    def decide(self, packet):
        """``None`` for a drop, else the expected register values."""
        fields = dict(packet, ethertype=ETHERTYPE_IPV4, ip_protocol=17)
        match = None
        # Highest priority first; install order among equals.
        for rule in sorted(self.rules, key=lambda r: -r.priority):
            wanted = {name: getattr(rule, name) for name in (
                "in_port", "ethertype", "src_mac", "dst_mac", "src_ip",
                "dst_ip", "ip_protocol", "src_port", "dst_port")}
            if all(want is None or want == fields[name]
                   for name, want in wanted.items()):
                match = (rule.out_port, rule.entry_id, rule.version, 0,
                         rule.queue_id)
                break
        if match is None and packet["dst_mac"] in self.l2:
            entry, ports = self.l2[packet["dst_mac"]]
            out_port = ports[flow_string_hash(packet) % len(ports)]
            match = (out_port, entry.entry_id, entry.version,
                     len(ports) - 1, None)
        if match is None:
            candidates = [e for e in self.l3 if e.prefix_len == 0 or (
                packet["dst_ip"] >> (32 - e.prefix_len)
                == e.prefix >> (32 - e.prefix_len))]
            if candidates:
                # Longest prefix; a re-installed prefix replaced its twin.
                best = max(candidates, key=lambda e: e.prefix_len)
                match = (best.out_port, best.entry_id, best.version, 0,
                         None)
        if match is None:
            self.no_route += 1
            return None
        out_port, entry_id, version, alternates, set_queue = match
        self.hits[entry_id] = self.hits.get(entry_id, 0) + 1
        if out_port == DROP:
            self.rule_drops += 1
            return None
        queue_id = packet["tos"] if set_queue is None else set_queue
        queue_id = min(queue_id, self.queues_per_port[out_port] - 1)
        return dict(output_port=out_port, matched_entry_id=entry_id,
                    matched_entry_version=version,
                    alternate_routes=alternates, queue_id=queue_id,
                    matched_entry_hits=self.hits[entry_id],
                    input_port=packet["in_port"])


maybe = lambda strategy: st.one_of(st.none(), strategy)

rules = st.fixed_dictionaries({
    "priority": st.integers(0, 3),
    "out_port": st.sampled_from((DROP,) + tuple(range(N_PORTS))),
    "queue_id": maybe(st.integers(0, 5)),
    "in_port": maybe(st.integers(0, N_PORTS - 1)),
    "dst_mac": maybe(st.sampled_from(MACS)),
    "src_ip": maybe(st.sampled_from(IPS)),
    "dst_port": maybe(st.sampled_from(UDP_PORTS)),
    "ip_protocol": maybe(st.sampled_from((6, 17))),
})

l2_routes = st.dictionaries(
    st.sampled_from(MACS),
    st.lists(st.integers(0, N_PORTS - 1), min_size=1, max_size=4,
             unique=True),
    max_size=len(MACS))

l3_routes = st.lists(
    st.tuples(st.sampled_from(IPS), st.sampled_from((0, 8, 16, 24, 32)),
              st.integers(0, N_PORTS - 1)),
    max_size=4)

packets = st.fixed_dictionaries({
    "in_port": st.integers(0, N_PORTS - 1),
    "src_mac": st.sampled_from((0x51, 0x52)),
    "dst_mac": st.sampled_from(MACS + (0xEE,)),
    "src_ip": st.sampled_from(IPS),
    "dst_ip": st.sampled_from(IPS + (0x08080808,)),
    "src_port": st.integers(1000, 1003),
    "dst_port": st.sampled_from(UDP_PORTS),
    "tos": st.sampled_from((0, 0, 1, 2, 5, 255)),
})


def make_frame(packet) -> EthernetFrame:
    return EthernetFrame(
        dst=packet["dst_mac"], src=packet["src_mac"],
        ethertype=ETHERTYPE_IPV4,
        payload=Datagram(packet["src_ip"], packet["dst_ip"],
                         packet["src_port"], packet["dst_port"],
                         RawPayload(30), tos=packet["tos"]))


def check(switch, seen, reference, packet):
    """Offer one packet to both and compare everything observable."""
    frame = make_frame(packet)
    before = len(seen)
    switch.receive(frame, packet["in_port"])
    expected = reference.decide(packet)
    assert switch.packets_dropped_no_route == reference.no_route
    assert switch.packets_dropped_by_rule == reference.rule_drops
    if expected is None:
        assert len(seen) == before
        return None
    (uid, metadata, egress_index), = seen[before:]
    assert uid == frame.uid
    assert egress_index == expected["output_port"]
    assert {name: getattr(metadata, name) for name in expected} == expected
    assert metadata.packet_length == frame.size_bytes
    return metadata


@settings(max_examples=150, deadline=None)
@given(queues_per_port=st.lists(st.integers(1, 3), min_size=N_PORTS,
                                max_size=N_PORTS),
       rule_set=st.lists(rules, max_size=4), l2=l2_routes, l3=l3_routes,
       traffic=st.lists(packets, min_size=1, max_size=10))
def test_decision_matches_reference(queues_per_port, rule_set, l2, l3,
                                    traffic):
    net, switch, seen = build_switch(queues_per_port)
    reference = Reference(queues_per_port)
    for mac, ports in l2.items():
        entry = switch.install_l2_route(mac, ports[0])
        for port in ports[1:]:
            switch.l2.add_alternate(mac, port)
        reference.l2[mac] = (entry, ports)
    for prefix, prefix_len, out_port in l3:
        entry = switch.install_l3_route(prefix, prefix_len, out_port)
        reference.l3 = [e for e in reference.l3 if (
            e.prefix, e.prefix_len) != (prefix, prefix_len)] + [entry]
    for rule in rule_set:
        reference.rules.append(switch.install_tcam_rule(TcamRule(**rule)))
    for packet in traffic:
        check(switch, seen, reference, packet)
    # The per-table counters the controller reads agree too.
    counted = {**switch.l2.hit_counts, **switch.l3.hit_counts,
               **switch.tcam.hit_counts}
    assert counted == reference.hits
    net.sim.run()  # every admitted frame drains without an exception
    assert switch.packets_switched == len(seen)


def test_alternate_added_after_traffic_takes_effect_on_next_packet():
    """Results are built when an entry changes, not per packet — so a
    change after traffic has flowed must show on the very next packet."""
    queues = [1] * N_PORTS
    net, switch, seen = build_switch(queues)
    reference = Reference(queues)
    entry = switch.install_l2_route(0xA1, 2)
    reference.l2[0xA1] = (entry, [2])
    flows = [dict(in_port=0, src_mac=0x51, dst_mac=0xA1, src_ip=IPS[0],
                  dst_ip=IPS[1], src_port=1000 + index, dst_port=9, tos=0)
             for index in range(16)]
    for packet in flows:
        metadata = check(switch, seen, reference, packet)
        assert (metadata.output_port, metadata.alternate_routes) == (2, 0)
    switch.l2.add_alternate(0xA1, 3)
    reference.l2[0xA1] = (entry, [2, 3])
    spread = set()
    for packet in flows:
        metadata = check(switch, seen, reference, packet)
        assert metadata.alternate_routes == 1
        # Same entry, so its version is unchanged and its hits go on.
        assert metadata.matched_entry_version == entry.version
        spread.add(metadata.output_port)
    assert spread == {2, 3}
    assert switch.l2.hit_counts[entry.entry_id] == 32


def test_golden_next_hops():
    """Three fixed 5-tuples over a 4-wide group: the picks recorded on
    the commit before the hash moved into the lookup stage.  If these
    move, every ECMP path in ``ndb_fattree`` moves with them."""
    queues = [1] * N_PORTS
    net, switch, seen = build_switch(queues)
    switch.install_l2_route(0xA1, 0)
    for port in (1, 2, 3):
        switch.l2.add_alternate(0xA1, port)
    golden = [
        ((0x51, IPS[0], IPS[1], 1000, 9), 0x402C7F57, 3),
        ((0x52, IPS[1], IPS[2], 1000, 7), 0x6590AA3C, 0),
        ((0x51, IPS[3], IPS[0], 1003, 9), 0x21D8B281, 1),
    ]
    for (src_mac, src_ip, dst_ip, src_port, dst_port), crc, port in golden:
        packet = dict(in_port=0, src_mac=src_mac, dst_mac=0xA1,
                      src_ip=src_ip, dst_ip=dst_ip, src_port=src_port,
                      dst_port=dst_port, tos=0)
        assert flow_string_hash(packet) == crc
        switch.receive(make_frame(packet), 0)
        assert seen[-1][2] == port == crc % 4
