"""Boundary links and ingresses: the message-passing seam between shards.

These pin the two halves of a cross-region wire — serialized egress into
an outbox, barrier-time ingress with ledger announcements — and the
canonical injection order that makes the seam placement-independent.
"""

import random

import pytest

from repro import units
from repro.errors import ConfigurationError
from repro.fleet.boundary import (
    BoundaryIngress,
    BoundaryLink,
    BoundaryMessage,
    attach_boundary_port,
    injection_order,
)
from repro.net.packet import ETHERTYPE_TPP, EthernetFrame, RawPayload
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import Network
from repro.net.wire import decode_frame


def ring_region(index=0, n_regions=2, seed=0):
    """A one-switch, one-host region with a boundary port on the switch."""
    net = Network(seed=seed, trace_enabled=False, index_base=index * 64)
    switch = net.add_switch(f"r{index}s0")
    host = net.add_host(f"r{index}h0")
    net.link(host, switch, units.GIGABITS_PER_SEC, delay_ns=1_000)
    install_shortest_path_routes(net)
    outbox = []
    port, port_index, ingress = attach_boundary_port(
        net, switch, (index + 1) % n_regions, outbox,
        units.GIGABITS_PER_SEC, delay_ns=10_000)
    return net, switch, host, outbox, port, port_index, ingress


def raw_frame(dst, src, size=200):
    """A non-IP frame with real (non-zero) payload bytes, so the wire
    round-trip reconstructs the same payload length."""
    return EthernetFrame(dst=dst, src=src, ethertype=0x88B5,
                         payload=RawPayload(
                             size, data=bytes(i % 251 or 1
                                              for i in range(size))))


class TestBoundaryLink:
    def test_port_driven_export(self):
        """Frames leave through the normal port queue/serialization path
        and land in the outbox with FIFO seq and absolute arrivals."""
        net, switch, host, outbox, port, _idx, _ing = ring_region()
        a = raw_frame(dst=1, src=2, size=500)
        b = raw_frame(dst=1, src=2, size=500)
        port.enqueue(a)
        port.enqueue(b)
        net.sim.run(until_ns=1_000_000)
        assert [m.seq for m in outbox] == [0, 1]
        assert all(m.dst_region == 1 for m in outbox)
        # Second frame serializes strictly after the first; propagation
        # delay is shared, so arrivals preserve emission order.
        assert outbox[0].arrival_ns < outbox[1].arrival_ns
        # The export time is serialization end + boundary delay.
        serialization = units.transmission_time_ns(a.size_bytes,
                                                   port.link.rate_bps)
        assert outbox[0].arrival_ns == serialization + 10_000
        assert port.link.frames_exported == 2

    def test_wire_bytes_round_trip(self):
        net, switch, host, outbox, port, _idx, _ing = ring_region()
        port.enqueue(raw_frame(dst=0xAB, src=0xCD, size=300))
        net.sim.run(until_ns=1_000_000)
        frame = decode_frame(outbox[0].raw)
        assert frame.dst == 0xAB
        assert frame.src == 0xCD
        assert frame.payload.size_bytes == 300

    def test_downed_link_loses_frames(self):
        net, switch, host, outbox, port, _idx, _ing = ring_region()
        port.link.fail()
        port.enqueue(raw_frame(dst=1, src=2))
        net.sim.run(until_ns=1_000_000)
        assert outbox == []
        assert port.link.frames_lost == 1

    def test_impairments_are_refused(self):
        net, *_rest = ring_region()
        link = BoundaryLink(net.sim, units.GIGABITS_PER_SEC, 10_000,
                            name="b", dst_region=1, outbox=[])
        with pytest.raises(ConfigurationError):
            link.set_impairments(loss_rate=0.1)
        link.set_impairments()  # all-zero is a no-op, not an error


class TestInjectionOrder:
    def test_canonical_key(self):
        messages = [
            BoundaryMessage(0, 200, "a->b", 0, b"x"),
            BoundaryMessage(0, 100, "c->d", 5, b"x"),
            BoundaryMessage(0, 100, "a->b", 1, b"x"),
            BoundaryMessage(0, 100, "a->b", 0, b"x"),
        ]
        ordered = injection_order(messages)
        assert [(m.arrival_ns, m.link_name, m.seq) for m in ordered] == [
            (100, "a->b", 0), (100, "a->b", 1), (100, "c->d", 5),
            (200, "a->b", 0)]

    def test_shuffle_invariant(self):
        """Any producer-side ordering collapses to one injection order —
        the property the resharding guarantee leans on."""
        rng = random.Random(7)
        messages = [
            BoundaryMessage(0, rng.randrange(5), f"link{rng.randrange(3)}",
                            seq, b"x")
            for seq in range(40)
        ]
        reference = injection_order(messages)
        for _ in range(10):
            shuffled = list(messages)
            rng.shuffle(shuffled)
            assert injection_order(shuffled) == reference


class TestBoundaryIngress:
    def test_delivers_to_switch_with_ledger(self):
        """An injected frame is announced in the ingress ledger, then
        delivered through Device.receive at its recorded instant."""
        net, switch, host, outbox, port, idx, ingress = ring_region()
        frame = raw_frame(dst=host.mac, src=0x99, size=200)
        from repro.net.wire import encode_frame
        message = BoundaryMessage(0, 50_000, "peer->here", 0,
                                  encode_frame(frame))
        ingress.inject(message)
        assert switch.inbound_at[50_000] == 1
        net.sim.run(until_ns=100_000)
        assert ingress.frames_injected == 1
        assert not switch.inbound_at  # ledger retired
        assert host.frames_received == 1  # routed on to the local host

    def test_same_instant_injections_batch(self):
        """Two frames injected at one instant are announced together, so
        the switch's ingress drain sees them as one batch."""
        net, switch, host, outbox, port, idx, ingress = ring_region()
        from repro.net.wire import encode_frame
        raw = encode_frame(raw_frame(dst=host.mac, src=0x99, size=200))
        for seq in range(2):
            ingress.inject(BoundaryMessage(0, 40_000, "peer->here", seq, raw))
        assert switch.inbound_at[40_000] == 2
        net.sim.run(until_ns=100_000)
        assert not switch.inbound_at
        assert host.frames_received == 2

    def test_past_injection_is_rejected(self):
        net, switch, host, outbox, port, idx, ingress = ring_region()
        net.sim.run(until_ns=10_000)
        from repro.net.wire import encode_frame
        raw = encode_frame(raw_frame(dst=host.mac, src=0x99))
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            ingress.inject(BoundaryMessage(0, 5_000, "peer->here", 0, raw))
