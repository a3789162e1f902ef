"""Link impairments: seeded loss, corruption, and duplication."""

import pytest

from repro import units
from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint
from repro.endhost.flows import Flow, FlowSink
from repro.errors import ConfigurationError
from repro.net.device import Device
from repro.net.link import Link
from repro.net.packet import ETHERTYPE_TPP, EthernetFrame
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceLevel


def build_net(seed=0):
    builder = TopologyBuilder(seed=seed, rate_bps=units.GIGABITS_PER_SEC,
                              delay_ns=1_000)
    net = builder.linear(n_switches=2)
    install_shortest_path_routes(net)
    return net


def first_link(net):
    h0 = net.host("h0")
    return h0.ports[0].link


def run_flow(net, seconds=0.02, rate_bps=50_000_000):
    h0, h1 = net.host("h0"), net.host("h1")
    FlowSink(h1, 9)
    flow = Flow(h0, h1, h1.mac, 9, rate_bps=rate_bps, packet_bytes=500)
    flow.start()
    net.run(until_seconds=seconds)
    flow.stop()


class TestConfiguration:
    def test_rates_validated(self, sim):
        link = Link(sim, rate_bps=1_000_000)
        for bad in ({"loss_rate": 1.5}, {"corrupt_rate": -0.1},
                    {"duplicate_rate": 2.0}):
            with pytest.raises(ConfigurationError):
                link.set_impairments(**bad)

    def test_all_zero_rates_clear_model(self, sim):
        link = Link(sim, rate_bps=1_000_000)
        link.set_impairments(loss_rate=0.1)
        assert link.impairments is not None
        link.set_impairments()
        assert link.impairments is None

    def test_network_impair_links_covers_every_link(self):
        net = build_net()
        count = net.impair_links(loss_rate=0.01)
        impaired = [port.link
                    for device in net.all_devices()
                    for port in device.ports
                    if port.link.impairments is not None]
        assert count == len(impaired) > 0


class TestLoss:
    def test_seeded_loss_drops_about_the_configured_fraction(self):
        net = build_net()
        link = first_link(net)
        link.set_impairments(loss_rate=0.2)
        run_flow(net)
        total = link.frames_delivered + link.frames_impaired_lost
        assert total > 200
        assert link.frames_impaired_lost == pytest.approx(0.2 * total,
                                                          rel=0.5)
        assert link.frames_lost == link.frames_impaired_lost

    def test_identical_seeds_impair_identically(self):
        def run_once():
            net = build_net(seed=42)
            link = first_link(net)
            link.set_impairments(loss_rate=0.1, corrupt_rate=0.02,
                                 duplicate_rate=0.02)
            run_flow(net)
            return (link.frames_delivered, link.frames_impaired_lost,
                    link.frames_corrupted, link.frames_duplicated)

        first, second = run_once(), run_once()
        assert first == second
        assert first[1] > 0

    def test_unnamed_links_impair_identically_across_simulators(self):
        """Same seed, same verdicts — also for a link nobody named (its
        stream must not be keyed by a memory address)."""
        program = assemble("PUSH [Switch:SwitchID]", hops=2)

        def impaired_link(seed):
            sim = Simulator(seed=seed)
            link = Link(sim, rate_bps=units.GIGABITS_PER_SEC)
            receiver = Device(sim, "rx")
            receiver.receive = lambda frame, in_port: None
            link.attach_receiver(receiver, 0)
            link.set_impairments(loss_rate=0.3, corrupt_rate=0.3,
                                 duplicate_rate=0.3)
            return link

        def verdicts(link):
            out = []
            for _ in range(200):
                link.deliver_after_propagation(
                    EthernetFrame(1, 2, ETHERTYPE_TPP, program.build()))
                link.sim.run()
                out.append((link.frames_delivered,
                            link.frames_impaired_lost,
                            link.frames_corrupted, link.frames_duplicated))
            return out

        # Both alive at once, so their ``id()``s differ.
        first, second = impaired_link(7), impaired_link(7)
        assert verdicts(first) == verdicts(second)
        assert min(first.frames_impaired_lost, first.frames_corrupted,
                   first.frames_duplicated) > 0

    def test_different_seeds_impair_differently(self):
        counts = []
        for seed in (1, 2):
            net = build_net(seed=seed)
            link = first_link(net)
            link.set_impairments(loss_rate=0.1)
            run_flow(net)
            counts.append(link.frames_impaired_lost)
        assert counts[0] != counts[1]


class TestDuplication:
    def test_duplicates_arrive_and_are_counted(self):
        net = build_net()
        link = first_link(net)
        link.set_impairments(duplicate_rate=1.0)
        run_flow(net, seconds=0.005, rate_bps=10_000_000)
        assert link.frames_duplicated > 0
        # Every frame arrived twice.
        assert link.frames_delivered == 2 * link.frames_duplicated

    def test_duplicate_preserves_frame_identity(self):
        net = build_net()
        link = first_link(net)
        link.set_impairments(duplicate_rate=1.0)
        seen = []
        original = net.host("h1").receive

        def spy(frame, in_port):
            seen.append(frame.uid)
            return original(frame, in_port)

        net.host("h1").receive = spy
        run_flow(net, seconds=0.002, rate_bps=10_000_000)
        # Duplicates carry the original uid: same packet, twice.
        assert seen and len(seen) == 2 * len(set(seen))


class TestDuplicationDrawOrder:
    """The impairment draw order is pinned: loss(orig) -> corrupt(orig)
    -> dup roll -> loss(dup) -> corrupt(dup).  The duplicate is cloned
    from the pre-corruption bytes and rolls its own loss/corruption
    independently, so seeded runs replay byte-identically."""

    def _send_probes(self, net, count):
        h0, h1 = net.host("h0"), net.host("h1")
        client = TPPEndpoint(h0)
        TPPEndpoint(h1)
        program = assemble("PUSH [Switch:SwitchID]", hops=4)
        for _ in range(count):
            client.send(program, dst_mac=h1.mac)

    def test_duplicate_rolls_corruption_independently(self):
        net = build_net()
        link = first_link(net)
        link.set_impairments(corrupt_rate=1.0, duplicate_rate=1.0)
        self._send_probes(net, 10)
        net.run(until_seconds=0.02)
        assert link.frames_duplicated == 10
        # Original AND duplicate each rolled (and hit) corruption: the
        # dup is not a copy of the already-damaged original.
        assert link.frames_corrupted == 20
        assert link.frames_delivered == 20

    def test_duplicate_cloned_from_pristine_bytes(self):
        """Both copies arrive with *different* damage: the dup was
        cloned before the original was corrupted, then corrupted by its
        own draws."""
        net = build_net(seed=5)
        h1 = net.host("h1")
        link = first_link(net)
        link.set_impairments(corrupt_rate=1.0, duplicate_rate=1.0)
        seen = {}
        original = h1.receive

        def spy(frame, in_port):
            seen.setdefault(frame.uid, []).append(
                bytes(frame.payload.encode()))
            return original(frame, in_port)

        h1.receive = spy
        self._send_probes(net, 5)
        net.run(until_seconds=0.02)
        pairs = [wires for wires in seen.values() if len(wires) == 2]
        assert pairs
        assert any(a != b for a, b in pairs)

    def test_dup_runs_replay_byte_identically(self):
        """Determinism regression for the pinned draw order."""
        def run_once():
            net = build_net(seed=2026)
            h1 = net.host("h1")
            link = first_link(net)
            link.set_impairments(loss_rate=0.2, corrupt_rate=0.5,
                                 duplicate_rate=0.5)
            seen = []
            original = h1.receive

            def spy(frame, in_port):
                seen.append(bytes(frame.payload.encode()))
                return original(frame, in_port)

            h1.receive = spy
            self._send_probes(net, 40)
            net.run(until_seconds=0.05)
            return seen, (link.frames_impaired_lost,
                          link.frames_corrupted, link.frames_duplicated)

        first, second = run_once(), run_once()
        assert first == second
        assert first[1][2] > 0      # duplicates actually occurred
        assert first[1][0] > 0      # ... and losses interleaved with them


class TestCorruption:
    def test_corrupted_non_tpp_frame_dropped(self):
        net = build_net()
        link = first_link(net)
        link.set_impairments(corrupt_rate=1.0)
        run_flow(net, seconds=0.002, rate_bps=10_000_000)
        # Non-TPP frames fail their FCS: everything was lost, nothing
        # "corrupted in place".
        assert link.frames_impaired_lost > 0
        assert link.frames_delivered == 0
        assert link.frames_corrupted == 0

    def test_corrupted_tpp_still_delivered(self):
        net = build_net()
        h0, h1 = net.host("h0"), net.host("h1")
        client = TPPEndpoint(h0)
        TPPEndpoint(h1)
        link = first_link(net)
        link.set_impairments(corrupt_rate=1.0)
        program = assemble("PUSH [Switch:SwitchID]", hops=4)
        for _ in range(20):
            client.send(program, dst_mac=h1.mac)
        net.run(until_seconds=0.02)
        assert link.frames_corrupted == 20
        assert link.frames_delivered == 20


class TestTraceKinds:
    def test_impairment_kinds_are_debug_only(self):
        net = build_net()
        link = first_link(net)
        link.set_impairments(loss_rate=0.3, duplicate_rate=0.3)
        run_flow(net, seconds=0.005)
        assert net.trace.records(kind="link.lost") == []
        assert net.trace.records(kind="link.dup") == []

    def test_impairment_kinds_recorded_at_debug(self):
        net = build_net()
        net.trace.set_level(TraceLevel.DEBUG)
        h0, h1 = net.host("h0"), net.host("h1")
        client = TPPEndpoint(h0)
        TPPEndpoint(h1)
        link = first_link(net)
        link.set_impairments(loss_rate=0.3, corrupt_rate=0.3,
                             duplicate_rate=0.3)
        program = assemble("PUSH [Switch:SwitchID]", hops=4)
        for _ in range(60):
            client.send(program, dst_mac=h1.mac)
        net.run(until_seconds=0.05)
        lost = net.trace.records(kind="link.lost")
        assert lost and all(r.detail["reason"] == "impairment"
                            for r in lost)
        corrupt = net.trace.records(kind="link.corrupt")
        assert corrupt and all(r.detail["damage"] in
                               ("truncate", "bitflip", "header")
                               for r in corrupt)
        assert net.trace.records(kind="link.dup")


class TestCorruptionInvalidatesCaches:
    """In-flight damage bypasses the TPP's mutator methods, so _corrupt
    must drop the section's memoized fingerprint/length caches and the
    frame's size + parsed-view caches, and the damage must show in the
    section's wire encoding."""

    def _tpp_frame(self, source="PUSH [Queue:QueueSize]", hops=2):
        from repro.net.packet import ETHERTYPE_TPP, EthernetFrame
        tpp = assemble(source, hops=hops).build()
        frame = EthernetFrame(dst=2, src=1, ethertype=ETHERTYPE_TPP,
                              payload=tpp)
        return tpp, frame

    def test_bitflip_reaches_the_wire(self, sim):
        import random
        link = Link(sim, rate_bps=1_000_000)
        tpp, frame = self._tpp_frame()
        stale = tpp.encode()
        key = tpp.program_key         # warm the fingerprint
        # seed 0: first random() is ~0.84 >= 0.5 -> bitflip branch.
        out = link._corrupt(frame, random.Random(0), None)
        assert out is frame
        assert tpp.encode() != stale  # damage visible on the wire
        assert tpp.encode()[-len(tpp.memory):] == bytes(tpp.memory)
        assert tpp.program_key == key  # instructions were untouched

    def test_truncation_drops_length_and_size_caches(self, sim):
        import random
        link = Link(sim, rate_bps=1_000_000)
        tpp, frame = self._tpp_frame(hops=4)
        before_len = tpp.tpp_length_bytes
        before_size = frame.size_bytes
        from repro.asic.parser import parse_frame
        parsed = parse_frame(frame)
        # seed 1: first random() is ~0.13 < 0.5 -> truncate branch.
        out = link._corrupt(frame, random.Random(1), None)
        assert out is frame
        assert len(tpp.memory) < 16
        assert tpp.tpp_length_bytes < before_len
        assert frame.size_bytes <= before_size
        assert frame._parsed_cache is None
        fresh = parse_frame(frame)
        assert fresh is not parsed

    def test_header_scramble_reaches_the_wire(self, sim):
        import random
        link = Link(sim, rate_bps=1_000_000)
        tpp, frame = self._tpp_frame(source="NOP", hops=0)
        assert not tpp.memory
        stale = tpp.encode()
        link._corrupt(frame, random.Random(0), None)
        assert tpp.encode() != stale  # hop/SP scramble reached the wire

    def test_corrupted_probe_executes_identically_on_both_paths(self):
        """End to end: a corrupted-in-flight probe must produce the same
        response bytes whether switches run compiled or interpreted."""

        def run(compiled):
            net = build_net(seed=7)
            for switch in net.switches.values():
                switch.tcpu.compile_enabled = compiled
            h0, h1 = net.host("h0"), net.host("h1")
            client = TPPEndpoint(h0)
            TPPEndpoint(h1)
            link = first_link(net)
            link.set_impairments(corrupt_rate=1.0)
            results = []
            program = assemble("PUSH [Switch:SwitchID]", hops=4)
            for _ in range(10):
                client.send(program, dst_mac=h1.mac,
                            on_response=lambda r: results.append(
                                r.tpp.encode()))
            net.run(until_seconds=0.05)
            return results

        assert run(True) == run(False)
