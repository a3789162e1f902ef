"""Edge security: stripping and dropping TPPs from untrusted sources."""

import pytest

from repro.control.security import EdgeTPPPolicy
from repro.core.assembler import assemble
from repro.core.verifier import verify_section
from repro.endhost.client import TPPEndpoint
from repro.net.packet import Datagram, RawPayload
from repro.sim.trace import snapshot


class TestEdgeTPPPolicy:
    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            EdgeTPPPolicy(untrusted_action="execute")

    def test_trust_marking(self):
        policy = EdgeTPPPolicy()
        policy.mark_untrusted("sw0", 1)
        assert policy.is_untrusted("sw0", 1)
        policy.mark_trusted("sw0", 1)
        assert not policy.is_untrusted("sw0", 1)

    def test_trusted_port_executes(self, single_switch_net):
        net = single_switch_net
        policy = EdgeTPPPolicy()
        net.switch("sw0").tpp_policy = policy
        results = []
        h0, h1 = net.host("h0"), net.host("h1")
        TPPEndpoint(h0).send(assemble("PUSH [Switch:SwitchID]"),
                             dst_mac=h1.mac, on_response=results.append)
        TPPEndpoint(h1)
        net.run(until_seconds=0.01)
        assert results[0].hops() == 1

    def test_untrusted_probe_stripped_and_dropped(self, single_switch_net):
        """A bare probe from an untrusted port has nothing inside to
        forward, so stripping discards it entirely."""
        net = single_switch_net
        switch = net.switch("sw0")
        policy = EdgeTPPPolicy(untrusted_action="strip")
        in_port = [local for local, peer, _ in net.adjacency()["sw0"]
                   if peer == "h0"][0]
        policy.mark_untrusted("sw0", in_port)
        switch.tpp_policy = policy
        results = []
        h0, h1 = net.host("h0"), net.host("h1")
        TPPEndpoint(h0).send(assemble("PUSH [Switch:SwitchID]"),
                             dst_mac=h1.mac, on_response=results.append)
        TPPEndpoint(h1)
        net.run(until_seconds=0.01)
        assert results == []
        assert switch.tpps_stripped == 1

    def test_untrusted_wrapped_data_still_delivered(self,
                                                    single_switch_net):
        """Stripping a tenant's TPP must not break their traffic: the
        encapsulated packet is forwarded normally (§4)."""
        net = single_switch_net
        switch = net.switch("sw0")
        policy = EdgeTPPPolicy(untrusted_action="strip")
        in_port = [local for local, peer, _ in net.adjacency()["sw0"]
                   if peer == "h0"][0]
        policy.mark_untrusted("sw0", in_port)
        switch.tpp_policy = policy

        h0, h1 = net.host("h0"), net.host("h1")
        got = []
        h1.on_udp_port(9, lambda d, f: got.append((d, f)))
        inner = Datagram(h0.ip, h1.ip, 1, 9, RawPayload(50))
        endpoint = TPPEndpoint(h0)
        endpoint.send(assemble("PUSH [Switch:SwitchID]"), dst_mac=h1.mac,
                      payload=inner)
        net.run(until_seconds=0.01)
        datagram, frame = got[0]
        assert datagram is inner
        from repro.net.packet import ETHERTYPE_IPV4
        assert frame.ethertype == ETHERTYPE_IPV4  # TPP section removed
        assert switch.tcpu.tpps_executed == 0

    def test_drop_action(self, single_switch_net):
        net = single_switch_net
        switch = net.switch("sw0")
        policy = EdgeTPPPolicy(untrusted_action="drop")
        in_port = [local for local, peer, _ in net.adjacency()["sw0"]
                   if peer == "h0"][0]
        policy.mark_untrusted("sw0", in_port)
        switch.tpp_policy = policy
        h0, h1 = net.host("h0"), net.host("h1")
        got = []
        h1.on_udp_port(9, lambda d, f: got.append(d))
        inner = Datagram(h0.ip, h1.ip, 1, 9, RawPayload(50))
        TPPEndpoint(h0).send(assemble("PUSH [Switch:SwitchID]"),
                             dst_mac=h1.mac, payload=inner)
        net.run(until_seconds=0.01)
        assert got == []  # whole packet gone
        assert switch.tpps_dropped == 1

    def test_core_switch_stays_trusted(self, linear_net):
        """Only the edge strips; TPPs entering via trusted core ports
        execute normally."""
        net = linear_net
        policy = EdgeTPPPolicy()
        # Untrust only sw0's host-facing port.
        in_port = [local for local, peer, _ in net.adjacency()["sw0"]
                   if peer == "h0"][0]
        policy.mark_untrusted("sw0", in_port)
        for name in net.switches:
            net.switch(name).tpp_policy = policy
        # h1's TPP (entering at sw2, a trusted port) still executes on
        # every switch.  It wraps a data packet so delivery at h0 does not
        # depend on an echo crossing the untrusted edge back out.
        h0, h1 = net.host("h0"), net.host("h1")
        seen = []
        endpoint_h0 = TPPEndpoint(h0)
        endpoint_h0.add_tap(lambda tpp, frame: seen.append(tpp))
        h0.on_udp_port(9, lambda d, f: None)
        inner = Datagram(h1.ip, h0.ip, 1, 9, RawPayload(10))
        TPPEndpoint(h1).send(assemble("PUSH [Switch:SwitchID]"),
                             dst_mac=h0.mac, payload=inner)
        net.run(until_seconds=0.01)
        assert seen[0].hops_executed() == 3


class TestVerifierPolicy:
    GOOD = "PUSH [Switch:SwitchID]"
    BAD = "POP [Sram:Word0]"  # underflows immediately

    def wire(self, net, action="strip"):
        from repro.control.security import VerifierPolicy
        policy = VerifierPolicy(untrusted_action=action)
        in_port = [local for local, peer, _ in net.adjacency()["sw0"]
                   if peer == "h0"][0]
        policy.mark_untrusted("sw0", in_port)
        net.switch("sw0").tpp_policy = policy
        return policy

    def test_invalid_action_rejected(self):
        from repro.control.security import VerifierPolicy
        with pytest.raises(ValueError):
            VerifierPolicy(untrusted_action="execute")

    def test_safe_program_executes(self, single_switch_net):
        net = single_switch_net
        policy = self.wire(net)
        results = []
        h0, h1 = net.host("h0"), net.host("h1")
        TPPEndpoint(h0).send(assemble(self.GOOD), dst_mac=h1.mac,
                             on_response=results.append)
        TPPEndpoint(h1)
        net.run(until_seconds=0.01)
        assert results[0].hops() == 1
        assert policy.tpps_admitted >= 1
        assert policy.tpps_rejected == 0

    def test_unsafe_program_stripped(self, single_switch_net):
        net = single_switch_net
        policy = self.wire(net)
        switch = net.switch("sw0")
        results = []
        h0, h1 = net.host("h0"), net.host("h1")
        TPPEndpoint(h0).send(assemble(self.BAD), dst_mac=h1.mac,
                             on_response=results.append)
        TPPEndpoint(h1)
        net.run(until_seconds=0.01)
        assert results == []
        assert policy.tpps_rejected == 1
        assert switch.tpps_stripped == 1
        assert switch.tcpu.tpps_executed == 0

    def test_unsafe_program_dropped(self, single_switch_net):
        net = single_switch_net
        policy = self.wire(net, action="drop")
        switch = net.switch("sw0")
        h0, h1 = net.host("h0"), net.host("h1")
        got = []
        h1.on_udp_port(9, lambda d, f: got.append(d))
        inner = Datagram(h0.ip, h1.ip, 1, 9, RawPayload(50))
        TPPEndpoint(h0).send(assemble(self.BAD), dst_mac=h1.mac,
                             payload=inner)
        net.run(until_seconds=0.01)
        assert got == []
        assert switch.tpps_dropped == 1

    def test_forward_action_carries_without_executing(
            self, single_switch_net):
        net = single_switch_net
        policy = self.wire(net, action="forward")
        switch = net.switch("sw0")
        results = []
        h0, h1 = net.host("h0"), net.host("h1")
        TPPEndpoint(h0).send(assemble(self.BAD), dst_mac=h1.mac,
                             on_response=results.append)
        TPPEndpoint(h1)
        net.run(until_seconds=0.01)
        # Echoed back with zero hops executed.
        assert results[0].hops() == 0
        assert switch.tcpu.tpps_executed == 0
        assert policy.tpps_rejected == 1

    def test_trusted_port_skips_verification(self, single_switch_net):
        from repro.control.security import VerifierPolicy
        net = single_switch_net
        policy = VerifierPolicy()  # no ports marked untrusted
        net.switch("sw0").tpp_policy = policy
        results = []
        h0, h1 = net.host("h0"), net.host("h1")
        # Even the bad program executes (and faults at runtime): the
        # policy only verifies untrusted ingress.
        TPPEndpoint(h0).send(assemble(self.BAD), dst_mac=h1.mac,
                             on_response=results.append)
        TPPEndpoint(h1)
        net.run(until_seconds=0.01)
        assert policy.tpps_verified == 0
        assert len(results) == 1

    def test_verdicts_cached_per_program(self, single_switch_net):
        net = single_switch_net
        policy = self.wire(net)
        h0, h1 = net.host("h0"), net.host("h1")
        client, _ = TPPEndpoint(h0), TPPEndpoint(h1)
        program = assemble(self.GOOD)
        for _ in range(4):
            client.send(program, dst_mac=h1.mac)
        net.run(until_seconds=0.01)
        assert policy.tpps_admitted == 4
        assert policy.tpps_verified == 1  # one analysis, memoized

    def test_two_images_of_one_template_get_two_verdicts(self):
        """The verdict reads the memory image (TPP008/TPP012, fences),
        so a rebound template is a new admission — the memo must never
        hand one image's diagnostics and certificate to another."""
        from repro.control.security import VerifierPolicy
        fenced = ("LOAD [Switch:SwitchID], [Packet:0]\n"
                  "CEXEC [Switch:SwitchID], $Mask, $Want\n"
                  "STORE [Sram:Word0], [Packet:0]\n")
        dead = assemble(fenced, symbols={"Mask": 0x0F, "Want": 0x100})
        live = dead.rebind({"Mask": 0xFF, "Want": 7})
        assert dead.program_key == live.program_key
        policy = VerifierPolicy()
        verdicts = [policy._verdict(p.build()) for p in (dead, live)]
        assert verdicts[0] is not verdicts[1]
        assert policy.tpps_verified == 2
        for program, cached in zip((dead, live), verdicts):
            direct = verify_section(program.build())
            assert ([d.to_dict() for d in cached.diagnostics]
                    == [d.to_dict() for d in direct.diagnostics])
            assert cached.certificate.summary.key == (
                program.program_key, 0, program.initial_memory)
            assert (cached.certificate.summary.relational.dead_suffix_at
                    == direct.certificate.summary.relational.dead_suffix_at)
            assert policy._verdict(program.build()) is cached  # memoized
        assert [d.code for d in verdicts[0].diagnostics
                if d.code in ("TPP008", "TPP012")] == ["TPP008", "TPP012"]
        assert not [d.code for d in verdicts[1].diagnostics
                    if d.code in ("TPP008", "TPP012")]

    def test_trust_on_admit_feeds_verified_fastpath(self,
                                                    single_switch_net):
        net = single_switch_net
        policy = self.wire(net)
        switch = net.switch("sw0")
        h0, h1 = net.host("h0"), net.host("h1")
        TPPEndpoint(h0).send(assemble(self.GOOD), dst_mac=h1.mac)
        TPPEndpoint(h1)
        net.run(until_seconds=0.01)
        assert switch.tcpu.certificates == 1
        if switch.tcpu.compile_enabled:
            assert switch.tcpu.verified_executions >= 1


class TestVerifierPolicyRaces:
    """Fleet-level race gating at the admission point."""

    # Verifier-clean individually; a TPP020 write-write race as a pair.
    WRITER_A = ".memory 1\nSTORE [Sram:Word0], [Packet:0]"
    WRITER_B = ".memory 2\nSTORE [Sram:Word0], [Packet:1]"

    def wire(self, net, race_mode="warn"):
        from repro.control.security import VerifierPolicy
        policy = VerifierPolicy(race_mode=race_mode)
        in_port = [local for local, peer, _ in net.adjacency()["sw0"]
                   if peer == "h0"][0]
        policy.mark_untrusted("sw0", in_port)
        net.switch("sw0").tpp_policy = policy
        return policy

    def test_invalid_race_mode_rejected(self):
        from repro.control.security import VerifierPolicy
        with pytest.raises(ValueError):
            VerifierPolicy(race_mode="paranoid")

    def test_warn_mode_admits_racy_fleet_and_reports(
            self, single_switch_net):
        net = single_switch_net
        policy = self.wire(net)
        switch = net.switch("sw0")
        h0, h1 = net.host("h0"), net.host("h1")
        client, _ = TPPEndpoint(h0), TPPEndpoint(h1)
        client.send(assemble(self.WRITER_A), dst_mac=h1.mac)
        client.send(assemble(self.WRITER_B), dst_mac=h1.mac)
        net.run(until_seconds=0.01)
        assert policy.tpps_admitted == 2
        assert policy.tpps_rejected == 0
        assert policy.tpps_racy == 1  # second arrival saw the race
        assert switch.tcpu.tpps_executed == 2
        assert policy.race_mode == "warn"
        assert "TPP020" in policy.fleet.report().format()
        assert snapshot(policy, policy.fleet) == {
            "tpps_verified": 2, "tpps_admitted": 2, "tpps_rejected": 0,
            "tpps_racy": 1, "fleet_size": 2, "pair_checks": 1,
            "racy_admissions": 1, "race_errors": 1, "race_warnings": 0}

    def test_enforce_mode_strips_racing_arrival(self, single_switch_net):
        net = single_switch_net
        policy = self.wire(net, race_mode="enforce")
        switch = net.switch("sw0")
        h0, h1 = net.host("h0"), net.host("h1")
        client, _ = TPPEndpoint(h0), TPPEndpoint(h1)
        client.send(assemble(self.WRITER_A), dst_mac=h1.mac)
        net.run(until_seconds=0.01)
        client.send(assemble(self.WRITER_B), dst_mac=h1.mac)
        net.run(until_seconds=0.02)
        assert policy.tpps_admitted == 1
        assert policy.tpps_racy == 1
        assert policy.tpps_rejected == 1
        assert switch.tpps_stripped == 1
        assert switch.tcpu.tpps_executed == 1
        assert len(policy.fleet) == 1

    def test_revoke_readmits_former_rival(self, single_switch_net):
        net = single_switch_net
        policy = self.wire(net, race_mode="enforce")
        switch = net.switch("sw0")
        h0, h1 = net.host("h0"), net.host("h1")
        client, _ = TPPEndpoint(h0), TPPEndpoint(h1)
        incumbent = assemble(self.WRITER_A)
        client.send(incumbent, dst_mac=h1.mac)
        net.run(until_seconds=0.01)
        client.send(assemble(self.WRITER_B), dst_mac=h1.mac)
        net.run(until_seconds=0.02)
        assert policy.tpps_rejected == 1
        # Retire the incumbent; its rival must now admit cleanly —
        # the fleet analysis is re-run per arrival.
        certificate = verify_section(incumbent.build()).certificate
        assert policy.revoke(certificate, switch=switch)
        assert len(policy.fleet) == 0
        assert switch.tcpu.certificates == 0
        client.send(assemble(self.WRITER_B), dst_mac=h1.mac)
        net.run(until_seconds=0.03)
        assert policy.tpps_admitted == 2
        assert policy.tpps_rejected == 1  # unchanged
        assert len(policy.fleet) == 1
        with pytest.raises(TypeError):
            policy.revoke(incumbent.build())  # a section is no certificate

    def test_per_packet_rebinding_stays_bounded(self, single_switch_net):
        """A sender that rebinds a per-packet value (RCP's timestamps,
        the ledger's byte counts) is a new image per arrival: neither
        race table may grow, nor the program recompile, per packet."""
        from repro.core.racecheck import MAX_IMAGES
        net = single_switch_net
        policy = self.wire(net)
        switch = net.switch("sw0")
        h0, h1 = net.host("h0"), net.host("h1")
        client, _ = TPPEndpoint(h0), TPPEndpoint(h1)
        template = assemble(
            ".memory 1\n.data 0 $Stamp\n"
            "CEXEC [Switch:SwitchID], 0xFFFFFFFF, $Target\n"
            "STORE [Sram:Word0], [Packet:0]\n",
            symbols={"Stamp": 0, "Target": switch.switch_id})
        arrivals = 40 * MAX_IMAGES
        for stamp in range(arrivals):
            client.send(template.rebind({"Stamp": stamp}), dst_mac=h1.mac)
            net.run(until_seconds=0.001 * (stamp + 1))
        assert policy.tpps_admitted == policy.tpps_verified == arrivals
        assert switch.tcpu.tpps_executed == arrivals
        for fleet in (policy.fleet, switch.tcpu.fleet):
            assert len(fleet) == MAX_IMAGES + 1
            assert fleet.pair_checks <= (MAX_IMAGES + 1) ** 2
        assert len(switch.tcpu.race_conflicts) <= (MAX_IMAGES + 1) ** 2
        assert switch.tcpu.certificates == 1
        assert switch.tcpu.cache.misses == 1

    def test_off_mode_skips_fleet_analysis(self, single_switch_net):
        net = single_switch_net
        policy = self.wire(net, race_mode="off")
        h0, h1 = net.host("h0"), net.host("h1")
        client, _ = TPPEndpoint(h0), TPPEndpoint(h1)
        client.send(assemble(self.WRITER_A), dst_mac=h1.mac)
        client.send(assemble(self.WRITER_B), dst_mac=h1.mac)
        net.run(until_seconds=0.01)
        assert policy.tpps_admitted == 2
        assert policy.tpps_racy == 0
        assert len(policy.fleet) == 0
