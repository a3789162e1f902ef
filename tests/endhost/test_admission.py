"""Endpoint admission: static verification before a probe leaves the host.

``verify_mode="enforce"`` refuses to inject unverifiable programs (the
probe never touches the network); ``"off"`` (the default) skips the
verifier entirely.
"""

import pytest

from repro.analysis.reporting import counters_table
from repro.core.assembler import assemble
from repro.core.verifier import VerificationError
from repro.endhost.client import TPPEndpoint
from repro.endhost.probes import PeriodicProber
from repro.sim.trace import snapshot

GOOD = "PUSH [Switch:SwitchID]"
BAD = "POP [Sram:Word0]"  # underflows on the first instruction


@pytest.fixture
def net_hosts(linear_net):
    return linear_net, linear_net.host("h0"), linear_net.host("h1")


class TestVerifyModes:
    def test_bad_mode_rejected(self, net_hosts):
        _, h0, _ = net_hosts
        with pytest.raises(ValueError):
            TPPEndpoint(h0, verify_mode="paranoid")

    def test_off_sends_anything(self, net_hosts):
        net, h0, h1 = net_hosts
        client = TPPEndpoint(h0)
        TPPEndpoint(h1)
        client.send(assemble(BAD), dst_mac=h1.mac)
        assert client.probes_sent == 1
        assert client.probes_rejected == 0

    def test_enforce_rejects_bad_program(self, net_hosts):
        net, h0, h1 = net_hosts
        client = TPPEndpoint(h0, verify_mode="enforce")
        with pytest.raises(VerificationError) as excinfo:
            client.send(assemble(BAD), dst_mac=h1.mac)
        assert "TPP003" in str(excinfo.value)
        assert client.probes_rejected == 1
        assert client.probes_sent == 0

    def test_enforce_passes_good_program(self, net_hosts):
        net, h0, h1 = net_hosts
        client = TPPEndpoint(h0, verify_mode="enforce")
        TPPEndpoint(h1)
        results = []
        client.send(assemble(GOOD), dst_mac=h1.mac,
                    on_response=results.append)
        net.run(until_seconds=0.01)
        assert len(results) == 1
        assert client.probes_rejected == 0

    def test_wrap_is_gated_too(self, net_hosts):
        net, h0, h1 = net_hosts
        client = TPPEndpoint(h0, verify_mode="enforce")
        from repro.net.packet import RawPayload
        with pytest.raises(VerificationError):
            client.wrap(assemble(BAD), RawPayload(20), dst_mac=h1.mac)

    def test_admission_memoized_per_program(self, net_hosts):
        net, h0, h1 = net_hosts
        client = TPPEndpoint(h0, verify_mode="enforce")
        TPPEndpoint(h1)
        program = assemble(GOOD)
        for _ in range(5):
            client.send(program, dst_mac=h1.mac)
        first = client.admit(program)
        assert client.admit(program) is first

    def test_admission_reads_the_memory_image_not_its_length(
            self, net_hosts):
        """Same instructions, same memory size, different literal pool:
        the verifier folds the CEXEC constants, so the verdicts differ
        and the memo must not hand one program the other's."""
        _, h0, _ = net_hosts
        client = TPPEndpoint(h0)
        template = assemble(
            ".memory 1\n"
            "CEXEC [Switch:SwitchID], $Mask, $Want\n"
            "STORE [Sram:Word0], [Packet:0]",
            symbols={"Mask": 0xFF, "Want": 0x1})
        unsatisfiable = template.rebind({"Mask": 0x0F, "Want": 0x100})
        assert unsatisfiable.program_key == template.program_key
        live = client.admit(template)
        dead = client.admit(unsatisfiable)
        assert [d.code for d in live.diagnostics] == []
        assert [d.code for d in dead.diagnostics] == ["TPP008", "TPP012"]
        # Still a memo: an equal image is the same verdict object.
        assert client.admit(template.rebind({"Mask": 0xFF})) is live

    def test_admit_exposes_result_without_sending(self, net_hosts):
        _, h0, _ = net_hosts
        client = TPPEndpoint(h0)  # mode off: admit still works on demand
        result = client.admit(assemble(BAD))
        assert not result.ok
        assert client.probes_sent == 0


class TestProberAdmission:
    def test_enforcing_prober_fails_at_construction(self, net_hosts):
        """The prober surfaces the rejection where the experiment is
        built, not on every timer tick."""
        net, h0, h1 = net_hosts
        endpoint = TPPEndpoint(h0, verify_mode="enforce")
        with pytest.raises(VerificationError):
            PeriodicProber(endpoint, assemble(BAD), interval_ns=1_000_000,
                           on_result=lambda r: None, dst_mac=h1.mac)

    def test_enforcing_prober_runs_good_program(self, net_hosts):
        net, h0, h1 = net_hosts
        endpoint = TPPEndpoint(h0, verify_mode="enforce")
        TPPEndpoint(h1)
        results = []
        prober = PeriodicProber(endpoint, assemble(GOOD),
                                interval_ns=1_000_000,
                                on_result=results.append, dst_mac=h1.mac)
        prober.start()
        net.run(until_seconds=0.01)
        prober.stop()
        assert results


class TestReporting:
    def test_rejected_counter_in_endpoint_table(self, net_hosts):
        net, h0, h1 = net_hosts
        client = TPPEndpoint(h0, verify_mode="enforce")
        with pytest.raises(VerificationError):
            client.send(assemble(BAD), dst_mac=h1.mac)
        assert snapshot(client)["probes_rejected"] == 1
        report = counters_table({"h0": snapshot(client)})
        assert "h0" in report.splitlines()[0]
        lines = [line for line in report.splitlines()
                 if line.startswith("probes_rejected ")]
        assert lines and lines[0].rstrip().endswith("1")
