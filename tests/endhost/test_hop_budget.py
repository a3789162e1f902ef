"""Verifier-driven hop budgeting at the endpoint.

Before this existed, ``TPPEndpoint`` trusted the caller's ``.hops``
geometry: a program assembled for 2 hops sent across a 5-switch path
sailed through admission and faulted mid-path (``STACK_OVERFLOW`` in
stack mode, ``MEMORY_BOUNDS`` in hop mode) at hop 2.
The verifier's TPP009 scan already measured the memory's true hop
capacity — these tests pin the endpoint consulting it: ``auto`` mode
transparently grows poolless programs to the configured budget (and
re-verifies the result), ``reject`` mode (and unsound resizes) refuse
the send with a synthetic error-grade TPP009 instead of faulting
mid-path.
"""

import pytest

from repro import units
from repro.core.assembler import assemble
from repro.core.exceptions import FaultCode
from repro.core.verifier import VerificationError
from repro.endhost.client import TPPEndpoint
from repro.endhost.probes import PeriodicProber
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder


def build_net(n_switches, seed=0):
    builder = TopologyBuilder(seed=seed, rate_bps=units.GIGABITS_PER_SEC,
                              delay_ns=1_000)
    net = builder.linear(n_switches=n_switches)
    install_shortest_path_routes(net)
    return net


def small_probe(hops=2):
    """A poolless queue probe whose memory only fits ``hops`` hops."""
    return assemble("PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]",
                    hops=hops)


class TestPlanHops:
    def test_reports_memory_capacity(self):
        net = build_net(2)
        endpoint = TPPEndpoint(net.host("h0"))
        assert endpoint.plan_hops(small_probe(hops=3)) == 3

    def test_zero_footprint_is_unbounded(self):
        net = build_net(2)
        endpoint = TPPEndpoint(net.host("h0"))
        program = assemble("CSTORE [Sram:Word0], 30, 111")
        assert endpoint.plan_hops(program) is None


class TestAutoSizing:
    def test_sufficient_program_passes_through_untouched(self):
        net = build_net(2)
        endpoint = TPPEndpoint(net.host("h0"), hop_budget=3)
        program = small_probe(hops=4)
        assert endpoint.budget(program) is program
        assert endpoint.probes_auto_sized == 0

    def test_undersized_program_is_grown_to_budget(self):
        net = build_net(2)
        endpoint = TPPEndpoint(net.host("h0"), hop_budget=6)
        program = small_probe(hops=2)
        resized = endpoint.budget(program)
        assert resized is not program
        assert resized.hops == 6
        assert len(resized.initial_memory) == 6 * program.perhop_len_bytes
        # The resize is confirmed by re-verification, not arithmetic.
        capacity = endpoint.plan_hops(resized)
        assert capacity is None or capacity >= 6
        assert endpoint.probes_auto_sized == 1
        # Memoized: the same template resolves to the same object.
        assert endpoint.budget(program) is resized

    def test_budgeted_probe_survives_the_long_path(self):
        """End to end: a 2-hop allocation across 5 switches faults
        without a budget and completes with one."""
        net = build_net(5)
        h0, h1 = net.host("h0"), net.host("h1")
        bare = TPPEndpoint(h0)
        TPPEndpoint(h1)
        results = []
        bare.send(small_probe(hops=2), dst_mac=h1.mac,
                  on_response=results.append)
        net.run(until_seconds=0.01)
        assert len(results) == 1
        assert results[0].fault == FaultCode.STACK_OVERFLOW

        budgeted = TPPEndpoint(h0, hop_budget=8)
        budgeted.send(small_probe(hops=2), dst_mac=h1.mac,
                      on_response=results.append)
        net.run(until_seconds=0.02)
        assert len(results) == 2
        assert results[1].ok
        assert results[1].hops() == 5
        assert len(results[1].per_hop_words()) == 5

    TAGGED = (".mode hop\n.hops 2\n.perhop 2\n.data 0 $Tag\n"
              "LOAD [Switch:SwitchID], [Packet:Hop[1]]")

    def test_resize_memo_keeps_programs_with_different_data_apart(self):
        """Two programs that differ only in an initialised word must
        each go out carrying their own bytes, not the first one's."""
        net = build_net(2)
        endpoint = TPPEndpoint(net.host("h0"), hop_budget=4)
        first = assemble(self.TAGGED, symbols={"Tag": 0xAAAA})
        second = first.rebind({"Tag": 0xBBBB})
        assert endpoint.budget(first).build().words()[0] == 0xAAAA
        assert endpoint.budget(second).build().words()[0] == 0xBBBB
        assert endpoint.budget(first) is endpoint.budget(first)

    def test_resized_program_stays_rebindable(self):
        net = build_net(2)
        endpoint = TPPEndpoint(net.host("h0"), hop_budget=4)
        program = assemble(self.TAGGED, symbols={"Tag": 0xAAAA})
        resized = endpoint.budget(program)
        rebound = resized.rebind({"Tag": 0xBBBB})
        assert rebound.hops == 4
        assert rebound.initial_memory == endpoint.budget(
            program.rebind({"Tag": 0xBBBB})).initial_memory
        assert rebound.initial_memory[:4] == (0xBBBB).to_bytes(4, "big")
        assert len(rebound.initial_memory) == len(resized.initial_memory)

    def test_prober_fires_the_resized_program(self):
        net = build_net(4)
        h0, h1 = net.host("h0"), net.host("h1")
        endpoint = TPPEndpoint(h0, hop_budget=8)
        TPPEndpoint(h1)
        results = []
        prober = PeriodicProber(endpoint, small_probe(hops=2),
                                interval_ns=units.milliseconds(1),
                                on_result=results.append, dst_mac=h1.mac)
        prober.start()
        net.run(until_seconds=0.01)
        prober.stop()
        assert results
        assert all(r.ok and r.hops() == 4 for r in results)


class TestRejection:
    def test_reject_mode_raises_synthetic_tpp009(self):
        net = build_net(2)
        endpoint = TPPEndpoint(net.host("h0"), hop_budget=6,
                               hop_budget_mode="reject")
        with pytest.raises(VerificationError) as excinfo:
            endpoint.send(small_probe(hops=2),
                          dst_mac=net.host("h1").mac)
        result = excinfo.value.result
        assert [d.code for d in result.errors] == ["TPP009"]
        assert result.hop_capacity == 2
        assert endpoint.probes_rejected == 1
        assert endpoint.probes_sent == 0

    def test_pooled_program_cannot_be_auto_sized(self):
        """A literal pool sits where the memory would grow: appending
        stack words would let later hops clobber the constants, so even
        ``auto`` mode must refuse."""
        net = build_net(2)
        endpoint = TPPEndpoint(net.host("h0"), hop_budget=5)
        pooled = assemble(
            "PUSH [Queue:QueueSize]\nCSTORE [Sram:Word0], 30, 111",
            hops=2)
        assert pooled.pool_base_word * pooled.word_size < len(
            pooled.initial_memory)
        with pytest.raises(VerificationError) as excinfo:
            endpoint.budget(pooled)
        assert "unsound" in str(excinfo.value)
        assert endpoint.probes_rejected == 1

    def test_prober_construction_fails_fast(self):
        net = build_net(2)
        h0, h1 = net.host("h0"), net.host("h1")
        endpoint = TPPEndpoint(h0, hop_budget=6, hop_budget_mode="reject")
        with pytest.raises(VerificationError):
            PeriodicProber(endpoint, small_probe(hops=2),
                           interval_ns=units.milliseconds(1),
                           on_result=lambda r: None, dst_mac=h1.mac)

    def test_bad_constructor_arguments(self):
        net = build_net(2)
        with pytest.raises(ValueError):
            TPPEndpoint(net.host("h0"), hop_budget_mode="maybe")
        with pytest.raises(ValueError):
            TPPEndpoint(net.host("h0"), hop_budget=0)
