"""Resharding invariance: the fleet's core guarantee.

The same region specs must produce bit-identical per-flow reports, SRAM
images and switch counters whether the regions share one worker or are
spread across many — and whether the workers are in-process or forked.
"""

import pytest

from repro.errors import ConfigurationError
from repro.fleet import (
    RegionSpec,
    ShardedFleet,
    fleet_specs,
    run_fleet,
)

#: Small but non-trivial: 4 regions x 2 switches x 2 hosts, 3 bursts.
SPECS = fleet_specs(4, switches=2, hosts_per_switch=2, probe_bursts=3,
                    probe_interval_ns=100_000, flows_per_probe=250)
DURATION_NS = 2_000_000


@pytest.fixture(scope="module")
def baseline():
    return run_fleet(SPECS, DURATION_NS, shards=1)


class TestBitIdenticalResharding:
    @pytest.mark.parametrize("shards", [2, 4])
    def test_shard_count_does_not_change_results(self, baseline, shards):
        result = run_fleet(SPECS, DURATION_NS, shards=shards)
        assert result.fingerprint() == baseline.fingerprint()
        assert result.digests == baseline.digests
        assert result.counters == baseline.counters
        assert result.messages_exchanged == baseline.messages_exchanged

    def test_fork_transport_matches_inline(self, baseline):
        result = run_fleet(SPECS, DURATION_NS, shards=2, transport="fork")
        assert result.fingerprint() == baseline.fingerprint()
        assert result.counters == baseline.counters

    def test_rerun_is_reproducible(self, baseline):
        assert run_fleet(SPECS, DURATION_NS,
                         shards=1).fingerprint() == baseline.fingerprint()

    def test_different_seed_changes_nothing_structural_but_runs(self):
        """A different master seed still converges (no hidden coupling to
        the default seed)."""
        specs = fleet_specs(2, master_seed=99, probe_bursts=2)
        a = run_fleet(specs, 1_000_000, shards=1)
        b = run_fleet(specs, 1_000_000, shards=2)
        assert a.fingerprint() == b.fingerprint()


class TestFleetBehaviour:
    def test_probes_complete_around_the_ring(self, baseline):
        counters = baseline.counters
        # 4 regions x 4 lanes x 3 bursts, every echo collected.
        assert counters["probes_sent"] == 48
        assert counters["responses_received"] == 48
        assert counters["logical_flows"] == 48 * 250
        # Every probe crossed one boundary out and its echo circled the
        # remaining three regions home: 4 boundary hops per probe.
        assert counters["frames_exported"] == 48 * 4
        assert counters["frames_injected"] == counters["frames_exported"]

    def test_admission_is_amortized(self, baseline):
        counters = baseline.counters
        # One verifier run per region covers every lane, burst and
        # logical flow in it.
        assert counters["programs_verified"] == 4
        assert counters["flows_admitted"] == 48 * 250
        assert counters["verifications_saved"] == 48 * 250 - 4
        # One certificate per (program, switch): 2 switches per region.
        assert counters["certificates_installed"] == 8

    def test_probes_execute_on_both_legs(self, baseline):
        # Forward path: 1-2 switches locally + 2 in the next region;
        # every report shows hops > 0 and the fleet's TPP executions are
        # bounded by probes x max path.
        counters = baseline.counters
        assert 0 < counters["tpps_executed"] <= 48 * 4

    def test_single_region_fleet(self):
        result = run_fleet(fleet_specs(1, probe_bursts=2), 1_000_000)
        assert result.counters["responses_received"] == \
            result.counters["probes_sent"] > 0

    def test_modeled_time_is_positive(self, baseline):
        assert baseline.modeled_seconds > 0
        assert baseline.wall_seconds >= baseline.modeled_seconds


class TestValidation:
    def test_mismatched_quantum_rejected(self):
        specs = [RegionSpec(index=0, n_regions=2, boundary_delay_ns=10_000),
                 RegionSpec(index=1, n_regions=2, boundary_delay_ns=20_000)]
        with pytest.raises(ConfigurationError):
            ShardedFleet(specs)

    def test_index_coverage_enforced(self):
        specs = [RegionSpec(index=0, n_regions=2),
                 RegionSpec(index=0, n_regions=2)]
        with pytest.raises(ConfigurationError):
            ShardedFleet(specs)

    def test_bad_transport_and_shards(self):
        specs = fleet_specs(2)
        with pytest.raises(ConfigurationError):
            ShardedFleet(specs, transport="threads")
        with pytest.raises(ConfigurationError):
            ShardedFleet(specs, shards=0)

    def test_excess_shards_clamped(self):
        fleet = ShardedFleet(fleet_specs(2), shards=8)
        assert fleet.shards == 2

    def test_stride_collision_rejected(self):
        with pytest.raises(ConfigurationError):
            RegionSpec(index=0, n_regions=1, switches=8,
                       hosts_per_switch=4, stride=16)


class TestBatchedAdmissionKey:
    def test_verdict_is_per_memory_image(self):
        """Same instructions and memory size, different literal pool:
        the folded CEXEC constants give different verdicts, so the
        amortised verdict may not be shared."""
        from repro.core.assembler import assemble
        from repro.fleet import BatchedAdmission

        admission = BatchedAdmission(switches=[])
        template = assemble(
            ".memory 1\n"
            "CEXEC [Switch:SwitchID], $Mask, $Want\n"
            "STORE [Sram:Word0], [Packet:0]",
            symbols={"Mask": 0xFF, "Want": 0x1})
        live = admission.admit(template, flows=10)
        dead = admission.admit(
            template.rebind({"Mask": 0x0F, "Want": 0x100}), flows=10)
        assert [d.code for d in live.diagnostics] == []
        assert [d.code for d in dead.diagnostics] == ["TPP008", "TPP012"]
        assert admission.admit(template.rebind({"Want": 0x1})) is live
        assert admission.programs_verified == 2
