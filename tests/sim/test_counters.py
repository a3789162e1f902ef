"""The counter contract: ``COUNTERS`` → ``snapshot`` → ``merge``.

Every class that keeps counters names them once in ``COUNTERS``;
:func:`repro.sim.trace.snapshot` reads them into a JSON-ready dict and
:func:`repro.sim.trace.merge` sums snapshots.  These tests drive a real
probe network and a real sharded fleet and hold every declared owner to
that contract.
"""

import importlib
import inspect
import json
import pkgutil

import pytest

import repro
from repro.control.security import VerifierPolicy
from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint
from repro.fleet import driver, fleet_specs, run_fleet
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder
from repro.sim.trace import merge, snapshot

#: The fleet ``benchmarks/scale_bench.py --quick`` sweeps.
FLEET_SPECS = fleet_specs(4, switches=2, hosts_per_switch=2,
                          probe_bursts=3, probe_interval_ns=100_000,
                          flows_per_probe=250)
FLEET_NS = 2_000_000


def counter_owner_classes():
    """Every class in :mod:`repro` that declares its own ``COUNTERS``."""
    owners = set()
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for _name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__ and "COUNTERS" in vars(cls):
                owners.add(cls)
    return owners


def probe_network():
    """A ``probe_line``-sized run: three switches, an enforce-mode
    sender, a responder, and a VerifierPolicy at the first switch."""
    net = TopologyBuilder(seed=1).linear(3)
    install_shortest_path_routes(net)
    h0, h1 = net.host("h0"), net.host("h1")
    sender = TPPEndpoint(h0, verify_mode="enforce")
    responder = TPPEndpoint(h1)
    policy = VerifierPolicy()
    first = net.switch("sw0")
    in_port = [local for local, peer, _ in net.adjacency()["sw0"]
               if peer == "h0"][0]
    policy.mark_untrusted("sw0", in_port)
    first.tpp_policy = policy
    program = assemble("PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]\n"
                       "PUSH [Link:CapacityMbps]", hops=3)
    for i in range(20):
        net.sim.schedule(i * 5_000, sender.send, program, h1.mac)
    net.run(until_seconds=0.002)
    assert sender.responses_received == 20
    owners = [net.sim, policy, policy.fleet, sender, responder]
    for switch in net.switches.values():
        owners += [switch, switch.tcpu, switch.tcpu.cache, switch.mmu,
                   switch.tcpu.fleet]
        owners += [port.link for port in switch.ports]
    return owners


class RecordingShard(driver._InlineShard):
    """An inline shard that keeps its regions reachable after the run."""

    built = []

    def __init__(self, specs):
        super().__init__(specs)
        RecordingShard.built.append(self)


@pytest.fixture(scope="module")
def fleet_regions():
    RecordingShard.built = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(driver, "_InlineShard", RecordingShard)
        result = run_fleet(FLEET_SPECS, FLEET_NS, shards=2)
    regions = {index: region for shard in RecordingShard.built
               for index, region in shard.regions.items()}
    return result, [regions[index] for index in sorted(regions)]


class TestSnapshotContract:
    def test_every_owner_is_exercised_and_resolves(self, fleet_regions):
        _result, regions = fleet_regions
        owners = probe_network()
        for region in regions:
            owners += [region.controller, region.admission,
                       region.boundary_link, region.ingress]
        covered = {type(owner) for owner in owners}
        assert counter_owner_classes() <= covered
        for owner in owners:
            counters = snapshot(owner)
            assert list(counters) == list(type(owner).COUNTERS)
            for name, value in counters.items():
                assert isinstance(value, (int, dict)), (owner, name)
                if isinstance(value, dict):
                    assert all(isinstance(v, int) for v in value.values())

    def test_snapshots_are_json_and_reading_changes_nothing(self):
        owners = probe_network()
        first = [snapshot(owner) for owner in owners]
        json.dumps(first)
        assert [snapshot(owner) for owner in owners] == first

    def test_fleet_counters_merge_region_snapshots(self, fleet_regions):
        result, regions = fleet_regions
        assert result.counters == merge(region.counters()
                                        for region in regions)
        for region in regions:
            assert region.counters() == merge(
                [snapshot(region.controller, region.admission,
                          region.boundary_link, region.ingress)]
                + [snapshot(switch, switch.tcpu)
                   for switch in region.switch_chain])
        json.dumps(result.counters)

    @pytest.mark.parametrize("shards,transport", [
        (1, "inline"), (4, "inline"), (2, "fork")])
    def test_fleet_counters_do_not_depend_on_sharding(
            self, fleet_regions, shards, transport):
        result, _regions = fleet_regions
        other = run_fleet(FLEET_SPECS, FLEET_NS, shards=shards,
                          transport=transport)
        assert other.counters == result.counters
        assert other.fingerprint() == result.fingerprint()


class TestSnapshotAndMerge:
    class Owner:
        COUNTERS = ("hits", "by_reason", "enabled")

        def __init__(self, hits, by_reason, enabled=True):
            self.hits = hits
            self.by_reason = by_reason
            self.enabled = enabled

    def test_snapshot_copies_dict_counters(self):
        owner = self.Owner(3, {"a": 1})
        counters = snapshot(owner)
        assert counters == {"hits": 3, "by_reason": {"a": 1},
                            "enabled": True}
        counters["by_reason"]["a"] = 99
        assert owner.by_reason == {"a": 1}

    def test_snapshot_refuses_a_name_twice(self):
        with pytest.raises(ValueError):
            snapshot(self.Owner(1, {}), self.Owner(2, {}))

    def test_merge_sums_keywise(self):
        merged = merge([snapshot(self.Owner(1, {"a": 1})),
                        snapshot(self.Owner(2, {"a": 2, "b": 5}, False))])
        assert merged == {"hits": 3, "by_reason": {"a": 3, "b": 5},
                          "enabled": 1}
        assert merge([]) == {}
