"""One shard-sized slice of the fleet: a region and its declarative spec.

A :class:`RegionSpec` is plain picklable data — everything a worker
process needs to build its regions from scratch.  :func:`build_region`
turns a spec into a live :class:`Region`: its own
:class:`~repro.net.topology.Network` (hence its own simulator and event
queue), a chain of TPP switches whose last member is the *gateway* with a
boundary port toward the next region in the ring, hosts with
hop-budgeted TPP endpoints, and a :class:`~repro.fleet.aggregate.
FleetProbeController` driving probes at the next region's hosts.

Determinism is placement-independent by construction:

- the region's simulator seed is a pure function of ``(master_seed,
  region index)``;
- the region builds with ``Network(index_base=index * stride)``, so every
  auto-assigned MAC, IP and switch id is globally unique and any region
  can compute any other region's addresses (``host_mac(base + i)``)
  without touching its objects;
- forwarding is a unidirectional ring: remote MACs route toward the
  gateway and out the boundary port, so probe echoes circle the ring
  back to their sender.

Nothing here knows about shards: a region behaves identically whether it
shares a process with every other region or runs alone — which is the
whole bit-identical-under-resharding argument.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Any, Dict, List

from repro import units
from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint
from repro.errors import ConfigurationError
from repro.fleet.aggregate import BatchedAdmission, FleetProbeController
from repro.fleet.boundary import (
    BoundaryIngress,
    BoundaryMessage,
    attach_boundary_port,
)
from repro.net.addresses import host_mac
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import Network
from repro.sim.trace import merge, snapshot

#: Default probe program: the two-sample hop query of Figure 1.
DEFAULT_PROBE = "PUSH [Switch:SwitchID]\nPUSH [Queue:QueueSize]"


@dataclasses.dataclass(frozen=True)
class RegionSpec:
    """Everything needed to (re)build one region, as picklable data."""

    index: int
    n_regions: int
    switches: int = 2
    hosts_per_switch: int = 1
    master_seed: int = 0
    #: Address-space spacing between regions (``index_base`` stride);
    #: must exceed both per-region device counts.
    stride: int = 1024
    rate_bps: int = units.GIGABITS_PER_SEC
    delay_ns: int = 1_000
    #: Boundary propagation delay; also the fleet driver's barrier
    #: quantum, so it must be shared by every region in a fleet.
    boundary_delay_ns: int = 25_000
    queue_capacity_bytes: int = 512 * 1024
    trace_enabled: bool = False
    # -- probe workload ------------------------------------------------- #
    probe_source: str = DEFAULT_PROBE
    probe_hops: int = 2
    probe_interval_ns: int = 100_000
    probe_bursts: int = 3
    flows_per_probe: int = 1
    task_id: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.index < self.n_regions:
            raise ConfigurationError(
                f"region index {self.index} outside fleet of "
                f"{self.n_regions}")
        if self.switches < 1 or self.hosts_per_switch < 1:
            raise ConfigurationError(
                "need at least one switch and one host per switch")
        if self.stride < max(self.switches,
                             self.switches * self.hosts_per_switch):
            raise ConfigurationError(
                f"stride {self.stride} smaller than a region's device "
                "count; addresses would collide")
        if self.boundary_delay_ns < 1:
            raise ConfigurationError("boundary delay must be >= 1 ns")

    @property
    def seed(self) -> int:
        """Region seed: a pure function of (master seed, index) — never
        of shard placement."""
        return (self.master_seed * 1_000_003 + self.index * 7_919 + 1) \
            & 0x7FFF_FFFF

    @property
    def index_base(self) -> int:
        return self.index * self.stride

    @property
    def hosts(self) -> int:
        return self.switches * self.hosts_per_switch

    @property
    def next_region(self) -> int:
        return (self.index + 1) % self.n_regions

    def remote_host_mac(self, region: int, host: int) -> int:
        """MAC of host ``host`` in any region, computed, not looked up."""
        return host_mac(region * self.stride + host)


def fleet_specs(n_regions: int, **overrides: Any) -> List[RegionSpec]:
    """Specs for a homogeneous ring fleet (the common case)."""
    return [RegionSpec(index=r, n_regions=n_regions, **overrides)
            for r in range(n_regions)]


class Region:
    """A live region: network, gateway boundary, endpoints, controller."""

    def __init__(self, spec: RegionSpec) -> None:
        self.spec = spec
        self.outbox: List[BoundaryMessage] = []

        net = Network(seed=spec.seed, trace_enabled=spec.trace_enabled,
                      index_base=spec.index_base)
        self.net = net
        r = spec.index
        self.switch_chain = [net.add_switch(f"r{r}s{j}")
                             for j in range(spec.switches)]
        #: Port on switch j leading to switch j+1 (chain "up" direction).
        self._up_port: Dict[int, int] = {}
        for j, (left, right) in enumerate(zip(self.switch_chain,
                                              self.switch_chain[1:])):
            port_l, _port_r = net.link(left, right, spec.rate_bps,
                                       spec.delay_ns,
                                       spec.queue_capacity_bytes)
            self._up_port[j] = port_l.index
        self.hosts = []
        for i in range(spec.hosts):
            host = net.add_host(f"r{r}h{i}")
            net.link(host, self.switch_chain[i % spec.switches],
                     spec.rate_bps, spec.delay_ns,
                     spec.queue_capacity_bytes)
            self.hosts.append(host)

        self.gateway = self.switch_chain[-1]
        port, self.boundary_port_index, self.ingress = attach_boundary_port(
            net, self.gateway, spec.next_region, self.outbox,
            spec.rate_bps, spec.boundary_delay_ns,
            spec.queue_capacity_bytes,
            ingress_name=f"region{(r - 1) % spec.n_regions}->{r}")
        self.boundary_link = port.link
        self._up_port[spec.switches - 1] = self.boundary_port_index

        install_shortest_path_routes(net)
        self._install_remote_routes()

        #: A worst-case forward path executes every switch in this
        #: region's chain and every switch in the destination's: budget
        #: probes for both legs (echoes carry the done-bit and execute
        #: nowhere).
        hop_budget = 2 * spec.switches
        self.endpoints = [TPPEndpoint(host, hop_budget=hop_budget)
                          for host in self.hosts]

        program = assemble(spec.probe_source, hops=spec.probe_hops)
        self.admission = BatchedAdmission(
            self.switch_chain,
            memory_map=self.gateway.mmu.memory_map)
        lanes = [(endpoint, self._lane_dst(i))
                 for i, endpoint in enumerate(self.endpoints)]
        self.controller = FleetProbeController(
            net.sim, lanes, program, spec.probe_interval_ns,
            self.admission, flows_per_probe=spec.flows_per_probe,
            max_bursts=spec.probe_bursts, task_id=spec.task_id)
        self.controller.start()

    def _lane_dst(self, lane: int) -> int:
        """Lane i probes host i of the next region around the ring (in a
        one-region fleet: the next host of this region)."""
        spec = self.spec
        if spec.n_regions == 1:
            return host_mac(spec.index_base + (lane + 1) % spec.hosts)
        return spec.remote_host_mac(spec.next_region, lane)

    def _install_remote_routes(self) -> None:
        """Route every remote host MAC up the chain and out the boundary.

        Computed from region arithmetic alone — no cross-region object
        access, so regions build independently in any process.
        """
        spec = self.spec
        for region in range(spec.n_regions):
            if region == spec.index:
                continue
            for i in range(spec.hosts):
                mac = spec.remote_host_mac(region, i)
                for j, switch in enumerate(self.switch_chain):
                    switch.install_l2_route(mac, self._up_port[j])

    # ------------------------------------------------------------------ #
    # Driver interface
    # ------------------------------------------------------------------ #

    def run_until(self, until_ns: int) -> List[BoundaryMessage]:
        """Advance to the barrier; return (and clear) the outbox."""
        self.net.sim.run(until_ns=until_ns)
        exported = list(self.outbox)
        self.outbox.clear()
        return exported

    def inject(self, messages: List[BoundaryMessage]) -> None:
        """Ingest boundary messages (already canonically ordered)."""
        for message in messages:
            self.ingress.inject(message)

    # ------------------------------------------------------------------ #
    # Determinism digests and counters
    # ------------------------------------------------------------------ #

    def digest(self) -> Dict[str, str]:
        """Hex digests over everything resharding must not change."""
        flows = hashlib.sha256()
        for line in self.controller.flow_lines():
            flows.update(line.encode())
            flows.update(b"\n")
        switches = hashlib.sha256()
        for switch in self.switch_chain:
            line = (f"{switch.name}:{switch.packets_switched}:"
                    f"{switch.tcpu.tpps_executed}")
            switches.update(line.encode())
            switches.update(switch.mmu.sram_image())
        return {"flows": flows.hexdigest(),
                "switches": switches.hexdigest()}

    def counters(self) -> Dict[str, Any]:
        """Region snapshot: probing, admission, the boundary, and every
        switch's pipeline and TCPU counters summed over the chain."""
        return merge([snapshot(self.controller, self.admission,
                               self.boundary_link, self.ingress)]
                     + [snapshot(switch, switch.tcpu)
                        for switch in self.switch_chain])


def build_region(spec: RegionSpec) -> Region:
    """Build one region from its spec (worker-side entry point)."""
    return Region(spec)
