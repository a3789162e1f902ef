"""Network container and topology builders.

A :class:`Network` owns the simulator, the trace recorder, all devices, and
the wiring between them.  :class:`TopologyBuilder` provides the shapes the
experiments use:

- ``linear``   — h0 — sw0 — sw1 — ... — h1 (Figure 1's multi-hop query);
- ``dumbbell`` — n senders and n receivers sharing one bottleneck link
  (Figure 2's RCP experiment);
- ``star``     — one switch, many hosts;
- ``fat_tree`` — a small k-ary fat-tree for the ndb experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import units
from repro.errors import ConfigurationError
from repro.net.addresses import host_mac, switch_mac
from repro.net.device import Device
from repro.net.host import Host
from repro.net.link import connect
from repro.net.port import Port
from repro.sim.simulator import Simulator
from repro.sim.trace import TraceRecorder


@dataclass
class Edge:
    """An undirected adjacency between two device ports."""

    device_a: str
    port_a: int
    device_b: str
    port_b: int
    rate_bps: int = 0
    delay_ns: int = 0


class Network:
    """All simulation state for one experiment."""

    def __init__(self, seed: int = 0, trace_enabled: bool = True,
                 index_base: int = 0) -> None:
        if index_base < 0:
            raise ConfigurationError(
                f"index_base must be >= 0: {index_base}")
        self.sim = Simulator(seed=seed)
        self.trace = TraceRecorder(enabled=trace_enabled)
        #: The simulator's RNG family (one object, two handles): components
        #: created from a ``Network`` and components that only hold a
        #: ``sim`` reference draw from the same seeded streams.
        self.rng = self.sim.rng
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Device] = {}
        self.edges: List[Edge] = []
        #: Offset into the global MAC / IP / switch-id number spaces.
        #: Auto-assigned addresses start here, so several ``Network``
        #: instances (the sharded fleet's regions, each with its own
        #: counters) can coexist without address collisions — region r
        #: builds with ``index_base = r * stride`` and every address
        #: stays derivable from the region index alone.
        self.index_base = index_base
        self._host_count = index_base
        self._switch_count = index_base
        self._next_ip = 0x0A00_0001 + index_base  # 10.0.0.1 + base

    # ------------------------------------------------------------------ #
    # Device creation
    # ------------------------------------------------------------------ #

    def add_host(self, name: Optional[str] = None) -> Host:
        """Create a host with auto-assigned MAC and IP."""
        if name is None:
            name = f"h{self._host_count}"
        if name in self.hosts or name in self.switches:
            raise ConfigurationError(f"duplicate device name {name!r}")
        host = Host(self.sim, name, mac=host_mac(self._host_count),
                    ip=self._next_ip, trace=self.trace)
        self._host_count += 1
        self._next_ip += 1
        self.hosts[name] = host
        return host

    def add_switch(self, name: Optional[str] = None,
                   switch_id_override: Optional[int] = None) -> Device:
        """Create a TPP-capable switch.

        ``switch_id_override`` replaces the sequential id — experiments
        that encode roles in the id space (e.g. a ToR tag bit for CEXEC
        class targeting) use it.
        """
        if name is None:
            name = f"sw{self._switch_count}"
        if name in self.hosts or name in self.switches:
            raise ConfigurationError(f"duplicate device name {name!r}")
        # Imported here: repro.asic depends on repro.net.
        from repro.asic.switch import TPPSwitch
        switch_id = (switch_id_override if switch_id_override is not None
                     else self._switch_count + 1)
        switch = TPPSwitch(self.sim, name, switch_id=switch_id,
                           mac=switch_mac(self._switch_count),
                           trace=self.trace)
        self._switch_count += 1
        self.switches[name] = switch
        return switch

    def link(self, a: Device, b: Device, rate_bps: int,
             delay_ns: int = 1_000,
             queue_capacity_bytes: int = 512 * 1024,
             n_queues: int = 1) -> Tuple[Port, Port]:
        """Wire a full-duplex link and record the adjacency."""
        port_a, port_b = connect(self.sim, a, b, rate_bps, delay_ns,
                                 queue_capacity_bytes, n_queues)
        self.edges.append(Edge(a.name, port_a.index, b.name, port_b.index,
                               rate_bps, delay_ns))
        return port_a, port_b

    def impair_links(self, loss_rate: float = 0.0,
                     corrupt_rate: float = 0.0,
                     duplicate_rate: float = 0.0) -> int:
        """Apply one impairment profile to every link in the network.

        Each link direction draws from its own named RNG stream
        (``impair/<link-name>``), so adding or removing traffic on one
        link never perturbs the impairment pattern on another.  Returns
        the number of link directions configured.
        """
        impaired = 0
        for device in self.all_devices():
            for port in device.ports:
                port.link.set_impairments(loss_rate=loss_rate,
                                          corrupt_rate=corrupt_rate,
                                          duplicate_rate=duplicate_rate)
                impaired += 1
        return impaired

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def host(self, name: str) -> Host:
        """The host called ``name`` (raises ``KeyError`` if absent)."""
        return self.hosts[name]

    def switch(self, name: str) -> Device:
        """The switch called ``name`` (raises ``KeyError`` if absent)."""
        return self.switches[name]

    def all_devices(self) -> List[Device]:
        """Hosts then switches, in creation order."""
        return list(self.hosts.values()) + list(self.switches.values())

    def adjacency(self) -> Dict[str, List[Tuple[int, str, int]]]:
        """``name -> [(local_port, peer_name, peer_port), ...]``."""
        result: Dict[str, List[Tuple[int, str, int]]] = {
            d.name: [] for d in self.all_devices()
        }
        for edge in self.edges:
            result[edge.device_a].append(
                (edge.port_a, edge.device_b, edge.port_b))
            result[edge.device_b].append(
                (edge.port_b, edge.device_a, edge.port_a))
        return result

    def run(self, until_seconds: Optional[float] = None) -> int:
        """Run the simulation (optionally until a horizon in seconds)."""
        until_ns = None if until_seconds is None else units.seconds(
            until_seconds)
        return self.sim.run(until_ns=until_ns)


class TopologyBuilder:
    """Builders for the canonical experiment topologies."""

    def __init__(self, seed: int = 0, rate_bps: int = units.GIGABITS_PER_SEC,
                 delay_ns: int = 1_000,
                 queue_capacity_bytes: int = 512 * 1024,
                 trace_enabled: bool = True) -> None:
        self.seed = seed
        self.rate_bps = rate_bps
        self.delay_ns = delay_ns
        self.queue_capacity_bytes = queue_capacity_bytes
        self.trace_enabled = trace_enabled

    def _network(self) -> Network:
        return Network(seed=self.seed, trace_enabled=self.trace_enabled)

    def linear(self, n_switches: int, hosts_per_end: int = 1) -> Network:
        """h0..h{k-1} — sw0 — sw1 — ... — sw{n-1} — h{k}..h{2k-1}."""
        if n_switches < 1:
            raise ConfigurationError("need at least one switch")
        net = self._network()
        switches = [net.add_switch() for _ in range(n_switches)]
        for left, right in zip(switches, switches[1:]):
            net.link(left, right, self.rate_bps, self.delay_ns,
                     self.queue_capacity_bytes)
        for _ in range(hosts_per_end):
            host = net.add_host()
            net.link(host, switches[0], self.rate_bps, self.delay_ns,
                     self.queue_capacity_bytes)
        for _ in range(hosts_per_end):
            host = net.add_host()
            net.link(host, switches[-1], self.rate_bps, self.delay_ns,
                     self.queue_capacity_bytes)
        return net

    def star(self, n_hosts: int) -> Network:
        """One switch with ``n_hosts`` leaves."""
        if n_hosts < 1:
            raise ConfigurationError("need at least one host")
        net = self._network()
        hub = net.add_switch()
        for _ in range(n_hosts):
            host = net.add_host()
            net.link(host, hub, self.rate_bps, self.delay_ns,
                     self.queue_capacity_bytes)
        return net

    def dumbbell(self, n_pairs: int, bottleneck_bps: int) -> Network:
        """n senders — swL ==bottleneck== swR — n receivers.

        Senders are ``h0 .. h{n-1}``, the matching receivers are
        ``h{n} .. h{2n-1}``.  Edge links run at 10x the bottleneck so the
        shared link is the only point of contention.
        """
        if n_pairs < 1:
            raise ConfigurationError("need at least one host pair")
        edge_bps = bottleneck_bps * 10
        net = self._network()
        left = net.add_switch("swL")
        right = net.add_switch("swR")
        net.link(left, right, bottleneck_bps, self.delay_ns,
                 self.queue_capacity_bytes)
        for _ in range(n_pairs):
            sender = net.add_host()
            net.link(sender, left, edge_bps, self.delay_ns,
                     self.queue_capacity_bytes)
        for _ in range(n_pairs):
            receiver = net.add_host()
            net.link(receiver, right, edge_bps, self.delay_ns,
                     self.queue_capacity_bytes)
        return net

    def fat_tree(self, k: int = 2) -> Network:
        """A two-tier leaf/spine fabric with ``k`` spines, ``2k`` leaves,
        and two hosts per leaf — enough path diversity for the ndb
        experiments without fat-tree bookkeeping."""
        if k < 1:
            raise ConfigurationError("need at least one spine")
        net = self._network()
        spines = [net.add_switch(f"spine{i}") for i in range(k)]
        leaves = [net.add_switch(f"leaf{i}") for i in range(2 * k)]
        for leaf in leaves:
            for spine in spines:
                net.link(leaf, spine, self.rate_bps, self.delay_ns,
                         self.queue_capacity_bytes)
        for leaf in leaves:
            for _ in range(2):
                host = net.add_host()
                net.link(host, leaf, self.rate_bps, self.delay_ns,
                         self.queue_capacity_bytes)
        return net
