"""Shortest-path route computation and forwarding-table installation.

This plays the role of the SDN controller's path computation: BFS over the
adjacency graph from every host, then one L2 exact-match entry per
(switch, destination host) installed into the switch's forwarding tables.
Installed entries carry a version number, which is what the ndb debugger
(§2.3) keys its forwarding-state checks on.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Tuple

from repro.errors import ConfigurationError
from repro.net.topology import Network


def shortest_paths_from(net: Network, origin: str) -> Dict[str, List[str]]:
    """BFS tree: device name -> path (list of device names) from ``origin``.

    Ties are broken by port order, which is creation order — deterministic
    across runs.
    """
    adjacency = net.adjacency()
    if origin not in adjacency:
        raise ConfigurationError(f"unknown device {origin!r}")
    paths: Dict[str, List[str]] = {origin: [origin]}
    frontier = deque([origin])
    while frontier:
        current = frontier.popleft()
        for _, peer, _ in sorted(adjacency[current]):
            if peer not in paths:
                paths[peer] = paths[current] + [peer]
                frontier.append(peer)
    return paths


def host_path(net: Network, src_host: str, dst_host: str) -> List[str]:
    """Device names along the route from one host to another (inclusive)."""
    paths = shortest_paths_from(net, src_host)
    if dst_host not in paths:
        raise ConfigurationError(
            f"no path from {src_host!r} to {dst_host!r}")
    return paths[dst_host]


def install_shortest_path_routes(net: Network) -> Dict[Tuple[str, int], int]:
    """Install L2 unicast entries for every host on every switch.

    Returns ``{(switch_name, dst_mac): out_port}`` — the controller's
    *intended* forwarding state, which the ndb experiments verify the
    dataplane against.
    """
    intended: Dict[Tuple[str, int], int] = {}
    adjacency = net.adjacency()
    for host_name, host in net.hosts.items():
        paths = shortest_paths_from(net, host_name)
        for switch_name, switch in net.switches.items():
            if switch_name not in paths:
                continue
            path = paths[switch_name]
            if len(path) < 2:
                continue
            # path is host -> ... -> switch; the switch's next hop back
            # toward the host is the previous element.
            toward = path[-2]
            out_port = None
            for local_port, peer, _ in adjacency[switch_name]:
                if peer == toward:
                    out_port = local_port
                    break
            if out_port is None:
                raise ConfigurationError(
                    f"adjacency inconsistent at {switch_name!r}")
            switch.install_l2_route(host.mac, out_port)
            intended[(switch_name, host.mac)] = out_port
    return intended
