"""Network substrate: packets, links, queues, hosts, topology, routing.

This package models the parts of a network that the paper takes for granted:
Ethernet framing, store-and-forward links with serialization and propagation
delay, drop-tail queues with byte-level occupancy tracking, end-hosts, and
topology/routing helpers.  The switch itself (the ASIC pipeline of Figure 3)
lives in :mod:`repro.asic` and plugs into the :class:`~repro.net.device.Device`
interface defined here.
"""

from repro.net.device import Device
from repro.net.packet import (
    ETHERTYPE_IPV4,
    ETHERTYPE_TPP,
    Datagram,
    EthernetFrame,
    RawPayload,
)
from repro.net.queues import DropTailQueue, QueueStats
from repro.net.link import Link, connect
from repro.net.port import Port
from repro.net.host import Host
from repro.net.topology import Network, TopologyBuilder
from repro.net.routing import install_shortest_path_routes

__all__ = [
    "Device",
    "ETHERTYPE_IPV4",
    "ETHERTYPE_TPP",
    "Datagram",
    "EthernetFrame",
    "RawPayload",
    "DropTailQueue",
    "QueueStats",
    "Link",
    "connect",
    "Port",
    "Host",
    "Network",
    "TopologyBuilder",
    "install_shortest_path_routes",
]
