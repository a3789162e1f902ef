"""Reproduction of *Tiny Packet Programs* (HotNets 2013).

This package implements the full system described in "Tiny Packet Programs
for low-latency network control and monitoring" by Jeyakumar, Alizadeh, Kim
and Mazieres:

- :mod:`repro.sim` -- a discrete-event simulation engine (the substrate that
  replaces the paper's Linux-router testbed).
- :mod:`repro.net` -- packets, links, queues, hosts, topologies and routing.
- :mod:`repro.asic` -- the switch ASIC dataplane pipeline of Figure 3.
- :mod:`repro.core` -- the paper's contribution: the TPP wire format, the
  instruction set, the unified memory map and the TCPU.
- :mod:`repro.control` -- the control-plane agent (SRAM partitioning) and
  edge security policy.
- :mod:`repro.endhost` -- the end-host library that injects TPPs and
  interprets their results.
- :mod:`repro.apps` -- the three network tasks of Section 2 (micro-burst
  detection, RCP*, ndb) plus baselines.
- :mod:`repro.analysis` -- time-series and convergence analysis used by the
  benchmark harness.

Quickstart::

    from repro import quickstart_network
    from repro.core import assemble

    net = quickstart_network(n_switches=3)
    h0, h1 = net.host("h0"), net.host("h1")
    results = []
    h0.tpp.send(assemble("PUSH [Queue:QueueSize]"), dst_mac=h1.mac,
                on_response=results.append)
    net.run(until_seconds=0.01)   # until the echo is home
    print(results[0].per_hop_words())   # queue size observed at each hop
"""

from repro._version import __version__
from repro.errors import ReproError
from repro.quickstart import quickstart_network

__all__ = ["__version__", "ReproError", "quickstart_network"]
