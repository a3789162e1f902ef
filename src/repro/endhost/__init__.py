"""End-host library: inject TPPs, interpret results, pace flows.

The paper's refactoring puts all intelligence at end-hosts; this package is
that end-host runtime:

- :class:`~repro.endhost.client.TPPEndpoint` — per-host TPP plumbing: sends
  probe TPPs, echoes fully-executed TPPs back to their sender (the receiver
  behaviour of §2.2 phase 1), and delivers TPP-encapsulated data packets.
- :class:`~repro.endhost.client.TPPResultView` — decodes the per-hop
  samples a returned TPP collected.
- :class:`~repro.endhost.probes.PeriodicProber` — fires a program every
  interval and hands results to a callback.
- :class:`~repro.endhost.rate_limiter.PacedSender` — the per-flow
  token-bucket rate limiter RCP* requires.
- :class:`~repro.endhost.flows.Flow` / :class:`~repro.endhost.flows.FlowSink`
  — a paced UDP flow with receiver-side goodput accounting.
"""

from repro.endhost.client import (
    ProbeRequest,
    ProbeWindowFull,
    RetryPolicy,
    TPPEndpoint,
    TPPResultView,
)
from repro.endhost.probes import PeriodicProber
from repro.endhost.rate_limiter import PacedSender
from repro.endhost.flows import Flow, FlowSink

__all__ = [
    "TPPEndpoint",
    "TPPResultView",
    "ProbeRequest",
    "ProbeWindowFull",
    "RetryPolicy",
    "PeriodicProber",
    "PacedSender",
    "Flow",
    "FlowSink",
]
