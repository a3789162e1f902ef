"""The paper's three network tasks, plus baselines.

- :mod:`repro.apps.microburst` -- Section 2.1: per-packet queue-size
  telemetry and micro-burst detection, with the coarse control-plane
  poller it beats.
- :mod:`repro.apps.rcp` -- Section 2.2: RCP*, the end-host RCP built from
  collect/compute/update TPP phases.
- :mod:`repro.apps.rcp_router` -- the in-network RCP baseline (equivalent
  of the paper's ns-2 simulation) used as Figure 2's reference curve.
- :mod:`repro.apps.ndb` -- Section 2.3: the forwarding-plane debugger:
  per-packet path/rule traces, reassembly, and policy verification.
"""
