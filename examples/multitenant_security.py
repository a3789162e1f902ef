#!/usr/bin/env python
"""Edge security in a multi-tenant network (paper §4).

"In multi-tenant or untrusted environments such as public cloud
datacenters, the ingress switches at the network edge can strip TPPs
injected by VMs."

One switch, four hosts: ``ops`` and ``collector`` (the operator's
monitoring boxes, trusted) and two tenants.  Tenant ports are marked
untrusted with the strip policy.  The operator's probes work; a tenant's
probes are silently removed while the tenant's *data* keeps flowing; SRAM
isolation stops a task from touching another task's registers even from
a trusted port.  Finally the tenant ports move behind the static
verifier: a tenant's provably-safe probe executes, an unsafe one is
stripped.

Run:  python examples/multitenant_security.py
"""

from repro import units
from repro.control.agent import ControlPlaneAgent
from repro.control.security import EdgeTPPPolicy, VerifierPolicy
from repro.core import assemble
from repro.core.exceptions import FaultCode
from repro.core.memory_map import MemoryMap
from repro.core.verifier import verify_section
from repro.endhost.client import TPPEndpoint
from repro.net.packet import Datagram, RawPayload
from repro.net.routing import install_shortest_path_routes
from repro.net.topology import TopologyBuilder

net = TopologyBuilder(rate_bps=units.GIGABITS_PER_SEC).star(4)
install_shortest_path_routes(net)
ops, tenant_a, tenant_b, collector = (net.host(f"h{i}") for i in range(4))
switch = net.switch("sw0")
for host in (ops, tenant_a, tenant_b, collector):
    host.tpp = TPPEndpoint(host)

# --- edge policy: tenant-facing ports are untrusted --------------------------
policy = EdgeTPPPolicy(untrusted_action="strip")
adjacency = net.adjacency()["sw0"]
for local_port, peer, _ in adjacency:
    if peer in ("h1", "h2"):  # the tenants
        policy.mark_untrusted("sw0", local_port)
switch.tpp_policy = policy

# --- task isolation: monitoring owns SRAM words, tenants' tasks do not ------
agent = ControlPlaneAgent([switch], memory_map=MemoryMap.standard(),
                          enforce_isolation=True)
monitoring = agent.create_task("monitoring")
tenant_task = agent.create_task("tenant-app")
agent.allocate_sram("monitoring", "heartbeat")

# 1) The operator's probe executes normally.
ops_results = []
ops.tpp.send(assemble("PUSH [Queue:QueueSize]"), dst_mac=collector.mac,
             task_id=monitoring.task_id, on_response=ops_results.append)
net.run(until_seconds=0.01)
print(f"[ops]      probe executed on {ops_results[0].hops()} switch(es) "
      f"-> queue = {ops_results[0].word(0)} bytes")

# 2) A tenant's probe is stripped at the edge: no response ever returns.
tenant_results = []
tenant_a.tpp.send(assemble("PUSH [Queue:QueueSize]"), dst_mac=tenant_b.mac,
                  on_response=tenant_results.append)
net.run(until_seconds=0.02)
print(f"[tenant-a] probe responses: {len(tenant_results)} "
      f"(stripped at the edge: {switch.tpps_stripped})")

# 3) ... but the tenant's ordinary traffic is untouched.
delivered = []
tenant_b.on_udp_port(7, lambda d, f: delivered.append(d))
inner = Datagram(tenant_a.ip, tenant_b.ip, 5, 7, RawPayload(64))
executed_before = switch.tcpu.tpps_executed
tenant_a.tpp.send(assemble("PUSH [Queue:QueueSize]"),
                  dst_mac=tenant_b.mac, payload=inner)
net.run(until_seconds=0.03)
print(f"[tenant-a] TPP-wrapped data packet: payload delivered = "
      f"{len(delivered) == 1}, its TPP executed = "
      f"{switch.tcpu.tpps_executed > executed_before}")

# 4) SRAM isolation: a TPP carrying the tenant task id faults when it
#    touches the monitoring task's SRAM word (even from the trusted port).
fault_results = []
ops.tpp.send(assemble(".memory 1\nSTORE [Sram:Word0], [Packet:0]"),
             dst_mac=collector.mac, task_id=tenant_task.task_id,
             on_response=fault_results.append)
net.run(until_seconds=0.04)
fault = fault_results[0].fault
print(f"[isolation] foreign-task STORE to monitoring SRAM -> fault "
      f"{fault.name} (write blocked: "
      f"{switch.mmu.peek_sram(0) == 0})")

assert fault == FaultCode.SRAM_PROTECTION

# 5) Verify instead of strip: the tenant ports now admit any TPP the
#    static verifier proves safe.  Responses return through the trusted
#    collector port, so only the tenant's two sends are verified.
verifier = VerifierPolicy(untrusted_action="strip")
for local_port, peer, _ in adjacency:
    if peer in ("h1", "h2"):
        verifier.mark_untrusted("sw0", local_port)
switch.tpp_policy = verifier
certificates_before = switch.tcpu.certificates
verified_results = []
tenant_a.tpp.send(assemble("PUSH [Switch:SwitchID]"), dst_mac=collector.mac,
                  on_response=verified_results.append)
tenant_a.tpp.send(assemble("POP [Sram:Word0]"), dst_mac=collector.mac,
                  on_response=verified_results.append)
net.run(until_seconds=0.05)
print(f"[verifier] tenant TPPs verified = {verifier.tpps_verified}, "
      f"admitted = {verifier.tpps_admitted}, "
      f"rejected = {verifier.tpps_rejected}; safe probe executed on "
      f"{verified_results[0].hops()} switch(es), certificates trusted = "
      f"{switch.tcpu.certificates - certificates_before}")

assert (verifier.tpps_verified, verifier.tpps_admitted,
        verifier.tpps_rejected) == (2, 1, 1)
assert len(verified_results) == 1 and verified_results[0].hops() == 1
assert switch.tcpu.certificates == certificates_before + 1

# 6) Retire and re-trust: a repeat of the safe probe reuses its verdict
#    (no second analysis); the operator then revokes its certificate on
#    the switch and re-trusts tenant A's port.
tenant_a.tpp.send(assemble("PUSH [Switch:SwitchID]"), dst_mac=collector.mac,
                  on_response=verified_results.append)
net.run(until_seconds=0.06)
probe = verify_section(assemble("PUSH [Switch:SwitchID]").build())
retired = verifier.revoke(probe.certificate, switch)
tenant_a_port = next(local for local, peer, _ in adjacency if peer == "h1")
verifier.mark_trusted("sw0", tenant_a_port)
print(f"[lifecycle] repeat probe executed on "
      f"{verified_results[-1].hops()} switch(es) with "
      f"{verifier.tpps_verified} verifications in all; certificate "
      f"retired = {retired}, race-table members = "
      f"{len(switch.tcpu.fleet)}, tenant A port untrusted = "
      f"{verifier.is_untrusted('sw0', tenant_a_port)}")

assert verifier.tpps_verified == 2 and len(verified_results) == 2
assert retired and switch.tcpu.certificates == certificates_before
assert not verifier.is_untrusted("sw0", tenant_a_port)

# The switch kept warning-level evidence of every TPP it stripped.
stripped = net.trace.records(kind="tpp.stripped")
print(f"[trace] {len(stripped)} tpp.stripped record(s) of "
      f"{len(net.trace)} kept, all at "
      f"{sorted({record.source for record in stripped})}")
assert stripped and {record.source for record in stripped} == {"sw0"}
print("\nEdge stripping, static verification and per-task SRAM domains "
      "give the operator the controls §4 calls for.")
