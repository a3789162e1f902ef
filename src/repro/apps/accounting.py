"""Traffic accounting on switch SRAM — the consistency-critical task.

§2.2 singles accounting out as the kind of network task where write races
*do* matter ("while this is a legitimate concern for network tasks such
as accounting...").  This module implements a cooperative accounting
scheme on the TPP substrate:

- the control-plane agent gives every registered sender one SRAM word on
  the switch being audited (its *ledger slot*);
- each sender periodically publishes its cumulative transmitted bytes
  into its own slot with a plain ``STORE`` TPP — single-writer slots, so
  no synchronization is needed (the design dodge that makes racy
  hardware safe);
- an auditor probes all slots plus the audited port's own
  ``Link:BytesTransmitted`` counter and reconciles: bytes the switch
  forwarded but nobody claimed are *unattributed* — a misbehaving or
  unregistered sender.

The audit is approximate by nature (publication lag), which is exactly
the paper's point: periodic end-host writes give accounting at RTT
granularity without any per-packet ASIC counters beyond what exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.control.agent import ControlPlaneAgent
from repro.core.assembler import AssembledProgram, assemble
from repro.core.memory_map import SRAM_BASE
from repro.endhost.client import TPPEndpoint, TPPResultView
from repro.endhost.flows import Flow
from repro.net.host import Host
from repro.sim.timers import PeriodicTimer

PUBLISH_PROGRAM = """
.memory 1
.data 0 $TxBytes
CEXEC [Switch:SwitchID], 0xFFFFFFFF, $AuditedSwitch
STORE [{slot}], [Packet:0]
"""

AUDIT_PROGRAM_HEADER = ".mode absolute\n"


@dataclass
class AuditReport:
    """One reconciliation pass."""

    time_ns: int
    forwarded_bytes: int
    attributed_bytes: int

    @property
    def unattributed_bytes(self) -> int:
        return max(0, self.forwarded_bytes - self.attributed_bytes)

    @property
    def attribution_fraction(self) -> float:
        if self.forwarded_bytes == 0:
            return 1.0
        return min(1.0, self.attributed_bytes / self.forwarded_bytes)


class TrafficLedger:
    """Network-wide setup: slots on the audited switch."""

    def __init__(self, agent: ControlPlaneAgent, audited_switch,
                 task_name: str = "accounting") -> None:
        self.agent = agent
        self.audited_switch = audited_switch
        self.task = agent.create_task(task_name)
        self.task_name = task_name
        self._slots: Dict[str, int] = {}  # publisher name -> sram word

    def register_sender(self, name: str) -> int:
        """Allocate a ledger slot; returns its virtual address."""
        vaddr = self.agent.allocate_sram(self.task_name, f"slot-{name}")
        self._slots[name] = vaddr - SRAM_BASE
        return vaddr

    def slot_vaddr(self, name: str) -> int:
        return SRAM_BASE + self._slots[name]

    def slot_names(self) -> List[str]:
        return list(self._slots)


class LedgerPublisher:
    """Sender side: periodically STOREs cumulative tx bytes to its slot."""

    def __init__(self, ledger: TrafficLedger, name: str, host: Host,
                 dst_mac: int, tx_bytes_fn: Callable[[], int],
                 interval_ns: int = 10_000_000) -> None:
        self.ledger = ledger
        self.host = host
        self.dst_mac = dst_mac
        self.tx_bytes_fn = tx_bytes_fn
        endpoint = getattr(host, "tpp", None)
        if endpoint is None:
            endpoint = TPPEndpoint(host)
            host.tpp = endpoint
        self.endpoint = endpoint
        slot_vaddr = ledger.register_sender(name)
        # Assembled once; each publish rebinds the two values it carries.
        self._program = assemble(
            PUBLISH_PROGRAM.format(slot=f"0x{slot_vaddr:04X}"),
            memory_map=ledger.agent.memory_map,
            symbols={"TxBytes": 0, "AuditedSwitch": 0})
        self._timer = PeriodicTimer(host.sim, interval_ns, self._publish)
        self.publishes = 0

    def start(self) -> None:
        """Begin publishing."""
        self._timer.start(first_delay_ns=1)

    def stop(self) -> None:
        """Stop publishing (the last published value persists)."""
        self._timer.stop()

    def _publish(self) -> None:
        program = self._program.rebind({
            "TxBytes": self.tx_bytes_fn() & 0xFFFF_FFFF,
            "AuditedSwitch": self.ledger.audited_switch.switch_id,
        })
        self.publishes += 1
        self.endpoint.send(program, dst_mac=self.dst_mac,
                           task_id=self.ledger.task.task_id)


class LedgerAuditor:
    """Auditor side: reconciles claimed bytes against the port counter."""

    def __init__(self, ledger: TrafficLedger, host: Host, dst_mac: int,
                 audited_port_index: int,
                 interval_ns: int = 50_000_000) -> None:
        self.ledger = ledger
        self.host = host
        self.dst_mac = dst_mac
        self.audited_port_index = audited_port_index
        endpoint = getattr(host, "tpp", None)
        if endpoint is None:
            endpoint = TPPEndpoint(host)
            host.tpp = endpoint
        self.endpoint = endpoint
        self.reports: List[AuditReport] = []
        self._timer = PeriodicTimer(host.sim, interval_ns, self._audit)
        self._baseline_forwarded: Optional[int] = None
        #: The audit program, re-assembled only when the slots change.
        self._program: Optional[AssembledProgram] = None

    def start(self) -> None:
        """Begin periodic audits."""
        self._timer.start()

    def stop(self) -> None:
        """Stop auditing."""
        self._timer.stop()

    def _audit(self) -> None:
        # One probe reads every slot plus the forwarded-bytes counter.
        # The whole program is CEXEC-gated to the audited switch (the
        # slots on other switches were never written), and the probe's
        # path must egress the audited port there so the Link counter
        # resolves against it.  The 5-instruction budget caps one audit
        # probe at 3 slots; larger ledgers scatter over several probes
        # exactly like repro.apps.pathprobe.SwitchInventory.
        names = self.ledger.slot_names()
        lines = [AUDIT_PROGRAM_HEADER]
        lines.append(f".memory {len(names) + 1}")
        lines.append("CEXEC [Switch:SwitchID], 0xFFFFFFFF, $AuditedSwitch")
        for index, name in enumerate(names):
            vaddr = self.ledger.slot_vaddr(name)
            lines.append(f"LOAD [0x{vaddr:04X}], [Packet:{index}]")
        lines.append(f"LOAD [Link:BytesTransmitted], "
                     f"[Packet:{len(names)}]")
        source = "\n".join(lines)
        if self._program is None or self._program.source != source:
            self._program = assemble(
                source, memory_map=self.ledger.agent.memory_map,
                symbols={"AuditedSwitch": 0})
        program = self._program.rebind(
            {"AuditedSwitch": self.ledger.audited_switch.switch_id})
        self.endpoint.send(program, dst_mac=self.dst_mac,
                           task_id=self.ledger.task.task_id,
                           on_response=self._on_result)

    def _on_result(self, result: TPPResultView) -> None:
        names = self.ledger.slot_names()
        attributed = sum(result.word(index)
                         for index in range(len(names)))
        forwarded = result.word(len(names))
        if self._baseline_forwarded is None:
            # Ignore traffic from before the ledger existed.
            self._baseline_forwarded = forwarded - attributed
        self.reports.append(AuditReport(
            time_ns=result.time_ns,
            forwarded_bytes=forwarded - self._baseline_forwarded,
            attributed_bytes=attributed))


def attach_flow_publisher(ledger: TrafficLedger, name: str, flow: Flow,
                          dst_mac: int,
                          interval_ns: int = 10_000_000) -> LedgerPublisher:
    """Publisher for a Flow: claims the flow's cumulative sent bytes."""
    return LedgerPublisher(ledger, name, flow.src, dst_mac,
                           tx_bytes_fn=lambda: flow.bytes_sent,
                           interval_ns=interval_ns)
