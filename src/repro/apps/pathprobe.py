"""Path probing with arithmetic TPPs and multi-packet scatter/gather.

Two techniques the paper sketches but does not spell out:

**Arithmetic folding.**  §2 allows instructions that "perform arithmetic
using data on the ASIC registers"; MIN/MAX fold a whole path's state into
*one word* of packet memory, independent of hop count:

    MIN [Packet:0], [Link:CapacityMbps]   ; narrowest link on the path
    MAX [Packet:1], [Queue:QueueSize]     ; deepest queue on the path

A stack-addressed query needs ``words x hops`` of preallocated memory;
the folded version needs two words for any path length — the difference
matters because packet memory is the scarce resource (§3.3's 40 B/hop).

**Scatter/gather.**  "End-hosts can use multiple packets if a single
packet is insufficient for a network task" (§3.2).  The
:class:`SwitchInventory` task first discovers the path (one PUSH TPP),
then scatters one CEXEC-gated TPP per switch, each collecting that
switch's global registers into absolute-addressed packet memory, and
gathers the responses into a per-switch report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.core.assembler import assemble
from repro.endhost.client import TPPEndpoint, TPPResultView

FOLD_PROGRAM = """
.mode absolute
.memory 2
.data 0 0xFFFFFFFF          ; MIN identity
.data 1 0x0                 ; MAX identity
MIN [Packet:0], [Link:CapacityMbps]
MAX [Packet:1], [Queue:QueueSize]
"""

DISCOVER_PROGRAM = "PUSH [Switch:SwitchID]"

INVENTORY_PROGRAM = """
.mode absolute
.memory 5
CEXEC [Switch:SwitchID], 0xFFFFFFFF, $TargetSwitch
LOAD [Switch:L2TableEntries], [Packet:0]
LOAD [Switch:TCAMEntries], [Packet:1]
LOAD [Switch:PacketsSwitched], [Packet:2]
LOAD [Switch:TPPsExecuted], [Packet:3]
"""


@dataclass
class PathSummary:
    """What one folded probe learned about a path."""

    bottleneck_capacity_mbps: int
    max_queue_bytes: int


class PathBottleneckProbe:
    """One-word-per-statistic path characterization via MIN/MAX."""

    def __init__(self, endpoint: TPPEndpoint, dst_mac: int) -> None:
        self.endpoint = endpoint
        self.dst_mac = dst_mac
        self.program = assemble(FOLD_PROGRAM)

    def probe(self, on_summary: Callable[[PathSummary], None]) -> None:
        """Send one probe; the callback gets the folded path summary."""

        def on_response(result: TPPResultView) -> None:
            on_summary(PathSummary(
                bottleneck_capacity_mbps=result.word(0),
                max_queue_bytes=result.word(1),
            ))

        self.endpoint.send(self.program, dst_mac=self.dst_mac,
                           on_response=on_response)


@dataclass
class SwitchReport:
    """Global registers gathered from one switch."""

    switch_id: int
    l2_entries: int
    tcam_entries: int
    packets_switched: int
    tpps_executed: int


class SwitchInventory:
    """Scatter/gather collection of every path switch's global state."""

    def __init__(self, endpoint: TPPEndpoint, dst_mac: int,
                 max_hops: int = 8) -> None:
        self.endpoint = endpoint
        self.dst_mac = dst_mac
        self.max_hops = max_hops
        self.reports: Dict[int, SwitchReport] = {}
        #: Assembled once; rebound to each switch the path discovers.
        self.inventory_program = assemble(
            INVENTORY_PROGRAM, symbols={"TargetSwitch": 0})
        self._on_complete: Optional[Callable[[Dict[int, SwitchReport]],
                                             None]] = None
        self._outstanding = 0

    def collect(self, on_complete: Callable[[Dict[int, SwitchReport]],
                                            None]) -> None:
        """Discover the path, then scatter one inventory TPP per switch."""
        self._on_complete = on_complete
        discover = assemble(DISCOVER_PROGRAM, hops=self.max_hops)
        self.endpoint.send(discover, dst_mac=self.dst_mac,
                           on_response=self._on_path)

    def _on_path(self, result: TPPResultView) -> None:
        switch_ids = [words[0] for words in result.per_hop_words()]
        if not switch_ids:
            self._finish()
            return
        self._outstanding = len(switch_ids)
        for switch_id in switch_ids:
            self.endpoint.send(
                self.inventory_program.rebind({"TargetSwitch": switch_id}),
                dst_mac=self.dst_mac,
                on_response=lambda r, sid=switch_id:
                self._on_inventory(sid, r))

    def _on_inventory(self, switch_id: int,
                      result: TPPResultView) -> None:
        self.reports[switch_id] = SwitchReport(
            switch_id=switch_id,
            l2_entries=result.word(0),
            tcam_entries=result.word(1),
            packets_switched=result.word(2),
            tpps_executed=result.word(3),
        )
        self._outstanding -= 1
        if self._outstanding == 0:
            self._finish()

    def _finish(self) -> None:
        if self._on_complete is not None:
            callback, self._on_complete = self._on_complete, None
            callback(dict(self.reports))
