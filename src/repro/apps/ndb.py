"""ndb — the forwarding-plane debugger of §2.3.

"Using TPPs, end-hosts can get the same level of visibility as ndb by
having a trusted entity insert the TPP shown below on all its packets."

Pieces:

- :class:`NdbTagger` — the trusted entity: wraps every data packet of a
  flow in the trace TPP (hop-addressed, one record per switch)::

      LOAD [Switch:ID],                        [Packet:Hop[0]]
      LOAD [PacketMetadata:MatchedEntryID],    [Packet:Hop[1]]
      LOAD [PacketMetadata:MatchedEntryVersion], [Packet:Hop[2]]
      LOAD [PacketMetadata:InputPort],         [Packet:Hop[3]]

  (the paper's listing uses three PUSHes; we also record the entry version
  because versions are how ndb detects packets forwarded by stale rules —
  and hop addressing exercises §3.2.2's base:offset scheme).

- :class:`NdbCollector` — the reassembly servers: taps the receiver's TPP
  endpoint and turns every arriving packet into a :class:`PacketJourney`
  "to present a unified view of a packet's journey through the network",
  while the encapsulated datagram is delivered to the application
  untouched (no packet copies needed — the advantage over ndb [8]).

- :class:`PathVerifier` — checks each journey against the controller's
  *intended* forwarding state and reports typed violations: a packet that
  took the wrong path, matched a stale (old-version) rule, or matched a
  rule the controller never installed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.assembler import AssembledProgram, assemble
from repro.core.tpp import TPPSection
from repro.endhost.client import TPPEndpoint
from repro.endhost.flows import Flow
from repro.net.host import Host
from repro.net.packet import ETHERTYPE_TPP, EthernetFrame

TRACE_PROGRAM = """
.mode hop
LOAD [Switch:ID], [Packet:Hop[0]]
LOAD [PacketMetadata:MatchedEntryID], [Packet:Hop[1]]
LOAD [PacketMetadata:MatchedEntryVersion], [Packet:Hop[2]]
LOAD [PacketMetadata:InputPort], [Packet:Hop[3]]
"""

WORDS_PER_HOP = 4


@dataclass(frozen=True)
class HopRecord:
    """What one switch recorded about one packet.

    ``gap`` marks a hop the packet *executed on* but whose record could
    not be recovered (the trace arrived truncated — e.g. corrupted in
    flight).  Gap records carry ``-1`` in every field; consumers must not
    interpret them as observations.
    """

    switch_id: int
    entry_id: int
    entry_version: int
    input_port: int
    gap: bool = False


#: Placeholder for a hop whose record was lost with the truncated tail.
GAP_HOP = HopRecord(switch_id=-1, entry_id=-1, entry_version=-1,
                    input_port=-1, gap=True)


@dataclass
class PacketJourney:
    """The reassembled view of one packet's trip through the network."""

    frame_uid: int
    received_at_ns: int
    hops: List[HopRecord] = field(default_factory=list)

    def switch_ids(self) -> List[int]:
        """The switches traversed, in order (``-1`` for gap hops)."""
        return [hop.switch_id for hop in self.hops]

    def has_gaps(self) -> bool:
        """Whether any hop record was lost to truncation/corruption."""
        return any(hop.gap for hop in self.hops)


def trace_program(hops: int = 8) -> AssembledProgram:
    """Assemble the ndb trace TPP."""
    return assemble(TRACE_PROGRAM, hops=hops)


class NdbTagger:
    """Wraps a flow's data packets in the trace TPP (the trusted entity)."""

    def __init__(self, hops: int = 8, task_id: int = 0) -> None:
        self.program = trace_program(hops)
        self.task_id = task_id
        self.packets_tagged = 0

    def attach(self, flow: Flow) -> None:
        """Make the flow emit TPP-wrapped frames from now on."""
        flow.frame_factory = self._make_frame

    def _make_frame(self, flow: Flow, packet_bytes: int) -> EthernetFrame:
        tpp_overhead = (12 + 4 * self.program.n_instructions
                        + self.program.memory_bytes)
        datagram = flow.make_datagram(packet_bytes, shim_bytes=tpp_overhead)
        tpp = self.program.build(payload=datagram, task_id=self.task_id)
        self.packets_tagged += 1
        return EthernetFrame(dst=flow.dst_mac, src=flow.src.mac,
                             ethertype=ETHERTYPE_TPP, payload=tpp)


class NdbCollector:
    """Receiver-side journey reassembly.

    ``task_id`` filters the endpoint's TPP stream to the ndb task's own
    packets — essential when other tasks' TPPs (probes, profilers) also
    terminate at this host.  ``None`` collects everything (fine for
    single-task experiments).
    """

    def __init__(self, host: Host, task_id: Optional[int] = None) -> None:
        endpoint = getattr(host, "tpp", None)
        if endpoint is None:
            endpoint = TPPEndpoint(host)
            host.tpp = endpoint
        self.host = host
        self.task_id = task_id
        self.journeys: List[PacketJourney] = []
        self.truncated_traces = 0
        endpoint.add_tap(self._on_tpp)

    def _on_tpp(self, tpp: TPPSection, frame: EthernetFrame) -> None:
        if self.task_id is not None and tpp.task_id != self.task_id:
            return
        journey = PacketJourney(frame_uid=frame.uid,
                                received_at_ns=self.host.sim.now_ns)
        word = tpp.word_size
        perhop = tpp.perhop_len_bytes
        record_bytes = WORDS_PER_HOP * word
        words = tpp.words()
        truncated = False
        # The hop counter says how many switches executed the TPP; the
        # memory says how many records survived the trip.  A trace whose
        # memory arrived truncated gets explicit gap markers for the tail
        # instead of being mis-assembled (or crashing its reader); so
        # does a record a hostile per-hop length leaves off a word
        # boundary.
        for hop in range(tpp.hops_executed()):
            base = hop * perhop
            if base % word or base + record_bytes > len(tpp.memory):
                journey.hops.append(GAP_HOP)
                truncated = True
                continue
            first = base // word
            journey.hops.append(
                HopRecord(*words[first:first + WORDS_PER_HOP]))
        if truncated:
            self.truncated_traces += 1
        self.journeys.append(journey)


@dataclass(frozen=True)
class Violation:
    """One detected mismatch between intent and observed forwarding."""

    kind: str  # "wrong-path" | "stale-rule" | "unknown-rule" | "trace-gap"
    frame_uid: int
    switch_id: Optional[int] = None
    detail: str = ""


class PathVerifier:
    """Checks journeys against the controller's intended state.

    ``expected_path`` is the intended sequence of switch ids for the flow
    under test; ``current_entries`` maps switch id -> the (entry_id,
    version) the controller believes is forwarding this flow's packets on
    that switch.  Journeys recorded *before* the last policy change can be
    excluded with ``since_ns``.
    """

    def __init__(self, expected_path: Sequence[int],
                 current_entries: Dict[int, Tuple[int, int]]) -> None:
        self.expected_path = list(expected_path)
        self.current_entries = dict(current_entries)

    def verify(self, journeys: Sequence[PacketJourney],
               since_ns: int = 0) -> List[Violation]:
        """All violations across the given journeys."""
        violations: List[Violation] = []
        for journey in journeys:
            if journey.received_at_ns < since_ns:
                continue
            violations.extend(self.verify_one(journey))
        return violations

    def verify_one(self, journey: PacketJourney) -> List[Violation]:
        """Violations for a single packet.

        A journey with gap hops (truncated trace) yields a ``trace-gap``
        violation and no path verdict: the evidence is incomplete, and
        reporting "wrong path" off a damaged trace would page an operator
        for a link impairment.  Hops that *did* survive are still checked
        against the controller's rules.
        """
        violations: List[Violation] = []
        observed = journey.switch_ids()
        if journey.has_gaps():
            violations.append(Violation(
                kind="trace-gap", frame_uid=journey.frame_uid,
                detail=f"{sum(1 for h in journey.hops if h.gap)} of "
                       f"{len(journey.hops)} hop records lost; "
                       f"recovered path {observed}"))
        elif observed != self.expected_path:
            violations.append(Violation(
                kind="wrong-path", frame_uid=journey.frame_uid,
                detail=f"expected {self.expected_path}, took {observed}"))
        for hop in journey.hops:
            if hop.gap:
                continue
            intended = self.current_entries.get(hop.switch_id)
            if intended is None:
                continue  # switch not on the intended path; wrong-path
                # already covers it.
            entry_id, version = intended
            if hop.entry_id != entry_id:
                violations.append(Violation(
                    kind="unknown-rule", frame_uid=journey.frame_uid,
                    switch_id=hop.switch_id,
                    detail=f"matched entry {hop.entry_id}, controller "
                           f"installed {entry_id}"))
            elif hop.entry_version != version:
                violations.append(Violation(
                    kind="stale-rule", frame_uid=journey.frame_uid,
                    switch_id=hop.switch_id,
                    detail=f"entry {entry_id} at version "
                           f"{hop.entry_version}, expected {version}"))
        return violations
