"""Forwarding tables: L2 exact match, L3 longest-prefix match, and TCAM.

The pipeline consults them in the priority order of Figure 3 — TCAM first
(it holds operator overrides and is what the ndb experiment uses to inject
a misbehaving rule), then the L2 hash table, then the L3 LPM table.

Every installed entry carries a switch-unique ``entry_id`` and a
monotonically increasing ``version`` stamp.  This is precisely the hook the
ndb debugger of §2.3 relies on ("stamping each flow entry with a unique
version number"): re-installing a route creates a new version, and packets
record the version of the entry that actually forwarded them, so end-hosts
can detect packets forwarded by stale rules.

``TPPSwitch._ingress_metadata``, the one per-packet caller, reads
``Tcam._rules``, ``L2Table._entries`` and :attr:`L2Entry.results` in place;
the ``lookup`` methods state the same decisions for every other caller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.asic.parser import ParsedHeaders
from repro.errors import ConfigurationError

#: Sentinel out_port meaning "drop the packet" in a TCAM action.
DROP = -1


class EntryAllocator:
    """Per-switch source of unique entry ids and version stamps."""

    def __init__(self) -> None:
        self._entry_ids = itertools.count(1)
        self._versions = itertools.count(1)
        self.last_version = 0

    def next_entry_id(self) -> int:
        return next(self._entry_ids)

    def next_version(self) -> int:
        self.last_version = next(self._versions)
        return self.last_version


@dataclass(frozen=True)
class LookupResult:
    """Outcome of a forwarding lookup."""

    out_port: int
    entry_id: int
    version: int
    table: str
    alternate_routes: int = 0
    queue_id: Optional[int] = None  # TCAM set-queue action, if any

    @property
    def is_drop(self) -> bool:
        return self.out_port == DROP


@dataclass
class L2Entry:
    """One unicast MAC entry, possibly with ECMP alternates."""

    dst_mac: int
    out_ports: List[int]
    entry_id: int
    version: int
    #: The (frozen) decision per next hop, index-aligned with
    #: ``out_ports``: built when the next hops change and shared by every
    #: matching packet, not rebuilt per packet.
    results: Tuple[LookupResult, ...] = field(init=False, repr=False,
                                              compare=False)

    def __post_init__(self) -> None:
        self.refresh_results()

    def refresh_results(self) -> None:
        """Rebuild :attr:`results` after ``out_ports`` changed."""
        self.results = tuple(
            LookupResult(out_port, self.entry_id, self.version, "l2",
                         alternate_routes=len(self.out_ports) - 1)
            for out_port in self.out_ports)


class L2Table:
    """Exact-match table on destination MAC."""

    def __init__(self, allocator: EntryAllocator) -> None:
        self._allocator = allocator
        self._entries: Dict[int, L2Entry] = {}
        self.table_version = 0
        #: Per-entry match counters (Table 2: "counters associated with
        #: the global L2 or L3 flow tables").
        self.hit_counts: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def install(self, dst_mac: int, out_port: int) -> L2Entry:
        """Install (or replace) the route for a MAC.

        Replacement allocates a fresh entry id and version — the ndb
        experiments distinguish pre- and post-update packets by it.
        """
        entry = L2Entry(dst_mac=dst_mac, out_ports=[out_port],
                        entry_id=self._allocator.next_entry_id(),
                        version=self._allocator.next_version())
        self._entries[dst_mac] = entry
        self.table_version = entry.version
        return entry

    def add_alternate(self, dst_mac: int, out_port: int) -> L2Entry:
        """Add an ECMP alternate next-hop for an already-routed MAC."""
        entry = self._entries.get(dst_mac)
        if entry is None:
            raise ConfigurationError(
                f"no route for MAC {dst_mac:#x} to add an alternate to")
        if out_port not in entry.out_ports:
            entry.out_ports.append(out_port)
            entry.refresh_results()
        return entry

    def remove(self, dst_mac: int) -> None:
        """Delete a MAC route (no-op if absent)."""
        if self._entries.pop(dst_mac, None) is not None:
            self.table_version = self._allocator.next_version()

    def lookup(self, dst_mac: int,
               flow_hash: Optional[int] = None) -> Optional[LookupResult]:
        """Forwarding decision for a MAC.

        When the entry has ECMP alternates and a ``flow_hash`` is given,
        the next hop is picked by hash — packets of one flow stay on one
        path (no reordering) while flows spread across the candidates.
        """
        entry = self._entries.get(dst_mac)
        if entry is None:
            return None
        self.hit_counts[entry.entry_id] = self.hit_counts.get(
            entry.entry_id, 0) + 1
        return entry.results[(flow_hash or 0) % len(entry.results)]

    def entry_for(self, dst_mac: int) -> Optional[L2Entry]:
        """The live entry for a MAC (controller-side inspection)."""
        return self._entries.get(dst_mac)


@dataclass
class L3Entry:
    """One IPv4 prefix route."""

    prefix: int
    prefix_len: int
    out_port: int
    entry_id: int
    version: int

    def matches(self, address: int) -> bool:
        if self.prefix_len == 0:
            return True
        shift = 32 - self.prefix_len
        return (address >> shift) == (self.prefix >> shift)


class L3Table:
    """Longest-prefix-match table on destination IPv4 address."""

    def __init__(self, allocator: EntryAllocator) -> None:
        self._allocator = allocator
        self._entries: List[L3Entry] = []
        self.hit_counts: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def install(self, prefix: int, prefix_len: int, out_port: int) -> L3Entry:
        """Install a prefix route (replaces an identical prefix)."""
        if not 0 <= prefix_len <= 32:
            raise ConfigurationError(f"bad prefix length {prefix_len}")
        self._entries = [e for e in self._entries
                         if (e.prefix, e.prefix_len) != (prefix, prefix_len)]
        entry = L3Entry(prefix=prefix, prefix_len=prefix_len,
                        out_port=out_port,
                        entry_id=self._allocator.next_entry_id(),
                        version=self._allocator.next_version())
        self._entries.append(entry)
        # Longest prefixes first so lookup can return the first match.
        self._entries.sort(key=lambda e: -e.prefix_len)
        return entry

    def lookup(self, dst_ip: Optional[int]) -> Optional[LookupResult]:
        if dst_ip is None:
            return None
        for entry in self._entries:
            if entry.matches(dst_ip):
                self.hit_counts[entry.entry_id] = self.hit_counts.get(
                    entry.entry_id, 0) + 1
                return LookupResult(out_port=entry.out_port,
                                    entry_id=entry.entry_id,
                                    version=entry.version, table="l3")
        return None


@dataclass
class TcamRule:
    """A ternary rule: any field left ``None`` is a wildcard.

    ``queue_id`` is an optional set-queue action: matching packets are
    placed in that egress queue (traffic classing for the priority/DRR
    schedulers).
    """

    priority: int
    out_port: int
    queue_id: Optional[int] = None
    in_port: Optional[int] = None
    ethertype: Optional[int] = None
    src_mac: Optional[int] = None
    dst_mac: Optional[int] = None
    src_ip: Optional[int] = None
    dst_ip: Optional[int] = None
    ip_protocol: Optional[int] = None
    src_port: Optional[int] = None
    dst_port: Optional[int] = None
    entry_id: int = 0
    version: int = 0

    def matches(self, headers: ParsedHeaders, in_port: int) -> bool:
        checks = (
            (self.in_port, in_port),
            (self.ethertype, headers.ethertype),
            (self.src_mac, headers.src_mac),
            (self.dst_mac, headers.dst_mac),
            (self.src_ip, headers.src_ip),
            (self.dst_ip, headers.dst_ip),
            (self.ip_protocol, headers.ip_protocol),
            (self.src_port, headers.src_port),
            (self.dst_port, headers.dst_port),
        )
        return all(want is None or want == got for want, got in checks)


class Tcam:
    """Priority-ordered ternary matching (highest priority wins)."""

    def __init__(self, allocator: EntryAllocator,
                 capacity: int = 1024) -> None:
        self._allocator = allocator
        self.capacity = capacity
        self._rules: List[TcamRule] = []
        self.hit_counts: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._rules)

    def install(self, rule: TcamRule) -> TcamRule:
        """Install a rule; stable order among equal priorities."""
        if len(self._rules) >= self.capacity:
            raise ConfigurationError(
                f"TCAM full ({self.capacity} rules)")
        if rule.queue_id is not None and rule.queue_id < 0:
            raise ConfigurationError(
                f"set-queue id must be >= 0, got {rule.queue_id}")
        rule.entry_id = self._allocator.next_entry_id()
        rule.version = self._allocator.next_version()
        self._rules.append(rule)
        self._rules.sort(key=lambda r: -r.priority)
        return rule

    def remove(self, entry_id: int) -> bool:
        """Remove a rule by entry id; returns whether it existed."""
        before = len(self._rules)
        self._rules = [r for r in self._rules if r.entry_id != entry_id]
        return len(self._rules) != before

    def lookup(self, headers: ParsedHeaders,
               in_port: int) -> Optional[LookupResult]:
        for rule in self._rules:
            if rule.matches(headers, in_port):
                self.hit_counts[rule.entry_id] = self.hit_counts.get(
                    rule.entry_id, 0) + 1
                return LookupResult(out_port=rule.out_port,
                                    entry_id=rule.entry_id,
                                    version=rule.version, table="tcam",
                                    queue_id=rule.queue_id)
        return None
