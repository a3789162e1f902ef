"""Structured trace recording.

Devices emit :class:`TraceRecord` entries (queue drop, routing miss, TPP
executed, ...) into a shared :class:`TraceRecorder`; tests, benchmarks and
live taps consume them.

Trace levels and the hot-path guard
-----------------------------------

Every record kind has a :class:`TraceLevel`; the recorder stores records
whose level is at or above its threshold (default :attr:`TraceLevel.INFO`),
and taps see exactly the records it stores.  Hot callers must guard record
construction with :meth:`TraceRecorder.wants` so that building the
``**detail`` kwargs is skipped entirely when nobody listens::

    if trace.wants("switch.no_route"):
        trace.emit(now, name, "switch.no_route", frame_uid=frame.uid)

``wants`` is a single cached dict lookup after the first call per kind, and
just one attribute read when the recorder is disabled.  Firehose kinds
default to :attr:`TraceLevel.DEBUG`: the ``link.*`` impairment kinds and
the ones emitted per frame or per TPP hop (``link.deliver``,
``queue.enqueue``, and ``tpp.exec``, whose records snapshot a TPP's whole
packet memory).  The per-frame and per-hop emit sites test the plain
attribute :attr:`TraceRecorder.firehose` before ``wants``, so they cost one
attribute read unless a run opts in with
``trace.set_level(TraceLevel.DEBUG)`` or, for one kind,
``trace.set_kind_level("tpp.exec", TraceLevel.INFO)``.

For long runs, ``max_records`` bounds memory: the recorder becomes a ring
buffer keeping the most recent records (taps still see every stored record
live, so online consumers lose nothing).

Counters are the other half of observability: a class names its plain
counter attributes once, in a class-level ``COUNTERS`` tuple, and
:func:`snapshot` / :func:`merge` read and sum them.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional)


class TraceLevel(enum.IntEnum):
    """Severity/verbosity of a record kind (logging-style ordering)."""

    DEBUG = 10    #: per-frame firehose; off by default
    INFO = 20     #: normal operational records (default threshold)
    WARNING = 30  #: drops, faults, losses — rare and always interesting


#: Default level per record kind; kinds not listed here are INFO.
DEFAULT_KIND_LEVELS: Dict[str, TraceLevel] = {
    # Per-frame firehose (opt-in).  The link impairment kinds live here
    # too: under an injected loss_rate they fire on a fixed fraction of
    # *all* frames, which is firehose volume, not rare-event evidence.
    # So does tpp.exec: one record per TPP hop, each with a snapshot of
    # the whole packet memory.
    "link.deliver": TraceLevel.DEBUG,
    "queue.enqueue": TraceLevel.DEBUG,
    "tpp.exec": TraceLevel.DEBUG,
    "link.lost": TraceLevel.DEBUG,
    "link.corrupt": TraceLevel.DEBUG,
    "link.dup": TraceLevel.DEBUG,
    # Loss and fault evidence.
    "queue.drop": TraceLevel.WARNING,
    "switch.no_route": TraceLevel.WARNING,
    "switch.rule_drop": TraceLevel.WARNING,
    "tpp.dropped": TraceLevel.WARNING,
    "tpp.stripped": TraceLevel.WARNING,
    "host.undelivered": TraceLevel.WARNING,
}


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence.

    Attributes:
        time_ns: simulated time of the occurrence.
        source: name of the emitting device (e.g. ``"sw1"``).
        kind: short category string (e.g. ``"tpp.exec"``, ``"queue.drop"``).
        detail: free-form payload for the record.
    """

    time_ns: int
    source: str
    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)


class TraceRecorder:
    """Append-only in-memory trace with filtered views and live taps.

    A *tap* is a callback invoked synchronously on every stored record;
    a kind below the level is neither stored nor tapped.
    """

    def __init__(self, enabled: bool = True,
                 level: TraceLevel = TraceLevel.INFO,
                 max_records: Optional[int] = None) -> None:
        self.enabled = enabled
        self._level = TraceLevel(level)
        self._kind_levels: Dict[str, TraceLevel] = dict(DEFAULT_KIND_LEVELS)
        self._wants_cache: Dict[str, bool] = {}
        #: Whether any kind that defaults to DEBUG is at or above the
        #: threshold; per-frame and per-hop emit sites read it before
        #: :meth:`wants`.
        self.firehose = False
        self._levels_changed()
        self.max_records = max_records
        self._records: Any = (deque(maxlen=max_records)
                              if max_records is not None else [])
        self._taps: List[Callable[[TraceRecord], None]] = []
        #: Total records accepted (including ones later evicted by the ring).
        self.records_emitted = 0
        #: Records evicted by the ring buffer (0 in unbounded mode).
        self.records_dropped = 0

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------ #
    # Levels
    # ------------------------------------------------------------------ #

    @property
    def level(self) -> TraceLevel:
        """Minimum level a kind must have to be recorded."""
        return self._level

    def set_level(self, level: TraceLevel) -> None:
        """Change the recording threshold (e.g. DEBUG for the firehose)."""
        self._level = TraceLevel(level)
        self._levels_changed()

    def set_kind_level(self, kind: str, level: TraceLevel) -> None:
        """Override the level of one record kind.

        This is how a new trace kind is registered: pick a level here (or
        accept the INFO default) and guard the emit site with
        :meth:`wants` — no allocation happens unless the kind is wanted.
        """
        self._kind_levels[kind] = TraceLevel(level)
        self._levels_changed()

    def _levels_changed(self) -> None:
        self._wants_cache.clear()
        self.firehose = any(
            self._kind_levels[kind] >= self._level
            for kind, default in DEFAULT_KIND_LEVELS.items()
            if default is TraceLevel.DEBUG)

    def kind_level(self, kind: str) -> TraceLevel:
        """Effective level of a kind (INFO unless configured otherwise)."""
        return self._kind_levels.get(kind, TraceLevel.INFO)

    def wants(self, kind: str) -> bool:
        """Cheap fast-path guard: would a record of ``kind`` be stored?

        Hot callers check this before building ``**detail`` kwargs.
        """
        if not self.enabled:
            return False
        wanted = self._wants_cache.get(kind)
        if wanted is None:
            wanted = (self._kind_levels.get(kind, TraceLevel.INFO)
                      >= self._level)
            self._wants_cache[kind] = wanted
        return wanted

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def emit(self, time_ns: int, source: str, kind: str,
             **detail: Any) -> None:
        """Record one occurrence (no-op when disabled or below level)."""
        if not self.wants(kind):
            return
        record = TraceRecord(time_ns, source, kind, detail)
        self.records_emitted += 1
        records = self._records
        if self.max_records is not None and len(records) == self.max_records:
            self.records_dropped += 1
        records.append(record)
        for tap in self._taps:
            tap(record)

    def add_tap(self, tap: Callable[[TraceRecord], None]) -> None:
        """Invoke ``tap`` on every future record."""
        self._taps.append(tap)

    def records(self, kind: Optional[str] = None,
                source: Optional[str] = None) -> List[TraceRecord]:
        """Snapshot of records, optionally filtered by kind and/or source."""
        result: Any = self._records
        if kind is not None:
            result = [r for r in result if r.kind == kind]
        if source is not None:
            result = [r for r in result if r.source == source]
        return list(result)

    def iter_kind(self, kind: str) -> Iterator[TraceRecord]:
        """Iterate records of one kind in emission order."""
        return (r for r in self._records if r.kind == kind)

    def clear(self) -> None:
        """Drop all stored records (taps stay registered)."""
        self._records.clear()


def snapshot(*objects: Any) -> Dict[str, Any]:
    """The counters every object names in its class's ``COUNTERS``, as one
    flat dict.  Dict-valued counters are copied, so the snapshot is not a
    live alias; a name two objects share raises ``ValueError`` (snapshot
    them separately and :func:`merge` instead)."""
    counters: Dict[str, Any] = {}
    for obj in objects:
        for name in type(obj).COUNTERS:
            if name in counters:
                raise ValueError(f"counter {name!r} named twice")
            value = getattr(obj, name)
            counters[name] = dict(value) if isinstance(value, dict) else value
    return counters


def merge(snapshots: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Key-wise sum of snapshots; dict-valued counters sum key-wise too,
    and a bool sums to the number of snapshots in which it was true."""
    total: Dict[str, Any] = {}
    for counters in snapshots:
        for name, value in counters.items():
            if isinstance(value, dict):
                into = total.setdefault(name, {})
                for key, count in value.items():
                    into[key] = into.get(key, 0) + count
            else:
                total[name] = total.get(name, 0) + value
    return total
