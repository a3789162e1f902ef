"""Relational abstract interpretation over TPP programs: the one walk
that decides what a program's CEXECs, claims and reads can do.

Treating every packet-memory slot and every SRAM word as an opaque
may-value loses exactly the facts the paper's CSTORE protocol creates:
a claim writes the word's *old value* back into packet memory (an
equality between a packet slot and an SRAM word), a read-modify-write
chain stores ``entry(w) + delta`` (an affine relation), and a claim only
fires when the word equals a *known constant* (a disequality when it
provably cannot).  This module tracks those relations instruction by
instruction and exports them as machine-checkable facts:

- :func:`analyze_relations` walks one program and produces a
  :class:`RelationalSummary`: per-write value descriptions (constant /
  affine-in-entry / unknown), claim fire conditions, provably
  *unobservable* SRAM reads, provably dead claim write-backs, every
  CEXEC with constant operands (``const_cexecs``: the verifier's
  TPP008/TPP010 lint; ``stable_fences``: the race checker's fences) and
  the index of the first CEXEC that can never pass.
- :func:`reachable_values` runs a fleet-level fixpoint over those
  summaries: given a switch's SRAM image (the per-switch ``sram_values``
  binding, the SRAM analog of ``fence_values``), it computes a sound
  over-approximation of every value each word can ever hold under *any*
  interleaving — the word's **claim epochs**.  A CSTORE whose condition
  constant is outside the word's reachable set can never fire on that
  switch (:func:`claim_mutates`); a store of a value the word always
  holds can never change it (:func:`write_mutates`).
  :func:`repro.core.racecheck._refine_summary` is the one place either
  layer rewrites a program's access maps.

Pinned and unpinned facts
-------------------------

Relational facts are computed for **fault-free executions** (admission
is gated on the verifier: TPP001–TPP011 prove in-guard executions cannot
fault).  A TPP is the *same* program run at *every* hop, over one packet
memory carried along, so which execution a fact describes matters:

- **pinned** (``entry=<counter>``): the execution that enters with
  exactly that hop/SP counter and exactly the given image —
  ``summarize_program``'s first hop, ``summarize_section``'s in-flight
  frame.  Every slot starts at its image value.
- **unpinned** (``entry=None``, every certificate): the execution at
  *any* hop of the horizon.  The counter ranges over what earlier hops
  can have grown it to, and a slot starts at its image value only if no
  instruction can write it on any hop (:func:`written_byte_intervals`)
  — a CSTORE rewrites its own condition word with each switch's old
  value, so from hop 1 on its condition is unknown.  Less precise,
  and true wherever ``TCPU.trust`` installs the certificate.

The oracle harness (``tests/props/test_race_harness.py``) holds both to
zero false negatives: pinned facts against one switch with its SRAM
image bound, unpinned ones against the second switch of a two-hop path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.isa import ISA, Instruction, Opcode, stack_extremes
from repro.core.memory_map import MemoryMap, SRAM_BASE, is_sram
from repro.core.tpp import AddressingMode

#: An abstract value atom: ``("c", k)`` is the constant ``k``;
#: ``("e", w, d)`` is ``entry(w) + d`` — the value SRAM word ``w`` held
#: when this program began executing, plus a constant, mod the word
#: width.  A value is a small frozenset of atoms (any of them may be the
#: concrete value) or ``None`` — unknown (top).
Atom = Tuple[Any, ...]
Value = Optional[FrozenSet[Atom]]

#: Join width: a value tracking more than this many candidate atoms
#: widens to unknown.  Claims and seeded constants keep sets tiny; only
#: degenerate programs hit the cap.
MAX_ATOMS = 8

#: Fleet fixpoint width: a word whose reachable-value set exceeds this
#: widens to top (e.g. an additive counter reaches unboundedly many
#: values).  Every widening is in the conservative direction.
MAX_REACH = 64

#: How a claim's fire condition relates to the word's entry value.
FIRE_NEVER = "never"      #: provably never fires (in-program constants)
FIRE_ALWAYS = "always"    #: provably fires whenever the claim executes
FIRE_ENTRY = "entry"      #: fires iff the word's entry value is a cond
FIRE_MAYBE = "maybe"      #: unknown: treated as may-fire


@dataclass(frozen=True)
class SRAMWriteEffect:
    """One unconditional SRAM store, relationally described.

    ``atoms`` is the abstract value written (``None`` = unknown).
    ``inert`` marks stores proven to write the word's *current* value
    back — a no-op on every switch, regardless of the fleet around it.
    """

    index: int
    word: int
    atoms: Optional[Tuple[Atom, ...]]
    inert: bool = False


@dataclass(frozen=True)
class SRAMClaimEffect:
    """One CSTORE, relationally described.

    ``fire`` is one of the ``FIRE_*`` states; for :data:`FIRE_ENTRY` the
    claim fires iff the word's value when the program starts is one of
    ``conds``.  ``srcs`` is the abstract value a firing claim stores.
    """

    index: int
    word: int
    fire: str
    conds: Optional[Tuple[Atom, ...]]
    srcs: Optional[Tuple[Atom, ...]]


@dataclass(frozen=True)
class RelationalSummary:
    """Everything :func:`analyze_relations` proved about one program."""

    #: Relational descriptions of unconditional SRAM stores, by index.
    writes: Tuple[SRAMWriteEffect, ...] = ()
    #: Relational descriptions of CSTOREs, by index.
    claims: Tuple[SRAMClaimEffect, ...] = ()
    #: SRAM-reading instruction indices whose value provably never
    #: reaches an observable (final packet memory, SRAM, or control).
    dead_reads: Tuple[int, ...] = ()
    #: CSTORE indices whose old-value write-back is provably overwritten
    #: before the program ends without being read — the claim observes
    #: nothing.
    dead_claim_obs: Tuple[int, ...] = ()
    #: Index of the first CEXEC whose predicate is relationally constant
    #: *false* independent of any switch state (``expected & ~mask`` or a
    #: constant SRAM operand that fails the test): every instruction
    #: after it is unreachable on every switch.
    dead_suffix_at: Optional[int] = None
    #: Every CEXEC whose mask/expected operands are relationally
    #: constant, as ``(index, switch_vaddr, mask, expected)`` —
    #: including those past :attr:`dead_suffix_at`, decided on the final
    #: slot state (lint only: nothing there executes).
    const_cexecs: Tuple[Tuple[int, int, int, int], ...] = ()
    #: The :data:`const_cexecs` subset that reads a stable register and
    #: can execute: a summary's ``ProgramAccessSummary.fences``.
    stable_fences: Tuple[Tuple[int, int, int, int], ...] = ()

    def write_at(self, index: int) -> Optional[SRAMWriteEffect]:
        for effect in self.writes:
            if effect.index == index:
                return effect
        return None

    def claim_at(self, index: int) -> Optional[SRAMClaimEffect]:
        for effect in self.claims:
            if effect.index == index:
                return effect
        return None

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (part of a certificate summary's JSON)."""
        return {
            "writes": [[e.index, e.word,
                        None if e.atoms is None else [list(a)
                                                      for a in e.atoms],
                        e.inert] for e in self.writes],
            "claims": [[e.index, e.word, e.fire,
                        None if e.conds is None else [list(a)
                                                      for a in e.conds],
                        None if e.srcs is None else [list(a)
                                                     for a in e.srcs]]
                       for e in self.claims],
            "dead_reads": list(self.dead_reads),
            "dead_claim_obs": list(self.dead_claim_obs),
            "dead_suffix_at": self.dead_suffix_at,
            "const_cexecs": [list(f) for f in self.const_cexecs],
            "stable_fences": [list(f) for f in self.stable_fences],
        }


#: Hop horizon when a program declares no budget.  Far beyond any real
#: path length; it bounds the analysis, not programs (a larger horizon
#: only widens what an unpinned walk treats as mutable, the conservative
#: direction).
HOP_SCAN_LIMIT = 1024

#: Switch registers whose value is a per-switch constant for the life of
#: a run: set at boot, never written by the dataplane or control plane.
#: Only CEXECs reading these can be *stable* fences — a fence on a
#: counter or queue register can flip between two packets of the same
#: interleaving and proves nothing.
STABLE_FENCE_REGISTERS = ("Switch:SwitchID",)


def written_byte_intervals(instructions: Sequence[Instruction], *,
                           mode: Any,
                           word_size: int,
                           memory_len: int,
                           perhop_len_bytes: int = 0,
                           max_hops: Optional[int] = None,
                           ) -> List[Tuple[int, int]]:
    """Over-approximated byte ranges any instruction can write into
    packet memory across the whole hop horizon.

    The single source of truth for "which packet-memory bytes are
    provably constant at every hop": an unpinned walk seeds a slot from
    the image only outside these intervals.  ``push`` operands cover
    the per-instruction SP prefix sums over the worst achievable per-hop
    growth; a written ``word`` strides per hop in hop mode; a written
    ``pair`` (CSTORE's old-value write-back) is its first word.
    """
    hop_mode = mode == AddressingMode.HOP
    word = word_size
    horizon = max_hops if max_hops is not None else HOP_SCAN_LIMIT
    top_hop = max(horizon - 1, 0)
    prefix, _, dmax = stack_extremes(instructions, word)
    shapes = [ISA[i.opcode].packet if ISA[i.opcode].writes_packet
              else None for i in instructions]
    pushes = [j for j, shape in enumerate(shapes) if shape == "push"]
    intervals: List[Tuple[int, int]] = []
    if pushes:
        growth = top_hop * max(dmax, 0)
        hi = max(growth + prefix[j] + word for j in pushes)
        intervals.append((0, min(hi, memory_len)))
    for instruction, shape in zip(instructions, shapes):
        if shape is None or shape == "push":
            continue
        base = instruction.offset * word
        if hop_mode and shape == "word":
            intervals.append((base,
                              top_hop * perhop_len_bytes + base + word))
        else:
            intervals.append((base, base + word))
    return intervals


def _join(a: Value, b: Value) -> Value:
    if a is None or b is None:
        return None
    merged = a | b
    return merged if len(merged) <= MAX_ATOMS else None


def _consts(value: Value) -> Optional[FrozenSet[int]]:
    """The concrete constants of a value, or ``None`` if any atom is
    entry-relative or the value is unknown."""
    if value is None:
        return None
    out: Set[int] = set()
    for atom in value:
        if atom[0] != "c":
            return None
        out.add(atom[1])
    return frozenset(out)


def _binop(alu: Callable[[int, int], int], slot: Value, word_v: Value,
           mask: int) -> Value:
    """Abstract ``packet[slot] = alu(packet[slot], switch[word])``.

    Constants fold; ``entry(w) + d`` stays affine under ``+``/``-`` of a
    constant, and under ``+`` of it to a constant."""
    if slot is None or word_v is None:
        return None
    affine = alu is operator.add or alu is operator.sub
    out: Set[Atom] = set()
    for sa in slot:
        for wa in word_v:
            s_const = sa[0] == "c"
            w_const = wa[0] == "c"
            if s_const and w_const:
                out.add(("c", alu(sa[1], wa[1]) & mask))
            elif affine and w_const:
                out.add(("e", sa[1], alu(sa[2], wa[1]) & mask))
            elif alu is operator.add and s_const:
                out.add(("e", wa[1], (wa[2] + sa[1]) & mask))
            else:
                return None
            if len(out) > MAX_ATOMS:
                return None
    return frozenset(out)


class _Walker:
    """Single straight-line pass over one program.

    TPP control flow has no join points: a CEXEC kills the whole suffix,
    so the state at instruction ``i`` is simply the straight-line state
    assuming every earlier CEXEC passed.  After an *undecided* CEXEC the
    walker enters conditional mode — state updates join with the
    not-executed state and taint kills are disabled — which keeps every
    later fact a sound may-fact.
    """

    def __init__(self, instructions: Sequence[Instruction], *,
                 mode: Any, word_size: int, memory_len: int,
                 perhop_len_bytes: int,
                 initial_memory: bytes,
                 entry: Optional[int],
                 max_hops: Optional[int],
                 stable_addrs: FrozenSet[int]) -> None:
        self.instructions = instructions
        self.hop_mode = mode == AddressingMode.HOP
        self.word = word_size
        self.mask = (1 << (8 * word_size)) - 1
        self.memory_len = memory_len
        self.perhop = perhop_len_bytes
        self.stable_addrs = stable_addrs
        # Entry counter: exact when pinned; unpinned, whatever earlier
        # hops can have grown it to, and only slots no hop rewrites
        # (:func:`written_byte_intervals`) hold their image value.
        mutable: List[Tuple[int, int]] = []
        if entry is not None:
            self.sp_lo = self.sp_hi = entry
        else:
            horizon = max_hops if max_hops is not None else HOP_SCAN_LIMIT
            top_hop = max(horizon - 1, 0)
            dmax = stack_extremes(instructions, word_size)[2]
            self.sp_lo = 0
            self.sp_hi = (top_hop if self.hop_mode
                          else top_hop * max(dmax, 0))
            mutable = written_byte_intervals(
                instructions, mode=mode, word_size=word_size,
                memory_len=memory_len,
                perhop_len_bytes=perhop_len_bytes, max_hops=max_hops)
        # Slot state, keyed by absolute byte offset (word granularity);
        # an absent slot is unknown.
        self.slots: Dict[int, Value] = {}
        self.taints: Dict[int, FrozenSet[Atom]] = {}
        for base in range(0, min(memory_len, len(initial_memory))
                          - word_size + 1, word_size):
            end = base + word_size
            if any(lo < end and base < hi for lo, hi in mutable):
                continue
            self.slots[base] = frozenset(
                {("c", int.from_bytes(initial_memory[base:end], "big"))})
        # Current SRAM value per word, relative to program entry.
        self.sram_now: Dict[int, Value] = {}
        self.conditional = False
        self.live: Set[Atom] = set()
        self.writes: List[SRAMWriteEffect] = []
        self.claims: List[SRAMClaimEffect] = []
        self.read_indices: List[int] = []
        self.claim_obs: List[int] = []
        self.const_cexecs: List[Tuple[int, int, int, int]] = []
        self.stable_fences: List[Tuple[int, int, int, int]] = []
        self.dead_suffix_at: Optional[int] = None

    # ----------------------- state helpers ----------------------- #

    def sram_value(self, w: int) -> Value:
        value = self.sram_now.get(w)
        if value is None and w not in self.sram_now:
            return frozenset({("e", w, 0)})
        return value

    def set_sram(self, w: int, value: Value) -> None:
        if self.conditional:
            value = _join(self.sram_value(w), value)
        self.sram_now[w] = value

    def set_slot(self, base: int, value: Value,
                 taint: FrozenSet[Atom]) -> None:
        if self.conditional:
            value = _join(self.slots.get(base), value)
            taint = taint | self.taints.get(base, frozenset())
        self.slots[base] = value
        self.taints[base] = taint

    def clobber(self, lo: int, hi: int) -> None:
        """An imprecise write landed somewhere in ``[lo, hi)``: every
        intersecting slot becomes unknown and its taint survives (the
        overwrite is not guaranteed to replace it)."""
        for base in list(self.slots):
            if base < hi and lo < base + self.word:
                self.slots[base] = None
        # Taints are kept: a maybe-overwrite cannot kill a read.

    def mark_live(self, taint: Optional[FrozenSet[Atom]]) -> None:
        if taint:
            self.live.update(taint)

    def taint_of(self, base: int) -> FrozenSet[Atom]:
        return self.taints.get(base, frozenset())

    # ------------------------- the walk --------------------------- #

    def locate(self, shape: Optional[str],
               base: int) -> Tuple[Optional[int], int, int]:
        """Resolve a one-word packet operand (moving SP for ``push`` /
        ``pop``): ``(ea, lo, hi)`` — the exact byte offset, or ``None``
        with the interval ``[lo, hi)`` the word may land in."""
        word = self.word
        exact = self.sp_lo == self.sp_hi
        if shape == "push":
            lo, hi = self.sp_lo, self.sp_hi + word
            self.sp_lo += word
            self.sp_hi += word
            exact = exact and lo % word == 0 and lo + word <= self.memory_len
        elif shape == "pop":
            self.sp_lo -= word
            self.sp_hi -= word
            lo, hi = self.sp_lo, self.sp_hi + word
        elif self.hop_mode:
            lo = self.sp_lo * self.perhop + base
            hi = self.sp_hi * self.perhop + base + word
        else:
            return base, base, base + word
        return (lo if exact else None), lo, hi

    def run(self) -> None:
        word = self.word
        mask = self.mask
        for j, instruction in enumerate(self.instructions):
            opcode = instruction.opcode
            row = ISA[opcode]
            dead = self.dead_suffix_at is not None
            if not row.syntax or (dead and not row.fence):
                continue
            addr = instruction.addr
            sram = is_sram(addr)
            w = addr - SRAM_BASE if sram else -1
            base = instruction.offset * word
            if row.packet == "pair":
                first = self.slots.get(base)
                second = self.slots.get(base + word)
                if not dead:
                    self.mark_live(self.taint_of(base))
                    self.mark_live(self.taint_of(base + word))
            if opcode == Opcode.CSTORE:
                if sram:
                    self._record_claim(j, w, first, second)
                    old = self.sram_value(w)
                    self.set_slot(base, old, frozenset({("co", j)}))
                else:
                    self.set_slot(base, None, frozenset())
                continue
            if opcode == Opcode.CEXEC:
                m, e = _consts(first), _consts(second)
                const = (m is not None and e is not None
                         and len(m) == 1 and len(e) == 1)
                if const:
                    m_val, e_val = next(iter(m)), next(iter(e))
                    self.const_cexecs.append((j, addr, m_val, e_val))
                if dead:
                    # Nothing past a dead fence executes, so the slot
                    # state is final: later CEXECs are still decided
                    # (lint), and contribute nothing else.
                    continue
                if sram:
                    self.read_indices.append(j)
                    self.live.add(("r", j))
                if const:
                    if addr in self.stable_addrs:
                        self.stable_fences.append(
                            (j, addr, m_val, e_val))
                    verdict = self._evaluate_cexec(
                        sram, w, m_val, e_val)
                    if verdict is False:
                        self.dead_suffix_at = j
                        continue
                    if verdict is True:
                        continue  # fence always passes: not a branch
                self.conditional = True
                continue
            # Every other opcode moves one word: switch -> packet,
            # packet -> switch, or alu(packet, switch) -> packet.
            ea, lo, hi = self.locate(row.packet, base)
            value: Value = None
            taint: FrozenSet[Atom] = frozenset()
            if row.reads_packet and ea is not None:
                value, taint = self.slots.get(ea), self.taint_of(ea)
            if row.writes_switch:
                self.mark_live(taint)
                if sram:
                    self._record_write(j, w, value)
                continue
            read: Value = None
            read_taint: FrozenSet[Atom] = frozenset()
            if sram:
                read = self.sram_value(w)
                read_taint = frozenset({("r", j)})
                self.read_indices.append(j)
            if ea is None:
                # Somewhere in the interval the word lands where nothing
                # overwrites it: the read stays live.
                self.mark_live(read_taint)
                self.clobber(lo, hi)
            elif row.alu is not None:
                self.set_slot(ea, _binop(row.alu, value, read, mask),
                              taint | read_taint)
            else:
                self.set_slot(ea, read, read_taint)

    def _evaluate_cexec(self, sram: bool, w: int, m_val: int,
                        e_val: int) -> Optional[bool]:
        """Decide a constant-operand CEXEC when possible.

        ``expected & ~mask`` can never hold for any register value; a
        constant SRAM operand decides the test outright.  ``None`` means
        undecided (the fence hinges on unknown switch state).
        """
        if e_val & ~m_val:
            return False
        if sram:
            reg = _consts(self.sram_value(w))
            if reg is not None:
                verdicts = {(r & m_val) == e_val for r in reg}
                if len(verdicts) == 1:
                    return verdicts.pop()
        return None

    def _record_write(self, j: int, w: int, value: Value) -> None:
        current = self.sram_value(w)
        inert = (value is not None and current is not None
                 and len(value) == 1 and value == current)
        atoms = None if value is None else tuple(sorted(value))
        self.writes.append(
            SRAMWriteEffect(index=j, word=w, atoms=atoms, inert=inert))
        self.set_sram(w, value)

    def _record_claim(self, j: int, w: int, cond_v: Value,
                      src_v: Value) -> None:
        self.claim_obs.append(j)
        current = self.sram_value(w)
        conds = None if cond_v is None else tuple(sorted(cond_v))
        srcs = None if src_v is None else tuple(sorted(src_v))
        cur_consts = _consts(current)
        cond_consts = _consts(cond_v)
        fire = FIRE_MAYBE
        if cond_consts is not None:
            if cur_consts is not None:
                if not (cur_consts & cond_consts):
                    fire = FIRE_NEVER
                elif len(cur_consts) == 1 and len(cond_consts) == 1:
                    fire = FIRE_ALWAYS
            elif current == frozenset({("e", w, 0)}):
                # The word still holds its entry value: the claim fires
                # iff that entry value is one of the condition constants
                # — decidable per switch by the reachability fixpoint.
                fire = FIRE_ENTRY
        self.claims.append(SRAMClaimEffect(
            index=j, word=w, fire=fire, conds=conds, srcs=srcs))
        if fire == FIRE_NEVER:
            return
        fired = src_v
        if fire == FIRE_ALWAYS and not self.conditional:
            self.set_sram(w, fired)
        else:
            self.set_sram(w, _join(current, fired))


def analyze_relations(instructions: Sequence[Instruction], *,
                      mode: Any = None,
                      word_size: int = 4,
                      memory_len: int = 0,
                      perhop_len_bytes: int = 0,
                      initial_memory: Optional[bytes] = None,
                      entry: Optional[int] = 0,
                      max_hops: Optional[int] = None,
                      memory_map: Optional[MemoryMap] = None,
                      ) -> RelationalSummary:
    """Relationally analyze one program.

    ``entry`` pins the hop/SP counter executions enter with at the
    deployment point under analysis (``build()`` stamps new programs
    with ``0``) and the image is what that execution starts from: the
    facts are *pinned* — true of that one execution.  ``entry=None``
    makes them *unpinned* — true of the execution at every hop within
    ``max_hops`` (default :data:`HOP_SCAN_LIMIT`): the counter ranges
    over what earlier hops can have grown it to, and only slots no hop
    can rewrite start at their image value.  Without an
    ``initial_memory`` image nothing is provable and the summary is
    empty.
    """
    if initial_memory is None or not instructions:
        return RelationalSummary()
    resolved_mode = AddressingMode.STACK if mode is None else mode
    resolver = (memory_map if memory_map is not None
                else MemoryMap.shared_standard())
    stable: Set[int] = set()
    for name in STABLE_FENCE_REGISTERS:
        try:
            stable.add(resolver.resolve(name))
        except KeyError:  # pragma: no cover - custom maps may omit it
            continue
    walker = _Walker(
        instructions, mode=resolved_mode, word_size=word_size,
        memory_len=memory_len or len(initial_memory),
        perhop_len_bytes=perhop_len_bytes,
        initial_memory=bytes(initial_memory), entry=entry,
        max_hops=max_hops, stable_addrs=frozenset(stable))
    walker.run()
    # Everything still sitting in a packet slot at program end is part
    # of the final packet memory — observable.
    for base, taint in walker.taints.items():
        if walker.slots.get(base) is not None or taint:
            walker.live.update(taint)
    dead_reads = tuple(sorted(
        j for j in walker.read_indices if ("r", j) not in walker.live))
    dead_claim_obs = tuple(sorted(
        j for j in walker.claim_obs if ("co", j) not in walker.live))
    return RelationalSummary(
        writes=tuple(walker.writes),
        claims=tuple(walker.claims),
        dead_reads=dead_reads,
        dead_claim_obs=dead_claim_obs,
        dead_suffix_at=walker.dead_suffix_at,
        const_cexecs=tuple(walker.const_cexecs),
        stable_fences=tuple(walker.stable_fences),
    )


# ------------------------------------------------------------------ #
# Fleet-level claim-epoch reachability
# ------------------------------------------------------------------ #

#: Reachable-value table: ``(task_id, word) -> values`` with ``None``
#: meaning top (any value).
ReachTable = Dict[Tuple[int, int], Optional[FrozenSet[int]]]


def _concretize(atoms: Optional[Tuple[Atom, ...]], task_id: int,
                reach: ReachTable, mask: int,
                ) -> Optional[FrozenSet[int]]:
    """Ground an atom tuple against the current reachable sets."""
    if atoms is None:
        return None
    out: Set[int] = set()
    for atom in atoms:
        if atom[0] == "c":
            out.add(atom[1] & mask)
        else:
            src = reach.get((task_id, atom[1]))
            if src is None:
                return None
            for r in src:
                out.add((r + atom[2]) & mask)
        if len(out) > MAX_REACH:
            return None
    return frozenset(out)


def reachable_values(
        members: Sequence[Tuple[Any, Optional[RelationalSummary]]],
        sram_values: Optional[Mapping[int, int]],
        word_size: int = 4) -> ReachTable:
    """Fixpoint over a fleet: every value each word can ever hold.

    ``members`` pairs each :class:`~repro.core.racecheck.
    ProgramAccessSummary` with its relational summary (``None`` = no
    relational facts: all its writes poison their words).  ``sram_values``
    maps absolute SRAM word indices to the switch's initial image; words
    not bound (or with no binding at all) start at top.  The result
    over-approximates: every write adds every value it could store, a
    claim contributes its stored value whenever its fire condition
    intersects the current set, and widening only ever grows sets.
    """
    mask = (1 << (8 * word_size)) - 1
    reach: ReachTable = {}
    for summary, _ in members:
        for word in summary.words:
            key = (summary.task_id, word)
            if key not in reach:
                if sram_values is not None and word in sram_values:
                    reach[key] = frozenset(
                        {sram_values[word] & mask})
                else:
                    reach[key] = None
    changed = True
    while changed:
        changed = False
        for summary, relational in members:
            task = summary.task_id
            for word, indices in summary.writes.items():
                key = (task, word)
                if reach.get(key) is None:
                    continue
                for index in indices:
                    effect = (relational.write_at(index)
                              if relational is not None else None)
                    if effect is None:
                        added: Optional[FrozenSet[int]] = None
                    elif effect.inert:
                        continue
                    else:
                        added = _concretize(effect.atoms, task, reach,
                                            mask)
                    changed |= _grow(reach, key, added)
            for word, indices in summary.claims.items():
                key = (task, word)
                current = reach.get(key)
                if current is None:
                    continue
                for index in indices:
                    effect = (relational.claim_at(index)
                              if relational is not None else None)
                    if effect is None:
                        changed |= _grow(reach, key, None)
                        continue
                    if effect.fire == FIRE_NEVER:
                        continue
                    if effect.fire == FIRE_ENTRY:
                        conds = _concretize(effect.conds, task, reach,
                                            mask)
                        if conds is not None and not (conds & current):
                            continue  # no reachable epoch matches
                    added = _concretize(effect.srcs, task, reach, mask)
                    changed |= _grow(reach, key, added)
    return reach


def _grow(reach: ReachTable, key: Tuple[int, int],
          added: Optional[FrozenSet[int]]) -> bool:
    current = reach.get(key)
    if current is None:
        return False
    if added is None:
        reach[key] = None
        return True
    merged = current | added
    if len(merged) > MAX_REACH:
        reach[key] = None
        return True
    if merged != current:
        reach[key] = frozenset(merged)
        return True
    return False


def claim_can_fire(effect: SRAMClaimEffect, task_id: int,
                   reach: ReachTable, mask: int) -> bool:
    """Whether a claim can fire given the word's reachable epochs."""
    if effect.fire == FIRE_NEVER:
        return False
    if effect.fire != FIRE_ENTRY:
        return True
    current = reach.get((task_id, effect.word))
    if current is None:
        return True
    conds = _concretize(effect.conds, task_id, reach, mask)
    if conds is None:
        return True
    return bool(conds & current)


def claim_mutates(effect: SRAMClaimEffect, task_id: int,
                  reach: ReachTable, mask: int) -> bool:
    """Whether a firing claim can ever *change* the word.

    ``CSTORE w, c, c`` stores the value it matched: the word is
    untouched and only the (read-like) write-back observes anything.
    """
    if not claim_can_fire(effect, task_id, reach, mask):
        return False
    conds = _concretize(effect.conds, task_id, reach, mask)
    srcs = _concretize(effect.srcs, task_id, reach, mask)
    if conds is not None and srcs is not None \
            and len(conds) == 1 and conds == srcs:
        return False
    return True


def write_mutates(effect: SRAMWriteEffect, task_id: int,
                  reach: ReachTable, mask: int) -> bool:
    """Whether an unconditional store can ever change its word."""
    if effect.inert:
        return False
    values = _concretize(effect.atoms, task_id, reach, mask)
    current = reach.get((task_id, effect.word))
    if values is not None and current is not None \
            and len(current) == 1 and values <= current:
        return False
    return True
