"""Fleet-level static SRAM race analysis (the cross-program layer).

The single-program verifier (:mod:`repro.core.verifier`) proves that a
program stays inside its *own* task's SRAM protection domain (``TPP007``),
but says nothing about two admitted programs of the **same** task hitting
the same scratch word: the paper's CSTORE is the only claim/coordination
primitive switches offer, and nothing else serializes concurrent TPPs.
This module is the first analysis in the repo that reasons about *sets* of
programs: it extracts, per program, the word-level SRAM read / write /
CSTORE-claim sets, then intersects them pairwise across a fleet of
admitted programs to emit stable diagnostics:

========= ======== ======================================================
code      severity meaning
========= ======== ======================================================
``TPP020`` error    write-write race: two programs store into the same
                    SRAM word unconditionally (no claim protocol) — the
                    final value is whichever packet executed last, and
                    read-modify-write updates lose increments
``TPP021`` warning  read-write race: one program reads a word another
                    writes — the value observed (and anything derived
                    from it, including other SRAM words) depends on
                    packet interleaving
``TPP022`` error    claim-protocol violation: a word one program claims
                    through CSTORE is written *unconditionally* by
                    another, so the claim can be silently overwritten
``TPP023`` info     claim-coordinated sharing: both programs CSTORE the
                    same word.  This is the sanctioned §3.2.3 protocol —
                    first claimer wins — but the winner (and hence the
                    final value) still depends on arrival order
========= ======== ======================================================

Exactly one diagnostic is emitted per (pair, word): the most severe
applicable classification wins (``TPP020`` > ``TPP022`` > ``TPP021`` >
``TPP023``).  A fleet with an empty diagnostic list is **order
insensitive**: every program's writes land on words no other program
touches, and every shared word is read-only, so any interleaving of
whole-program executions produces bit-identical SRAM (the randomized
harness in ``tests/props/test_race_harness.py`` holds this as ground
truth).  Programs of *different* tasks are never paired — cross-task
access is already a ``TPP007`` admission error and an
``SRAM_PROTECTION`` runtime fault.

What an instruction can do is decided in one place, the relational walk
(:mod:`repro.core.relational`); this module only reads the SRAM
operands off the ISA rows (:func:`_access_maps`), rewrites the resulting
access maps by the walk's facts (:func:`_refine_summary`, the one
rewrite) and classifies pairs.  A summary built with ``entry=None`` — every
certificate's — is *unpinned*: its facts hold at every hop of the
program's budget.  One built at a known counter (``summarize_program``:
``0``, ``summarize_section``: the header's) is *pinned*: true of the
execution that starts from exactly that counter and image.

The analysis is may-access, refined by *constant-mask CEXEC fences*: a
CEXEC whose switch operand is a per-switch constant (``Switch:SwitchID``)
and whose mask/value operand words the walk proves constant
(``RelationalSummary.stable_fences``) is a stable predicate — on any
given switch it either always passes or always fails.  Accesses guarded
by two mutually exclusive such fences
(same register and mask, different expected values) can never execute in
the same switch's interleaving, so the pairwise classification only
counts *co-executable* access pairs, and accesses behind self-
contradictory fences are statically unreachable and dropped from the
summary.  Fences with matching predicates suppress nothing: the analysis
does not know the register's value, and on some switch both programs'
guarded accesses may run.

When the analysis runs on behalf of a *specific* switch the register
values stop being unknowns: admission is per-switch (``TCPU.trust``
keeps one :class:`FleetRaceTable` per switch), so callers may supply
``fence_values`` — a ``{switch_vaddr: value}`` binding of the stable
registers for that switch.  A fence whose predicate is falsified by the
bindings (``value & mask != expected``) can never pass there, so every
access it guards is statically dead on that switch and drops out of the
pairwise classification entirely.  This is the refinement that retires
the dominant false-positive class: a write fenced on the *wrong*
``Switch:SwitchID`` looked like a may-write to the unbound analysis.
Everything else stays may-access — writes behind non-constant fences
still count — so a diagnosed-free fleet is genuinely race free on the
bound switch, at a measurably lower false-positive rate
(``tests/props/test_race_harness.py`` pins the measurement).

Two consumption modes:

- :func:`check_fleet` — one-shot pairwise pass over a list of
  :class:`ProgramAccessSummary` (the ``tppasm racecheck`` CLI).
- :class:`FleetRaceTable` — incremental membership for admission
  control: :meth:`~FleetRaceTable.admit` re-checks only the pairs that
  share a word with the newcomer (via a word-level index), and
  :meth:`~FleetRaceTable.revoke` retires a member and every diagnostic
  involving it.  The table's report is always identical to a
  from-scratch :func:`check_fleet` over the current membership
  (conformance-tested over random admit/revoke sequences).

Only :func:`check_fleet` can also bind a switch's SRAM image
(``sram_values``) and discount claims whose epochs are unreachable
there: that describes a pinned deployment point (``tppasm racecheck
--sram``, the oracle sweeps), not the any-hop certificates a table
receives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.isa import ISA, Instruction, Opcode
from repro.core.memory_map import MemoryMap, SRAM_BASE, is_sram
from repro.core.relational import (
    ReachTable,
    RelationalSummary,
    analyze_relations,
    claim_mutates,
    reachable_values,
    write_mutates,
)
from repro.core.tpp import AddressingMode, TPPSection, program_key_of

#: Stable race diagnostic codes with their severity.  Kept separate from
#: the single-program ``TPP0xx`` table in :mod:`repro.core.verifier`:
#: these name *pairs* of programs, not instructions of one program.
RACE_CODES: Dict[str, str] = {
    "TPP020": "error",
    "TPP021": "warning",
    "TPP022": "error",
    "TPP023": "info",
}


#: Fleet-membership key: ``(program_key, task_id, memory image)``.
MemberKey = Tuple[bytes, int, Optional[bytes]]

#: Images of one ``(program, task)`` a :class:`FleetRaceTable` tracks
#: one by one; further ones share one image-free member, so a sender
#: rebinding a per-packet value costs a table bounded work.
MAX_IMAGES = 16


def _access_maps(instructions: Sequence[Instruction],
                 ) -> Tuple[Dict[int, Tuple[int, ...]], ...]:
    """``(reads, writes, claims)``: SRAM word → sorted instruction
    indices, read off the ISA rows.

    A row that both reads and writes its switch word (CSTORE) is the
    claim protocol itself: a claim, not a read or a write.
    """
    maps: Tuple[Dict[int, List[int]], ...] = ({}, {}, {})
    for index, instruction in enumerate(instructions):
        row = ISA[instruction.opcode]
        if is_sram(instruction.addr) and (row.reads_switch
                                          or row.writes_switch):
            kind = 2 if row.reads_switch and row.writes_switch else (
                1 if row.writes_switch else 0)
            maps[kind].setdefault(instruction.addr - SRAM_BASE,
                                  []).append(index)
    return tuple({word: tuple(indices) for word, indices in m.items()}
                 for m in maps)


class ProgramAccessSummary:
    """Word-level SRAM access sets of one program.

    ``reads`` / ``writes`` / ``claims`` map an absolute SRAM word index
    to the (sorted) instruction indices performing that access.  The
    summary is the unit the fleet analysis intersects; it is cheap to
    build (one linear scan) and cheap to carry inside a
    :class:`~repro.core.verifier.VerifiedProgram` certificate.

    ``fences`` holds the program's provably-stable CEXEC fences as
    ``(instruction_index, switch_vaddr, mask, expected)`` tuples (the
    walk's ``stable_fences``); an access at index ``i`` is
    guarded by every fence at a smaller index.  Accesses whose own guard
    set is self-contradictory are statically unreachable and dropped at
    construction, so every index the maps carry can actually execute on
    some switch.

    ``image`` is the packet-memory image the fences and relational facts
    were proved on (``None`` when the summary was built without one).
    It is part of the membership :attr:`key`: two rebinds of one
    template (:meth:`repro.core.assembler.AssembledProgram.rebind`) are
    two fleet members, each with its own fences.  ``widened`` is the
    same program's image-free may-access summary, the member a
    :class:`FleetRaceTable` falls back to past :data:`MAX_IMAGES`
    (``None`` on an image-free summary: it is its own).
    """

    __slots__ = ("name", "task_id", "program_key", "image", "widened",
                 "reads", "writes", "claims", "fences",
                 "relational", "word_size")

    def __init__(self, name: str, task_id: int, program_key: bytes,
                 reads: Dict[int, Tuple[int, ...]],
                 writes: Dict[int, Tuple[int, ...]],
                 claims: Dict[int, Tuple[int, ...]],
                 fences: Tuple[Tuple[int, int, int, int], ...] = (),
                 relational: Optional[RelationalSummary] = None,
                 word_size: int = 4,
                 image: Optional[bytes] = None,
                 widened: Optional["ProgramAccessSummary"] = None,
                 ) -> None:
        self.name = name
        self.task_id = task_id
        self.program_key = program_key
        self.image = image
        self.widened = widened
        self.fences = tuple(sorted(fences))
        self.relational = relational
        self.word_size = word_size
        self.reads = self._drop_unreachable(reads)
        self.writes = self._drop_unreachable(writes)
        self.claims = self._drop_unreachable(claims)

    def guards(self, index: int) -> Tuple[Tuple[int, int, int], ...]:
        """The fence predicates guarding the instruction at ``index``
        (every stable CEXEC at a smaller index)."""
        return tuple((addr, mask, expected)
                     for fence_index, addr, mask, expected in self.fences
                     if fence_index < index)

    def _drop_unreachable(
            self, table: Dict[int, Tuple[int, ...]],
    ) -> Dict[int, Tuple[int, ...]]:
        if not self.fences:
            return table
        filtered: Dict[int, Tuple[int, ...]] = {}
        for word, indices in table.items():
            live = tuple(i for i in indices
                         if not _self_contradictory(self.guards(i)))
            if live:
                filtered[word] = live
        return filtered

    @property
    def key(self) -> MemberKey:
        """Fleet-membership key: one entry per (program, task, image)."""
        return (self.program_key, self.task_id, self.image)

    @property
    def words(self) -> Set[int]:
        """Every SRAM word this program touches, any access kind."""
        return (set(self.reads) | set(self.writes) | set(self.claims))

    @property
    def touches_sram(self) -> bool:
        """Whether the fleet analysis has anything to look at."""
        return bool(self.reads or self.writes or self.claims)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (a certificate's ``summary`` in
        ``tppasm lint --json``; ``racecheck --json`` embeds none)."""
        def render(table: Dict[int, Tuple[int, ...]]) -> Dict[str, Any]:
            return {str(word): list(indices)
                    for word, indices in sorted(table.items())}
        return {
            "name": self.name,
            "task_id": self.task_id,
            "program_key": self.program_key.hex(),
            "reads": render(self.reads),
            "writes": render(self.writes),
            "claims": render(self.claims),
            "fences": [list(fence) for fence in self.fences],
            "image": None if self.image is None else self.image.hex(),
            "relational": (self.relational.to_dict()
                           if self.relational else None),
        }


def _exclusive_guards(guards_a: Tuple[Tuple[int, int, int], ...],
                      guards_b: Tuple[Tuple[int, int, int], ...]) -> bool:
    """Whether two guard sets can never both pass on one switch.

    True iff they contain fences on the same stable register with the
    same mask but different expected values — at most one of the two
    predicates holds for any register value.  Matching predicates are
    *not* exclusive: the analysis does not know the register's value,
    and on some switch both pass.
    """
    for addr_a, mask_a, expected_a in guards_a:
        for addr_b, mask_b, expected_b in guards_b:
            if (addr_a == addr_b and mask_a == mask_b
                    and expected_a != expected_b):
                return True
    return False


def _falsified(guards: Tuple[Tuple[int, int, int], ...],
               fence_values: Optional[Mapping[int, int]]) -> bool:
    """Whether known per-switch register values kill this guard set.

    ``fence_values`` maps a stable register's switch vaddr to its
    concrete value on the switch the analysis is run for.  A fence on a
    bound register passes iff ``value & mask == expected``; one failing
    fence makes every access behind it unreachable on that switch.
    Unbound registers stay unknowns (handled by mutual exclusion).
    """
    if not fence_values or not guards:
        return False
    for addr, mask, expected in guards:
        value = fence_values.get(addr)
        if value is not None and (value & mask) != expected:
            return True
    return False


def _self_contradictory(
        guards: Tuple[Tuple[int, int, int], ...]) -> bool:
    """Whether one access's own guard set can never all pass: a fence
    whose expected value has bits outside its mask (never true), or two
    fences on the same register/mask demanding different values."""
    for _, mask, expected in guards:
        if expected & ~mask:
            return True
    return _exclusive_guards(guards, guards)


# --------------------------------------------------------------------- #
# SRAM dataflow classification (feeds the batch engine's SRAM write lane)
# --------------------------------------------------------------------- #

#: Dataflow classes of a written/claimed SRAM word, pinned on verifier
#: certificates (``VerifiedProgram.sram_dataflow``) and consumed by the
#: batched engine's write lane
#: (:func:`repro.core.fastpath.build_batch_plan`).
DATAFLOW_ACCUMULATE = "accumulate"  #: additive read-modify-write chains
DATAFLOW_CLAIM = "claim"            #: CSTORE-only claim protocol word
DATAFLOW_MIXED = "mixed"            #: anything else: safe lane only


@dataclass(frozen=True)
class SRAMDataflow:
    """Per-word dataflow classes plus the lowering hints they justify.

    ``classes`` maps every SRAM word the program writes or claims to one
    of the ``DATAFLOW_*`` strings (sorted by word; this exact tuple is
    pinned on the certificate).  ``roles`` is aligned with the
    instruction list: ``None``, or a ``(tag, word)`` pair naming the
    write-lane micro-op the instruction maps to (``add_acc``/
    ``store_acc``/``cstore_claim``).  ``aff_slots`` lists the packet
    memory slots that still hold ``entry_value + delta`` of an
    accumulate word when the program ends, as ``(byte_offset, word)`` —
    the kernel adds the per-packet entry vector to those columns in its
    epilogue.  Roles and slots are only meaningful when :attr:`ok`
    holds: one mixed word demotes the whole program to the safe lane,
    so partially-stale roles are never consumed.
    """

    classes: Tuple[Tuple[int, str], ...]
    roles: Tuple[Optional[Tuple[str, int]], ...]
    aff_slots: Tuple[Tuple[int, int], ...]

    @property
    def ok(self) -> bool:
        """Every written/claimed word got a vectorizable class."""
        return all(cls != DATAFLOW_MIXED for _, cls in self.classes)


def analyze_sram_dataflow(instructions: Sequence[Instruction], *,
                          mode: Any,
                          word_size: int) -> SRAMDataflow:
    """Classify every written/claimed SRAM word of one program.

    A walk over *absolute* packet-memory slots: each slot is either
    independent of SRAM entry values, or *affine* in exactly one written
    word ``w`` (value ``= entry(w) + per-packet constant``, coefficient
    exactly one).  A word all of whose stores store an affine-in-itself
    slot has the additive form ``S' = S + delta`` with ``delta``
    computable per packet — the prefix-scan lane reproduces sequential
    order bit-for-bit.  A word touched by exactly one CSTORE and nothing
    else is the paper's §3.2.3 claim protocol.

    Only the two stateful atoms a sketch update is made of are tracked:
    ``ADD [Packet:k],[Sram:W]`` … ``STORE [Sram:W],[Packet:k]`` chains
    and ``CSTORE [Sram:W]``.  Any other instruction but ``NOP`` (a
    ``LOAD``, other arithmetic, ``PUSH``/``POP``, ``CEXEC``, a write
    outside SRAM) and hop-relative addressing classify every written
    word as mixed, as do cross-word dataflow, a word stored from a slot
    that is not affine in it, and reads or plain writes beside a claim.
    """
    _, writes_map, claims_map = _access_maps(instructions)
    touched = set(writes_map) | set(claims_map)
    no_roles: Tuple[Optional[Tuple[str, int]], ...] = \
        (None,) * len(instructions)
    all_mixed = SRAMDataflow(
        classes=tuple((w, DATAFLOW_MIXED) for w in sorted(touched)),
        roles=no_roles, aff_slots=())
    if not touched or mode == AddressingMode.HOP:
        return all_mixed

    mixed: Set[int] = set()
    #: byte offset -> the word the slot is affine in (absent = independent)
    slots: Dict[int, int] = {}
    roles: List[Optional[Tuple[str, int]]] = list(no_roles)
    for j, instruction in enumerate(instructions):
        opcode = instruction.opcode
        if opcode == Opcode.NOP:
            continue
        sram_word = instruction.addr - SRAM_BASE
        if not is_sram(instruction.addr) or sram_word not in touched \
                or opcode not in (Opcode.ADD, Opcode.STORE, Opcode.CSTORE):
            return all_mixed
        base = instruction.offset * word_size
        state = slots.get(base)
        if opcode == Opcode.CSTORE:
            for operand in (base, base + word_size):
                if operand in slots:
                    # Claim compare/value depends on another word's
                    # entry value: cross-word dataflow.
                    mixed.update((sram_word, slots[operand]))
            roles[j] = ("cstore_claim", sram_word)
            # CSTORE writes the old switch value over its cond word:
            # a concrete per-packet value either way.
            slots.pop(base, None)
        elif sram_word in claims_map:
            mixed.add(sram_word)  # a read or plain write beside a claim
        elif opcode == Opcode.ADD and state is None:
            slots[base] = sram_word
            roles[j] = ("add_acc", sram_word)
        elif opcode == Opcode.STORE and state == sram_word:
            roles[j] = ("store_acc", sram_word)
        else:
            # Folding the word into an already-affine slot (coefficient
            # two or cross-word), or storing a slot that is independent
            # of it or affine in another word.
            mixed.add(sram_word)
            if state is not None:
                mixed.add(state)
            if opcode == Opcode.ADD:
                del slots[base]

    classes: List[Tuple[int, str]] = []
    for w in sorted(touched):
        if w in mixed or len(claims_map.get(w, ())) > 1:
            # (two claim instructions: instruction-major order would
            # diverge from packet-major chaining)
            cls = DATAFLOW_MIXED
        elif w in claims_map:
            cls = DATAFLOW_CLAIM
        else:
            cls = DATAFLOW_ACCUMULATE
        classes.append((w, cls))

    class_of = dict(classes)
    aff_slots = tuple(sorted(
        (offset, w) for offset, w in slots.items()
        if class_of[w] == DATAFLOW_ACCUMULATE))
    return SRAMDataflow(classes=tuple(classes), roles=tuple(roles),
                        aff_slots=aff_slots)


def summarize_instructions(instructions: Sequence[Instruction], *,
                           task_id: int = 0,
                           mode: Any = None,
                           word_size: int = 4,
                           name: str = "",
                           program_key: Optional[bytes] = None,
                           memory_len: int = 0,
                           perhop_len_bytes: int = 0,
                           initial_memory: Optional[bytes] = None,
                           max_hops: Optional[int] = None,
                           memory_map: Optional[MemoryMap] = None,
                           entry: Optional[int] = None,
                           relational: Optional[RelationalSummary] = None,
                           ) -> ProgramAccessSummary:
    """Build a :class:`ProgramAccessSummary` from decoded instructions.

    The only builder: a certificate's ``summary`` is what this returns.

    ``initial_memory`` (plus the memory geometry) enables the relational
    refinements and the stable fences; without it the summary is the
    plain may-access one.  ``entry`` pins the hop/SP counter executions
    enter with at the deployment point under analysis; ``None`` makes
    every fact hold at any hop within ``max_hops`` (see
    :func:`repro.core.relational.analyze_relations`).  ``relational``
    hands in an :func:`analyze_relations` result already computed for
    the same image, ``entry`` and ``max_hops``.
    """
    mode = AddressingMode.STACK if mode is None else mode
    if program_key is None:
        program_key = program_key_of(list(instructions), mode, word_size)
    name = name or f"{program_key.hex()[:12]}/t{task_id}"
    reads_map, writes_map, claims_map = _access_maps(instructions)
    may_access = ProgramAccessSummary(
        name, task_id, program_key, reads_map, writes_map, claims_map,
        word_size=word_size)
    if initial_memory is None:
        return may_access
    if relational is None:
        relational = analyze_relations(
            instructions, mode=mode, word_size=word_size,
            memory_len=memory_len, perhop_len_bytes=perhop_len_bytes,
            initial_memory=initial_memory, entry=entry,
            max_hops=max_hops, memory_map=memory_map)
    # An empty reach table knows no switch: what refines under it holds
    # on every switch, for any fleet around the program.
    return _refine_summary(ProgramAccessSummary(
        name, task_id, program_key, reads_map, writes_map, claims_map,
        fences=relational.stable_fences, relational=relational,
        word_size=word_size, image=bytes(initial_memory),
        widened=may_access), {})


def summarize_section(tpp: TPPSection,
                      name: str = "") -> ProgramAccessSummary:
    """Summary of an in-flight (wire-decoded) TPP section.

    The section's current hop/SP counter is the entry counter any
    further execution of this frame uses, so the relational pass runs
    pinned to it.
    """
    return summarize_instructions(
        tpp.instructions, task_id=tpp.task_id, mode=tpp.mode,
        word_size=tpp.word_size, name=name,
        program_key=tpp.program_key,
        memory_len=len(tpp.memory),
        perhop_len_bytes=tpp.perhop_len_bytes,
        initial_memory=bytes(tpp.memory),
        entry=tpp.hop_or_sp)


def summarize_program(program: Any, task_id: int = 0,
                      name: str = "") -> ProgramAccessSummary:
    """Summary of an :class:`~repro.core.assembler.AssembledProgram`.

    Freshly built programs enter the network with counter ``0``
    (``build()`` stamps ``hop_or_sp = 0``), so the relational pass is
    pinned to entry ``0`` — the state the admission point sees.
    """
    return summarize_instructions(
        program.instructions, task_id=task_id, mode=program.mode,
        word_size=program.word_size, name=name,
        memory_len=len(program.initial_memory),
        perhop_len_bytes=program.perhop_len_bytes,
        initial_memory=bytes(program.initial_memory),
        entry=0)


@dataclass(frozen=True)
class RaceDiagnostic:
    """One pairwise finding: two named programs, one SRAM word."""

    code: str                          #: ``TPP020``..``TPP023``
    severity: str                      #: ``error`` | ``warning`` | ``info``
    message: str
    word: int                          #: absolute SRAM word index
    vaddr: int                         #: ``SRAM_BASE + word``
    task_id: int
    program_a: str
    program_b: str
    instructions_a: Tuple[int, ...]    #: offending indices in program a
    instructions_b: Tuple[int, ...]    #: offending indices in program b

    def format(self) -> str:
        """Human-readable one-liner."""
        return (f"{self.code} {self.severity}: {self.message} "
                f"[Sram:Word{self.word} @ {self.vaddr:#06x}, "
                f"task {self.task_id}; {self.program_a} instr "
                f"{list(self.instructions_a)} vs {self.program_b} "
                f"instr {list(self.instructions_b)}]")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "word": self.word,
            "vaddr": self.vaddr,
            "task_id": self.task_id,
            "program_a": self.program_a,
            "program_b": self.program_b,
            "instructions_a": list(self.instructions_a),
            "instructions_b": list(self.instructions_b),
        }


def _sort_key(diagnostic: RaceDiagnostic) -> Tuple:
    return (diagnostic.task_id, diagnostic.word, diagnostic.code,
            diagnostic.program_a, diagnostic.program_b)


def check_pair(a: ProgramAccessSummary,
               b: ProgramAccessSummary,
               fence_values: Optional[Mapping[int, int]] = None,
               ) -> List[RaceDiagnostic]:
    """Race diagnostics between two programs (same task only).

    The pair is canonically ordered by ``(name, program_key, image)``
    before classification, so the result is identical no matter which way the
    caller hands the two summaries in — a requirement for the
    incremental table to match a from-scratch pass exactly.
    ``fence_values`` binds stable registers to the target switch's
    values (see module docstring); ``None`` keeps them unknown.
    """
    if a.task_id != b.task_id:
        return []  # disjoint protection domains: TPP007's job
    if (a.program_key == b.program_key
            and (a.image is None) != (b.image is None)):
        return []  # an image-free summary subsumes its own images
    a, b = sorted((a, b), key=lambda s: (s.name, s.program_key,
                                         s.image or b""))
    shared = a.words & b.words
    diagnostics: List[RaceDiagnostic] = []
    for word in sorted(shared):
        finding = _classify_word(a, b, word, fence_values)
        if finding is not None:
            diagnostics.append(finding)
    return diagnostics


def _live_pairs(a: ProgramAccessSummary, indices_a: Tuple[int, ...],
                b: ProgramAccessSummary, indices_b: Tuple[int, ...],
                fence_values: Optional[Mapping[int, int]] = None,
                ) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Filter two access-index sets down to the co-executable pairs.

    An access dead on the bound switch (a guard falsified by
    ``fence_values``) is dropped outright.  Of the remainder, an access
    of ``a`` and an access of ``b`` are co-executable unless their guard
    sets contain mutually exclusive stable fences — then no single
    switch can ever run both, so the pair cannot race there.  Returns
    the surviving indices on each side, or ``None`` when no cross pair
    survives (guard sets without fences always survive: the pre-fence
    may-access behaviour).
    """
    if not indices_a or not indices_b:
        return None
    if not a.fences and not b.fences:
        return (indices_a, indices_b)  # fast path: nothing to exclude
    guards_a = {i: a.guards(i) for i in indices_a
                if not _falsified(a.guards(i), fence_values)}
    guards_b = {j: b.guards(j) for j in indices_b
                if not _falsified(b.guards(j), fence_values)}
    live_a = tuple(i for i in guards_a
                   if any(not _exclusive_guards(guards_a[i], guards_b[j])
                          for j in guards_b))
    live_b = tuple(j for j in guards_b
                   if any(not _exclusive_guards(guards_a[i], guards_b[j])
                          for i in guards_a))
    if live_a and live_b:
        return (live_a, live_b)
    return None


def _classify_word(a: ProgramAccessSummary, b: ProgramAccessSummary,
                   word: int,
                   fence_values: Optional[Mapping[int, int]] = None,
                   ) -> Optional[RaceDiagnostic]:
    """Most severe applicable classification for one shared word.

    Each relation only fires for *co-executable* access pairs: accesses
    separated by mutually exclusive constant fences run on disjoint
    switches and cannot interleave (see :func:`_live_pairs`).
    """
    writes_a = a.writes.get(word, ())
    writes_b = b.writes.get(word, ())
    claims_a = a.claims.get(word, ())
    claims_b = b.claims.get(word, ())
    reads_a = a.reads.get(word, ())
    reads_b = b.reads.get(word, ())

    def build(code: str, message: str,
              indices_a: Tuple[int, ...],
              indices_b: Tuple[int, ...]) -> RaceDiagnostic:
        return RaceDiagnostic(
            code=code, severity=RACE_CODES[code], message=message,
            word=word, vaddr=SRAM_BASE + word, task_id=a.task_id,
            program_a=a.name, program_b=b.name,
            instructions_a=indices_a, instructions_b=indices_b)

    ww = _live_pairs(a, writes_a, b, writes_b, fence_values)
    if ww is not None:
        return build(
            "TPP020",
            f"write-write race: {a.name} and {b.name} both store to "
            f"Sram:Word{word} with no CSTORE claim protocol",
            ww[0], ww[1])
    claim_vs_write = _live_pairs(a, claims_a, b, writes_b, fence_values)
    write_vs_claim = _live_pairs(a, writes_a, b, claims_b, fence_values)
    if claim_vs_write is not None or write_vs_claim is not None:
        if claim_vs_write is not None:
            claimer, writer = a, b
            indices_a, indices_b = claim_vs_write
        else:
            claimer, writer = b, a
            indices_a, indices_b = write_vs_claim
        return build(
            "TPP022",
            f"claim protocol violated: {claimer.name} claims "
            f"Sram:Word{word} via CSTORE but {writer.name} writes it "
            f"unconditionally",
            indices_a, indices_b)
    mutates_a = tuple(sorted(writes_a + claims_a))
    mutates_b = tuple(sorted(writes_b + claims_b))
    aw_read_b = _live_pairs(a, mutates_a, b, reads_b, fence_values)
    bw_read_a = _live_pairs(a, reads_a, b, mutates_b, fence_values)
    if aw_read_b is not None or bw_read_a is not None:
        # Both directions may race at once (each side reads what the
        # other writes); the diagnostic merges the involved indices of
        # both, so ``instructions_a``/``instructions_b`` carry every
        # offending index per program — the same per-pair shape TPP020
        # reports.
        merged_a: Set[int] = set()
        merged_b: Set[int] = set()
        if aw_read_b is not None:
            writer, reader = a, b
            merged_a.update(aw_read_b[0])
            merged_b.update(aw_read_b[1])
        if bw_read_a is not None:
            if aw_read_b is None:
                writer, reader = b, a
            merged_a.update(bw_read_a[0])
            merged_b.update(bw_read_a[1])
        return build(
            "TPP021",
            f"read-write race: {reader.name} reads Sram:Word{word} "
            f"which {writer.name} writes — torn-read risk, value "
            f"depends on packet interleaving",
            tuple(sorted(merged_a)), tuple(sorted(merged_b)))
    cc = _live_pairs(a, claims_a, b, claims_b, fence_values)
    if cc is not None:
        return build(
            "TPP023",
            f"claim-coordinated sharing: {a.name} and {b.name} both "
            f"CSTORE Sram:Word{word} — sanctioned protocol, but the "
            f"winning claim depends on arrival order",
            cc[0], cc[1])
    return None  # read-read sharing is always safe


@dataclass
class FleetRaceReport:
    """Everything one fleet-wide analysis established."""

    programs: List[str]
    diagnostics: List[RaceDiagnostic]
    pairs_checked: int = 0

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics (TPP020/TPP022)."""
        return not self.errors

    @property
    def race_free(self) -> bool:
        """No diagnostics at all: the fleet is provably order
        insensitive — every interleaving of whole-program executions
        yields bit-identical final SRAM."""
        return not self.diagnostics

    @property
    def errors(self) -> List[RaceDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[RaceDiagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def by_code(self) -> Dict[str, int]:
        """Diagnostic counts keyed by code (stable order)."""
        counts: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.code] = counts.get(diagnostic.code, 0) + 1
        return dict(sorted(counts.items()))

    def format(self) -> str:
        """All diagnostics plus a verdict line, human-readable."""
        lines = [d.format() for d in self.diagnostics]
        n_err, n_warn = len(self.errors), len(self.warnings)
        verdict = ("race-free" if self.race_free
                   else "racy" if not self.ok else "shared")
        lines.append(
            f"{verdict}: {len(self.programs)} program(s), "
            f"{self.pairs_checked} pair(s) checked, {n_err} error(s), "
            f"{n_warn} warning(s)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation."""
        return {
            "ok": self.ok,
            "race_free": self.race_free,
            "programs": list(self.programs),
            "pairs_checked": self.pairs_checked,
            "by_code": self.by_code(),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def _refine_summary(summary: ProgramAccessSummary,
                    reach: ReachTable) -> ProgramAccessSummary:
    """Rewrite one summary's access maps by its relational facts.

    The one place relational facts reach the pairwise classification:

    - accesses past a relationally-false CEXEC never execute;
    - reads whose value provably never reaches an observable cannot
      produce divergence;
    - stores of a value the word always holds (its current value, or
      the only value in its reachable epochs) never change it;
    - claims that can never fire — in-program constants, or a condition
      outside the word's reachable epochs in ``reach`` — and claims
      that store the value they matched never change the word: they
      demote to reads (the old-value write-back still observes it) or
      vanish when the write-back itself is provably dead.

    ``reach`` holds one switch's claim epochs
    (:func:`repro.core.relational.reachable_values`); empty, only the
    facts true on every switch apply.  Returns the summary unchanged
    when nothing refines.
    """
    relational = summary.relational
    if relational is None:
        return summary
    mask = (1 << (8 * summary.word_size)) - 1
    task = summary.task_id
    dead_at = relational.dead_suffix_at
    dropped: Set[int] = set(relational.dead_reads)
    for effect in relational.writes:
        if not write_mutates(effect, task, reach, mask):
            dropped.add(effect.index)
    observing: Dict[int, Set[int]] = {}
    for effect in relational.claims:
        if claim_mutates(effect, task, reach, mask):
            continue
        dropped.add(effect.index)
        if effect.index not in relational.dead_claim_obs:
            observing.setdefault(effect.word, set()).add(effect.index)

    def trim(table: Dict[int, Tuple[int, ...]],
             ) -> Dict[int, Tuple[int, ...]]:
        out: Dict[int, Tuple[int, ...]] = {}
        for word, indices in table.items():
            live = tuple(
                i for i in indices
                if i not in dropped and (dead_at is None or i <= dead_at))
            if live:
                out[word] = live
        return out

    reads = trim(summary.reads)
    for word, indices in observing.items():
        reads[word] = tuple(sorted(indices.union(reads.get(word, ()))))
    writes, claims = trim(summary.writes), trim(summary.claims)
    if (reads, writes, claims) == (summary.reads, summary.writes,
                                   summary.claims):
        return summary
    return ProgramAccessSummary(
        summary.name, summary.task_id, summary.program_key, reads,
        writes, claims, fences=summary.fences, relational=relational,
        word_size=summary.word_size, image=summary.image,
        widened=summary.widened)


def check_fleet(
        summaries: Sequence[ProgramAccessSummary],
        fence_values: Optional[Mapping[int, int]] = None,
        sram_values: Optional[Mapping[int, int]] = None,
        ) -> FleetRaceReport:
    """From-scratch pairwise analysis over a whole fleet.

    The reference semantics the incremental :class:`FleetRaceTable`
    must match; diagnostics come out in a canonical order so reports
    are directly comparable.  ``fence_values`` binds stable registers
    to one switch's values, refining every pair (see module docstring);
    ``sram_values`` additionally binds the switch's SRAM image as the
    fleet's executions find it — a *pinned* deployment point — and runs
    the claim-epoch fixpoint over the whole membership
    (:func:`repro.core.relational.reachable_values`), so the pairwise
    classification only counts accesses that can actually mutate or
    observe on this switch.
    """
    if sram_values is not None and summaries:
        reach = reachable_values(
            [(s, s.relational) for s in summaries], sram_values,
            word_size=summaries[0].word_size)
        summaries = [_refine_summary(s, reach) for s in summaries]
    diagnostics: List[RaceDiagnostic] = []
    pairs = 0
    for i in range(len(summaries)):
        for j in range(i + 1, len(summaries)):
            pairs += 1
            diagnostics.extend(
                check_pair(summaries[i], summaries[j], fence_values))
    diagnostics.sort(key=_sort_key)
    return FleetRaceReport(
        programs=[s.name for s in summaries],
        diagnostics=diagnostics,
        pairs_checked=pairs)


class FleetRaceTable:
    """Incrementally maintained fleet membership with race diagnostics.

    Admission layers call :meth:`admit` / :meth:`revoke` as programs
    come and go; the table keeps a word-level index so an admission
    only re-checks the pairs whose access sets actually intersect the
    newcomer's — on a fleet of N programs touching disjoint words,
    admission is O(program size), not O(N).

    A table guards one deployment point.  When that point is a single
    switch (``TCPU.trust``), pass ``fence_values`` with the switch's
    stable register values so constant fences falsified there discount
    their guarded accesses; a table spanning many switches (an edge
    policy) leaves it unset and gets the conservative analysis.  There
    is no SRAM binding: the certificates a table receives hold at every
    hop, where a claim's epoch is unknown by construction (each CSTORE
    rewrites its own condition word) — the claim-epoch refinement is
    :func:`check_fleet`'s, for a pinned deployment point.

    Membership is per memory image, at most :data:`MAX_IMAGES` per
    ``(program, task)``; the template's image-free summary *represents*
    every further image — raced against other programs without fences
    or relational facts, never against its own images.  ``in``,
    :meth:`admit` and :meth:`revoke` resolve an image to that member.
    """

    COUNTERS = ("fleet_size", "pair_checks", "racy_admissions",
                "race_errors", "race_warnings")

    def __init__(self,
                 fence_values: Optional[Mapping[int, int]] = None,
                 ) -> None:
        #: Stable-register bindings for the switch this table guards
        #: (``None`` = unknown, conservative).
        self.fence_values: Optional[Dict[int, int]] = (
            dict(fence_values) if fence_values else None)
        self._members: Dict[MemberKey, ProgramAccessSummary] = {}
        # (task_id, word) -> member keys touching that word.
        self._word_index: Dict[Tuple[int, int], Set[MemberKey]] = {}
        # (program_key, task_id) -> the keys of its member images.
        self._by_program: Dict[Tuple[bytes, int], Set[MemberKey]] = {}
        # Unordered pair of member keys -> its diagnostics.
        self._pair_diagnostics: Dict[FrozenSet[MemberKey],
                                     List[RaceDiagnostic]] = {}
        #: Pairwise checks actually performed (the incremental-work
        #: counter the conformance tests compare against a full pass).
        self.pair_checks = 0
        #: Admissions that introduced at least one error diagnostic.
        self.racy_admissions = 0

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: object) -> bool:
        return self._resolve(member) is not None

    def _resolve(self, member: Any) -> Optional[MemberKey]:
        """Key of the member representing ``member``: its own image's,
        else its template's image-free one."""
        key = _member_key(member)
        if key not in self._members:
            key = key[:2] + (None,)
        return key if key in self._members else None

    @property
    def members(self) -> List[ProgramAccessSummary]:
        """Current membership in admission order."""
        return list(self._members.values())

    @property
    def fleet_size(self) -> int:
        """Members (``len(table)``)."""
        return len(self._members)

    @property
    def race_errors(self) -> int:
        """Active error-severity diagnostics."""
        return len(self.report().errors)

    @property
    def race_warnings(self) -> int:
        """Active warning-severity diagnostics."""
        return len(self.report().warnings)

    def admit(self,
              summary: ProgramAccessSummary) -> List[RaceDiagnostic]:
        """Add a program; returns every diagnostic it participates in.

        Idempotent: re-admitting a represented image returns its
        member's diagnostics without re-running any pair.  Only pairs
        sharing at least one SRAM word with the newcomer are checked.
        """
        key = self._resolve(summary)
        if key is not None:
            return self.diagnostics_for(key)
        siblings = self._by_program.setdefault(summary.key[:2], set())
        if summary.widened is not None and len(siblings) >= MAX_IMAGES:
            summary = summary.widened
        key = summary.key
        siblings.add(key)
        self._members[key] = summary
        rivals: Set[MemberKey] = set()
        for word in summary.words:
            bucket = self._word_index.setdefault(
                (summary.task_id, word), set())
            rivals.update(bucket)
            bucket.add(key)
        introduced: List[RaceDiagnostic] = []
        for rival_key in rivals:
            rival = self._members[rival_key]
            self.pair_checks += 1
            findings = check_pair(summary, rival, self.fence_values)
            if findings:
                self._pair_diagnostics[frozenset((key, rival_key))] = (
                    findings)
                introduced.extend(findings)
        introduced.sort(key=_sort_key)
        if any(d.severity == "error" for d in introduced):
            self.racy_admissions += 1
        return introduced

    def revoke(self, key_or_summary: Any) -> bool:
        """Retire a member (and every diagnostic naming it).

        Accepts a summary, a certificate or a raw :data:`MemberKey`; an
        image past :data:`MAX_IMAGES` retires the image-free member
        representing it.  Returns whether a member was retired.
        """
        key = self._resolve(key_or_summary)
        if key is None:
            return False
        summary = self._members.pop(key)
        siblings = self._by_program[key[:2]]
        siblings.discard(key)
        if not siblings:
            del self._by_program[key[:2]]
        for word in summary.words:
            index_key = (summary.task_id, word)
            bucket = self._word_index.get(index_key)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._word_index[index_key]
        for pair in [p for p in self._pair_diagnostics if key in p]:
            del self._pair_diagnostics[pair]
        return True

    def diagnostics(self) -> List[RaceDiagnostic]:
        """Every active diagnostic, in canonical order."""
        collected: List[RaceDiagnostic] = []
        for findings in self._pair_diagnostics.values():
            collected.extend(findings)
        collected.sort(key=_sort_key)
        return collected

    def diagnostics_for(self,
                        key_or_summary: Any) -> List[RaceDiagnostic]:
        """Active diagnostics involving one (represented) member."""
        key = self._resolve(key_or_summary)
        collected: List[RaceDiagnostic] = []
        for pair, findings in self._pair_diagnostics.items():
            if key in pair:
                collected.extend(findings)
        collected.sort(key=_sort_key)
        return collected

    def report(self) -> FleetRaceReport:
        """Snapshot equivalent to ``check_fleet(self.members,
        self.fence_values)``."""
        members = self.members
        n = len(members)
        return FleetRaceReport(
            programs=[s.name for s in members],
            diagnostics=self.diagnostics(),
            pairs_checked=n * (n - 1) // 2)


def _member_key(member: Any) -> MemberKey:
    """Key of a summary, of a certificate's summary, or a raw key."""
    key = getattr(getattr(member, "summary", member), "key", member)
    if not isinstance(key, tuple):
        raise TypeError(
            f"not a summary, certificate or MemberKey: {member!r}")
    return key


# --------------------------------------------------------------------- #
# Cross-switch divergence modeling
# --------------------------------------------------------------------- #

@dataclass(frozen=True)
class SwitchBinding:
    """One deployment point's known state for per-switch analysis.

    ``fence_values`` binds the switch's stable registers (vaddr →
    value); ``sram_values`` binds its SRAM image at analysis time (word
    → value).  Either may be ``None`` — that dimension stays unknown and
    the analysis is conservative along it, exactly as in
    :func:`check_fleet`.
    """

    name: str
    fence_values: Optional[Mapping[int, int]] = None
    sram_values: Optional[Mapping[int, int]] = None


@dataclass
class MultiSwitchRaceReport:
    """Per-switch verdicts for one fleet admitted across many switches.

    The same fleet admitted on switches with different stable-register
    values or SRAM allocations diverges (or not) *per switch*: a fence
    falsified on switch A may pass on switch B, and a claim epoch
    reachable on B may be unreachable on A.  Each entry of ``switches``
    is a full :class:`FleetRaceReport` for that binding; the fleet-wide
    verdicts are the conjunctions.
    """

    switches: Dict[str, FleetRaceReport]

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics on any switch."""
        return all(report.ok for report in self.switches.values())

    @property
    def race_free(self) -> bool:
        """Zero diagnostics on every switch: order insensitive
        everywhere the fleet is admitted."""
        return all(report.race_free
                   for report in self.switches.values())

    @property
    def racy_switches(self) -> List[str]:
        """Switch names with at least one error diagnostic."""
        return [name for name, report in self.switches.items()
                if not report.ok]

    def format(self) -> str:
        """Per-switch sections plus a fleet-wide verdict line."""
        lines: List[str] = []
        for name, report in self.switches.items():
            lines.append(f"-- switch {name} --")
            lines.append(report.format())
        verdict = ("race-free" if self.race_free
                   else "racy" if not self.ok else "shared")
        lines.append(f"fleet-wide: {verdict} across "
                     f"{len(self.switches)} switch(es)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key order)."""
        return {
            "ok": self.ok,
            "race_free": self.race_free,
            "racy_switches": self.racy_switches,
            "switches": {name: report.to_dict()
                         for name, report in self.switches.items()},
        }


def check_fleet_multiswitch(
        summaries: Sequence[ProgramAccessSummary],
        switches: Sequence[SwitchBinding],
) -> MultiSwitchRaceReport:
    """Analyze one fleet against every switch it is admitted on.

    Equivalent to one :func:`check_fleet` per binding — each with that
    switch's ``fence_values``/``sram_values`` — collected into a
    :class:`MultiSwitchRaceReport`.  An empty ``switches`` sequence gets
    the single conservative, unbound analysis under the name ``"*"``.
    """
    if not switches:
        return MultiSwitchRaceReport(
            switches={"*": check_fleet(summaries)})
    reports: Dict[str, FleetRaceReport] = {}
    for binding in switches:
        if binding.name in reports:
            raise ValueError(
                f"duplicate switch binding name: {binding.name!r}")
        reports[binding.name] = check_fleet(
            summaries, fence_values=binding.fence_values,
            sram_values=binding.sram_values)
    return MultiSwitchRaceReport(switches=reports)
