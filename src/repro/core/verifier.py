"""Static verification of TPP programs (the eBPF-style admission layer).

The paper's safety story (§3.4) is reactive: a malformed TPP is caught at
runtime, hop by hop, as dataplane faults stamped into the packet.  This
module adds the missing *proactive* layer: an abstract interpreter that,
given the network-wide :class:`~repro.core.memory_map.MemoryMap`, a hop
budget, the word size, and the TCPU's instruction limit, proves program
properties without executing a single instruction:

- **instruction count** against the switch limit (``TPP001``);
- **symbolic stack tracking** — ``push``/``pop`` deltas are summed
  per instruction; because a fence kills the *suffix* of a program, every
  per-hop SP delta is a prefix sum, so the reachable SP interval after
  ``h`` hops is exactly ``[h * dmin, h * dmax]`` over the achievable
  per-hop deltas.  Overflow (``TPP002``) and underflow (``TPP003``) are
  therefore decided exactly, not approximated;
- **effective-address range analysis** for ``word`` and ``pair`` packet
  operands (``TPP004``);
- **address resolution** against the memory map: unmapped regions
  (``TPP005``), writes into read-only statistics (``TPP006``), and —
  when the caller supplies the switch's SRAM allocations — accesses into
  another task's protection domain (``TPP007``);
- **CEXEC reachability**: a conditional whose operand words are provably
  constant and whose condition can never hold makes the rest of the
  program statically dead (``TPP008``); a constant-true conditional is
  reported as ``TPP010``.  Both are read off the one relational walk
  (:mod:`repro.core.relational`), run *unpinned*: an operand word is
  constant only if it holds that value at every hop of the budget — no
  hop can rewrite it, or the program itself re-establishes it — and
  each switch-state write stranded behind the first never-passing fence
  is named with the ``TPP012`` info code;
- **per-hop memory-budget accounting**: bytes consumed per hop times the
  hop budget against the allocated packet memory (``TPP009``).

A clean program earns a :class:`VerifiedProgram` certificate.  The
certificate is *per-execution* sound: it pins the program fingerprint,
memory length and per-hop stride, and carries a ``[guard_lo, guard_hi]``
interval for the header's hop/SP counter such that **one** execution
starting inside the interval cannot violate packet-memory bounds or the
stack discipline.  Three consumers read it: endpoint / edge admission
(reject before sending), the per-TCPU fleet race table
(:meth:`repro.core.tcpu.TCPU.trust`), and the batch plan — the vector
lane runs a batch only when every section sits inside the guard, and
otherwise hands it to the scalar lane.  The scalar lane itself never
consults a certificate: its closures keep every bounds and stack check,
so a corrupted or replayed header faults exactly as in the interpreter.
Switch-side protection (read-only statistics, SRAM domains, unbound
addresses) depends on per-switch state the verifier cannot see, and
stays inside the MMU accessors.

The dead-code analyses (``TPP008``/``TPP012``) are deliberately
lint-only: they read the program's memory image, which the batch guard
never checks — a rebound template (``rebind``) shares its program key
with every other image of itself.  Execution therefore reads only the
certificate's image-independent fields; everything proved on the image
lives in :attr:`VerifiedProgram.summary`, whose key carries that image,
and is read by race tables only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.exceptions import FaultCode, TPPError
from repro.core.isa import ISA, Instruction, stack_extremes
from repro.core.memory_map import MemoryMap, SRAM_BASE, is_sram, region_of
from repro.core.racecheck import (
    ProgramAccessSummary,
    analyze_sram_dataflow,
    summarize_instructions,
)
from repro.core.relational import (
    HOP_SCAN_LIMIT,
    RelationalSummary,
    analyze_relations,
)
from repro.core.tcpu import DEFAULT_MAX_INSTRUCTIONS
from repro.core.tpp import AddressingMode, TPPSection

#: Upper clamp of certificate guards — the TPP header's hop/SP field is
#: 16 bits, so no in-flight section can carry a larger counter.
GUARD_MAX = 0xFFFF

#: Stable diagnostic codes with their default severity and the runtime
#: fault each one predicts (``None`` for pure lint findings).
DIAGNOSTIC_CODES: Dict[str, Tuple[str, Optional[FaultCode]]] = {
    "TPP001": ("error", FaultCode.TOO_MANY_INSTRUCTIONS),
    "TPP002": ("error", FaultCode.STACK_OVERFLOW),
    "TPP003": ("error", FaultCode.STACK_UNDERFLOW),
    "TPP004": ("error", FaultCode.MEMORY_BOUNDS),
    "TPP005": ("error", FaultCode.BAD_ADDRESS),
    "TPP006": ("error", FaultCode.WRITE_PROTECTED),
    "TPP007": ("error", FaultCode.SRAM_PROTECTION),
    "TPP008": ("warning", None),
    "TPP009": ("info", None),
    "TPP010": ("info", None),
    "TPP011": ("error", None),
    "TPP012": ("info", None),
}


class VerificationError(TPPError):
    """An enforced admission check rejected a program.

    Carries the full :class:`VerificationResult` so callers can render
    every diagnostic, not just the first.
    """

    def __init__(self, result: "VerificationResult") -> None:
        errors = result.errors
        summary = "; ".join(
            f"{d.code}: {d.message}" for d in errors[:3])
        if len(errors) > 3:
            summary += f" (+{len(errors) - 3} more)"
        super().__init__(f"TPP verification failed: {summary}")
        self.result = result


@dataclass(frozen=True)
class Diagnostic:
    """One finding of the verifier, with a stable machine-readable code."""

    code: str                          #: ``TPP0xx``
    severity: str                      #: ``error`` | ``warning`` | ``info``
    message: str
    instruction: Optional[int] = None  #: index into the program, if any
    line: Optional[int] = None         #: source line, when assembled
    hop: Optional[int] = None          #: earliest hop the fault can occur
    fault: Optional[FaultCode] = None  #: runtime fault this predicts

    def format(self, source_name: str = "") -> str:
        """Human-readable one-liner, ``file:line:`` prefixed when known."""
        prefix = ""
        if source_name:
            prefix = (f"{source_name}:{self.line}: " if self.line
                      else f"{source_name}: ")
        elif self.line:
            prefix = f"line {self.line}: "
        where = []
        if self.instruction is not None:
            where.append(f"instruction {self.instruction}")
        if self.hop is not None:
            where.append(f"hop {self.hop}")
        suffix = f" [{', '.join(where)}]" if where else ""
        return (f"{prefix}{self.code} {self.severity}: "
                f"{self.message}{suffix}")

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (for ``tppasm lint --json``)."""
        return {
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
            "instruction": self.instruction,
            "line": self.line,
            "hop": self.hop,
            "fault": self.fault.name if self.fault else None,
        }


@dataclass(frozen=True)
class VerifiedProgram:
    """Certificate that a program passed static verification.

    Sound *per execution*: any single execution of the fingerprinted
    program over packet memory of exactly ``memory_len`` bytes (with
    per-hop stride ``perhop_len_bytes``) whose starting hop/SP counter
    lies in ``[guard_lo, guard_hi]`` cannot overrun packet memory or
    violate the stack discipline.  The batch engine re-checks those
    three pinned facts per batch before the vector lane may run;
    trusting a certificate never changes observable behaviour.
    """

    program_key: bytes
    mode: AddressingMode
    word_size: int
    n_instructions: int
    memory_len: int
    perhop_len_bytes: int
    max_hops: int
    guard_lo: int
    guard_hi: int
    has_cexec: bool
    #: Everything the fleet race analysis needs — SRAM access sets,
    #: stable fences and relational facts, true at *every* hop of
    #: ``max_hops`` (:func:`repro.core.racecheck.summarize_instructions`).
    #: The only image-dependent part of a certificate (``summary.key``
    #: names the image); race tables read it, execution never does.
    summary: ProgramAccessSummary
    #: Task the program was verified under (TPP007 isolation domain).
    task_id: int = 0
    #: Dataflow class of every written/claimed SRAM word as sorted
    #: ``(word, class)`` pairs (:func:`repro.core.racecheck.
    #: analyze_sram_dataflow`): ``accumulate`` (additive
    #: read-modify-write chains, prefix-scan vectorizable), ``claim``
    #: (CSTORE-only, first-match-wins) or ``mixed`` (safe lane only).
    #: The batched engine refuses to vectorize unless the plan's own
    #: analysis reproduces exactly this pinned classification.
    sram_dataflow: Tuple[Tuple[int, str], ...] = ()

    @property
    def execution_facts(self) -> tuple:
        """The image-independent fields, all the batch plan and its
        guard may read: certificates of one program key that agree here
        are interchangeable to execution."""
        return (self.guard_lo, self.guard_hi, self.memory_len,
                self.perhop_len_bytes, self.has_cexec, self.sram_dataflow)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (for ``tppasm lint --json``)."""
        return {
            "program_key": self.program_key.hex(),
            "mode": self.mode.name.lower(),
            "word_size": self.word_size,
            "n_instructions": self.n_instructions,
            "memory_len": self.memory_len,
            "perhop_len_bytes": self.perhop_len_bytes,
            "max_hops": self.max_hops,
            "guard_lo": self.guard_lo,
            "guard_hi": self.guard_hi,
            "has_cexec": self.has_cexec,
            "task_id": self.task_id,
            "sram_dataflow": [list(p) for p in self.sram_dataflow],
            "summary": self.summary.to_dict(),
        }


@dataclass
class VerificationResult:
    """Everything one :func:`verify` call established."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    certificate: Optional[VerifiedProgram] = None
    #: Hop capacity of the allocated packet memory, from the TPP009
    #: budget accounting: the first hop whose worst-case stack or bounds
    #: access would fault, or ``None`` when no violation exists inside
    #: the hop horizon (effectively unbounded).  Surfaced structurally
    #: so admission layers can budget hops without parsing diagnostics.
    hop_capacity: Optional[int] = None

    @property
    def ok(self) -> bool:
        """No error-severity diagnostics (warnings/info allowed)."""
        # Read on every endpoint send: one frame, no list built.
        for diagnostic in self.diagnostics:
            if diagnostic.severity == "error":
                return False
        return True

    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "error"]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == "warning"]

    def format(self, source_name: str = "") -> str:
        """All diagnostics plus a verdict line, human-readable."""
        lines = [d.format(source_name) for d in self.diagnostics]
        n_err, n_warn = len(self.errors), len(self.warnings)
        verdict = "verified" if self.ok else "rejected"
        lines.append(f"{verdict}: {n_err} error(s), {n_warn} warning(s)")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (for ``tppasm lint --json``)."""
        return {
            "ok": self.ok,
            "hop_capacity": self.hop_capacity,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "certificate": (self.certificate.to_dict()
                            if self.certificate else None),
        }

    def raise_on_error(self) -> "VerificationResult":
        """Raise :class:`VerificationError` unless verification passed."""
        if not self.ok:
            raise VerificationError(self)
        return self


# --------------------------------------------------------------------- #
# The abstract interpreter
# --------------------------------------------------------------------- #

def verify(instructions: Sequence[Instruction], *,
           mode: AddressingMode = AddressingMode.STACK,
           word_size: int = 4,
           memory_len: int = 0,
           perhop_len_bytes: int = 0,
           memory_map: Optional[MemoryMap] = None,
           max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
           max_hops: Optional[int] = None,
           initial_memory: Optional[bytes] = None,
           task_id: int = 0,
           sram_regions: Optional[Iterable[Any]] = None,
           lines: Optional[Sequence[int]] = None) -> VerificationResult:
    """Statically verify a decoded TPP program.

    ``max_hops`` is the admission horizon: the number of switch
    executions the program must survive.  ``None`` derives the horizon
    from what the allocated packet memory can actually support (the
    §2.1 reading: the end-host preallocated exactly the memory it
    needs), so only a program that cannot complete even its *first*
    execution is rejected on hop-dependent grounds.

    ``initial_memory`` enables the constant-condition CEXEC analysis
    (``TPP008``/``TPP010``); ``sram_regions`` (objects with
    ``contains(word)``/``task_id``, e.g.
    :class:`repro.core.mmu.SRAMRegion`) enables the SRAM protection
    check (``TPP007``) against a concrete switch allocation table.
    ``lines`` maps instruction index to a source line for diagnostics.
    """
    checker = _Checker(list(instructions), mode, word_size, memory_len,
                       perhop_len_bytes,
                       memory_map if memory_map else MemoryMap.standard(),
                       max_instructions, max_hops, initial_memory,
                       task_id, sram_regions, lines)
    return checker.run()


def verify_program(program: Any,
                   memory_map: Optional[MemoryMap] = None,
                   max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                   max_hops: Optional[int] = None,
                   task_id: int = 0,
                   sram_regions: Optional[Iterable[Any]] = None,
                   ) -> VerificationResult:
    """Verify an :class:`~repro.core.assembler.AssembledProgram`.

    The hop budget defaults to the budget the program was assembled for
    (its ``hops`` directive), and diagnostics carry source lines.
    """
    if max_hops is None:
        max_hops = getattr(program, "hops", None)
    return verify(
        program.instructions,
        mode=program.mode,
        word_size=program.word_size,
        memory_len=len(program.initial_memory),
        perhop_len_bytes=program.perhop_len_bytes,
        memory_map=memory_map,
        max_instructions=max_instructions,
        max_hops=max_hops,
        initial_memory=bytes(program.initial_memory),
        task_id=task_id,
        sram_regions=sram_regions,
        lines=getattr(program, "lines", None),
    )


def verify_section(tpp: TPPSection,
                   memory_map: Optional[MemoryMap] = None,
                   max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                   max_hops: Optional[int] = None,
                   ) -> VerificationResult:
    """Verify a wire-decoded TPP section (edge-admission use).

    With ``max_hops=None`` the horizon is derived from the section's own
    memory capacity — an in-flight section does not declare a hop
    budget, so admission asks "is this program self-consistent with the
    memory it carries?".
    """
    return verify(
        tpp.instructions,
        mode=tpp.mode,
        word_size=tpp.word_size,
        memory_len=len(tpp.memory),
        perhop_len_bytes=tpp.perhop_len_bytes,
        memory_map=memory_map,
        max_instructions=max_instructions,
        max_hops=max_hops,
        initial_memory=bytes(tpp.memory),
        task_id=tpp.task_id,
    )


#: Identity of one admission verdict: program key, task id, memory
#: image, per-hop stride, hop budget.
AdmissionKey = Tuple[bytes, int, bytes, int, Optional[int]]


def admission_key(subject: Any, task_id: int = 0) -> AdmissionKey:
    """Memo key under which an admission point may reuse a verdict.

    Names everything :func:`verify_program` (an ``AssembledProgram``,
    verified as ``task_id`` against its own ``.hops`` budget) or
    :func:`verify_section` (an in-flight :class:`TPPSection`: its own
    task id, no declared budget) reads from the subject.  The memory
    *image* is part of it, not just its length: the verifier folds
    constants out of it (TPP008/TPP012, fences), so two rebinds of one
    template are two admissions.
    """
    if isinstance(subject, TPPSection):
        return (subject.program_key, subject.task_id,
                bytes(subject.memory), subject.perhop_len_bytes, None)
    return (subject.program_key, task_id, bytes(subject.initial_memory),
            subject.perhop_len_bytes, getattr(subject, "hops", None))


class _Checker:
    """Single-use analysis state for one :func:`verify` call."""

    def __init__(self, instructions, mode, word_size, memory_len,
                 perhop_len_bytes, memory_map, max_instructions,
                 max_hops, initial_memory, task_id, sram_regions,
                 lines) -> None:
        self.instructions = instructions
        self.mode = mode
        self.word = word_size
        self.memory_len = memory_len
        self.perhop = perhop_len_bytes
        self.memory_map = memory_map
        self.max_instructions = max_instructions
        self.max_hops = max_hops
        self.initial_memory = initial_memory
        self.task_id = task_id
        self.sram_regions = list(sram_regions) if sram_regions else []
        self.lines = lines
        self.diagnostics: List[Diagnostic] = []
        self.hop_mode = mode == AddressingMode.HOP
        # Running SP delta *before* each instruction (prefix sums) and
        # the extreme per-hop SP deltas.
        self.prefix, self.dmin, self.dmax = stack_extremes(
            instructions, word_size)
        self.shapes = [ISA[i.opcode].packet for i in instructions]
        self.pushes = [j for j, s in enumerate(self.shapes) if s == "push"]
        self.pops = [j for j, s in enumerate(self.shapes) if s == "pop"]
        self.constraints = self._counter_constraints()
        # Relational facts, unpinned (``entry=None``): true at every
        # hop of the budget.  Consumed by the dead-code analysis and
        # handed to the certificate's summary builder.
        self.relational: Optional[RelationalSummary] = None
        if initial_memory is not None:
            self.relational = analyze_relations(
                instructions, mode=mode, word_size=word_size,
                memory_len=memory_len,
                perhop_len_bytes=perhop_len_bytes,
                initial_memory=initial_memory, entry=None,
                max_hops=max_hops, memory_map=self.memory_map)

    # -- diagnostics ---------------------------------------------------- #

    def diag(self, code: str, message: str,
             instruction: Optional[int] = None,
             hop: Optional[int] = None,
             severity: Optional[str] = None) -> None:
        default_severity, fault = DIAGNOSTIC_CODES[code]
        line = None
        if (self.lines is not None and instruction is not None
                and instruction < len(self.lines)):
            line = self.lines[instruction]
        self.diagnostics.append(Diagnostic(
            code=code, severity=severity or default_severity,
            message=message, instruction=instruction, line=line, hop=hop,
            fault=fault))

    # -- driver --------------------------------------------------------- #

    def run(self) -> VerificationResult:
        self.check_instruction_count()
        self.check_switch_addresses()
        self.check_absolute_accesses()
        capacity = self.check_hop_budget()
        self.check_dead_code()
        result = VerificationResult(diagnostics=self.diagnostics,
                                    hop_capacity=capacity)
        if result.ok and self.word in (4, 8):
            result.certificate = self.certificate(capacity)
        return result

    # -- individual analyses -------------------------------------------- #

    def check_instruction_count(self) -> None:
        n = len(self.instructions)
        if n > self.max_instructions:
            self.diag("TPP001",
                      f"{n} instructions exceed the per-TPP limit of "
                      f"{self.max_instructions}", hop=0)

    def check_switch_addresses(self) -> None:
        """Resolve every switch operand against the network-wide map."""
        for j, instruction in enumerate(self.instructions):
            opcode = instruction.opcode
            writes = ISA[opcode].writes_switch
            if not (writes or ISA[opcode].reads_switch):
                continue
            addr = instruction.addr
            descriptor = self.memory_map.describe(addr)
            if descriptor is None:
                self.diag("TPP005",
                          f"{opcode.name} references unmapped address "
                          f"{addr:#06x} ({region_of(addr)} region)",
                          instruction=j)
                continue
            if writes and not descriptor.writable:
                self.diag("TPP006",
                          f"{opcode.name} writes read-only statistic "
                          f"{descriptor.name}", instruction=j)
            if self.sram_regions and is_sram(addr):
                word = addr - SRAM_BASE
                for region in self.sram_regions:
                    if (region.contains(word)
                            and region.task_id != self.task_id):
                        self.diag(
                            "TPP007",
                            f"{opcode.name} accesses SRAM word {word} "
                            f"owned by task {region.task_id} (program "
                            f"runs as task {self.task_id})",
                            instruction=j)
                        break

    def check_absolute_accesses(self) -> None:
        """Hop-independent packet-memory accesses (decided at hop 0).

        Covers ``pair`` operands in every mode, and ``word`` operands
        when the program is not hop-addressed.
        """
        for j, instruction in enumerate(self.instructions):
            opcode = instruction.opcode
            shape = ISA[opcode].packet
            base = instruction.offset * self.word
            if shape == "pair":
                width = 2 * self.word
            elif shape == "word" and not self.hop_mode:
                width = self.word
            else:
                continue
            if base + width > self.memory_len:
                what = ("operand pair" if width > self.word else "operand")
                self.diag("TPP004",
                          f"{opcode.name} {what} at bytes "
                          f"[{base}, {base + width}) overruns packet "
                          f"memory of {self.memory_len} bytes",
                          instruction=j)

    def _counter_constraints(
            self) -> List[Tuple[str, int, int, int, int, str]]:
        """Every packet-memory constraint that depends on the header's
        hop/SP counter, stated once: the hop capacity, the
        TPP002/TPP003/TPP004 text and the certificate guard are all read
        from this list.

        Each is ``(code, instruction, sense, bound, off, text)``: an
        execution entering with counter ``c`` reaches ``r = coef * c +
        off`` (``coef`` is the per-hop stride in hop mode, else 1) and
        faults unless ``r <= bound`` (``sense`` 1) or ``r >= bound``
        (``sense`` -1); ``text`` words the violation at ``r``.  Listed
        push, pop, hop-relative: the order in which violations tied at
        one hop are reported.
        """
        memlen, word = self.memory_len, self.word
        past = f"packet memory of {memlen} bytes"
        names = [i.opcode.name for i in self.instructions]
        if self.hop_mode:
            return [("TPP004", j, 1, memlen - word,
                     self.instructions[j].offset * word,
                     f"{names[j]} hop-relative operand at byte {{}} "
                     f"overruns {past}")
                    for j, shape in enumerate(self.shapes)
                    if shape == "word"]
        constraints = [("TPP002", j, 1, memlen - word, self.prefix[j],
                        f"{names[j]} can reach SP={{}} past {past}")
                       for j in self.pushes]
        for j in self.pops:
            constraints.append(
                ("TPP003", j, -1, word, self.prefix[j],
                 f"{names[j]} can reach SP={{}} with an empty stack"))
            constraints.append(
                ("TPP004", j, 1, memlen - word, self.prefix[j] - word,
                 f"{names[j]} can read at byte {{}} past {past}"))
        return constraints

    def _first_violation(self) -> Optional[Tuple[int, str, str, int]]:
        """``(hop, code, message, instruction)`` of the earliest
        violation when each hop is entered with the worst counter
        reachable after that many clean hops (``h * dmax`` against an
        upper bound, ``h * dmin`` against a lower one, ``h`` itself in
        hop mode).  Every constraint is linear in ``h``, so its first
        violating hop is one division."""
        first = None
        for code, j, sense, bound, off, text in self.constraints:
            step = (self.perhop if self.hop_mode
                    else self.dmax if sense > 0 else self.dmin)
            # Violated at hop h iff sense * step * h + excess > 0.
            excess = sense * (off - bound)
            if excess > 0:
                h = 0
            elif sense * step > 0:
                h = -excess // (sense * step) + 1
            else:
                continue
            if first is None or h < first[0]:
                first = (h, code, text.format(h * step + off), j)
        return first

    def check_hop_budget(self) -> Optional[int]:
        """Find the first stack/bounds violation; returns the memory's
        hop capacity (``None`` when unbounded in the horizon).

        Emits the violation as an error when it falls inside the
        requested budget (always, for a hop-0 violation: the program
        cannot complete even one execution), and the ``TPP009``
        budget-accounting record either way.
        """
        if self.hop_mode and (self.pushes or self.pops):
            for j in self.pushes + self.pops:
                opcode = self.instructions[j].opcode
                self.diag("TPP011",
                          f"{opcode.name} in a hop-addressed program: "
                          f"the header counter is the hop index, so "
                          f"stack discipline cannot be verified",
                          instruction=j)
            return 0
        # The TPP009 record reports the memory's true capacity over the
        # full horizon; only violations *inside* the requested budget
        # become errors.
        capacity: Optional[int] = None
        violation = self._first_violation()
        if violation is not None and violation[0] < max(
                self.max_hops or 0, HOP_SCAN_LIMIT):
            capacity, code, message, j = violation
            if capacity == 0:
                self.diag(code, message + " (on the first execution)",
                          instruction=j, hop=0)
            elif self.max_hops is not None and capacity < self.max_hops:
                self.diag(code, message + f" at hop {capacity} of the "
                          f"{self.max_hops}-hop budget",
                          instruction=j, hop=capacity)
        self._budget_record(capacity)
        return capacity

    def _budget_record(self, capacity: Optional[int]) -> None:
        footprint = self.perhop if self.hop_mode else max(self.dmax, 0)
        if footprint <= 0:
            return
        supported = (f"{capacity}" if capacity is not None
                     else f">= {HOP_SCAN_LIMIT}")
        budget = (f"{self.max_hops}" if self.max_hops is not None
                  else "unspecified")
        severity = None
        if (capacity is not None and self.max_hops is not None
                and capacity < self.max_hops):
            severity = "warning"
        self.diag("TPP009",
                  f"per-hop footprint {footprint} B x hop budget "
                  f"{budget} over {self.memory_len} B of packet memory "
                  f"(supports {supported} hop(s))", severity=severity)

    # -- CEXEC reachability --------------------------------------------- #

    def check_dead_code(self) -> None:
        """Constant-condition CEXEC analysis (lint-only), read off the
        relational walk.

        The walk ran unpinned, so an operand word counts as constant
        only if it holds that value at every hop of the budget.  A
        fence that can never pass yields ``TPP008``; each switch-state
        write stranded behind the first one a ``TPP012`` info record; a
        constant-true fence ``TPP010``.
        """
        relational = self.relational
        if relational is None:
            return
        last = len(self.instructions) - 1
        reported: set = set()
        for k, _, mask, expected in relational.const_cexecs:
            if expected & ~mask:
                if k < last:
                    reported.add(k)
                    self.diag(
                        "TPP008",
                        f"CEXEC condition can never hold (value "
                        f"{expected:#x} has bits outside mask "
                        f"{mask:#x}): the {last - k} following "
                        f"instruction(s) are statically dead",
                        instruction=k)
            elif mask == 0 and expected == 0:
                self.diag("TPP010",
                          "CEXEC condition is constant-true (mask 0, "
                          "value 0): the conditional never disables "
                          "anything", instruction=k)
        dead_at = relational.dead_suffix_at
        if dead_at is None:
            return
        if dead_at < last and dead_at not in reported:
            # Decided by an SRAM operand the program itself made constant.
            self.diag(
                "TPP008",
                f"CEXEC condition is relationally never true: the "
                f"{last - dead_at} following instruction(s) are "
                f"statically dead", instruction=dead_at)
        for j in range(dead_at + 1, len(self.instructions)):
            opcode = self.instructions[j].opcode
            if ISA[opcode].writes_switch:
                self.diag(
                    "TPP012",
                    f"{opcode.name} is relationally unreachable "
                    f"(behind the statically-false CEXEC at "
                    f"instruction {dead_at}): it can never execute",
                    instruction=j)

    # -- certificate ---------------------------------------------------- #

    def certificate(self, capacity: Optional[int]) -> VerifiedProgram:
        """Build the per-execution safety guard for a clean program."""
        word, memlen = self.word, self.memory_len
        guard_lo, guard_hi = 0, GUARD_MAX
        coef = self.perhop if self.hop_mode else 1
        for _, _, sense, bound, off, _ in self.constraints:
            if sense < 0:
                guard_lo = max(guard_lo, bound - off)
            elif coef > 0:
                guard_hi = min(guard_hi, (bound - off) // coef)
            elif off > bound:  # unreachable: TPP004 above
                guard_hi = -1
        max_hops = self.max_hops
        if max_hops is None:
            max_hops = capacity if capacity is not None else HOP_SCAN_LIMIT
        dataflow = analyze_sram_dataflow(
            self.instructions, mode=self.mode, word_size=word)
        summary = summarize_instructions(
            self.instructions, task_id=self.task_id, mode=self.mode,
            word_size=word, memory_len=memlen,
            perhop_len_bytes=self.perhop,
            initial_memory=self.initial_memory, max_hops=self.max_hops,
            memory_map=self.memory_map, entry=None,
            relational=self.relational)
        return VerifiedProgram(
            program_key=summary.program_key,
            mode=self.mode,
            word_size=word,
            n_instructions=len(self.instructions),
            memory_len=memlen,
            perhop_len_bytes=self.perhop,
            max_hops=max_hops,
            guard_lo=max(guard_lo, 0),
            guard_hi=max(min(guard_hi, GUARD_MAX), -1),
            has_cexec=any(ISA[i.opcode].fence for i in self.instructions),
            summary=summary,
            task_id=self.task_id,
            sram_dataflow=dataflow.classes,
        )
