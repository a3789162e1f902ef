"""Batched TPP execution: drain-a-queue, execute-as-a-group.

The scalar TCPU pays its fixed costs — program-cache lookup, certificate
guard, report construction, Python dispatch — once per packet.  But the
workload the paper describes is *massively repetitive*: millions of
probes carrying the same five-instruction program.  A switch that drains
its ingress queue as groups of same-``program_key`` frames pays the
cache lookup once per group, and runs the one kind of program for which
execution order across the group is the whole difficulty — the
*stateful atoms* of "Packet Transactions": read-modify-write on switch
state — as a handful of numpy array operations.

Two lanes, selected per batch:

**Vector lane** (the SRAM write lane).  Eligible when the program has a
trusted certificate, consists solely of ``NOP`` and the two update
shapes below on absolutely-addressed packet memory, and every section in
the batch is flag-clean with identical geometry, task id and hop/SP
counter inside the certificate guard.  Packet memories live as rows of
one numpy byte matrix (:class:`BatchArena`) and the kernel runs
*instruction-major*, one column operation per instruction.  The
certificate's pinned SRAM *dataflow classes*
(:func:`repro.core.racecheck.analyze_sram_dataflow`) say the sequential
write order is reproducible from per-packet data:

- **accumulate** — words only touched by additive read-modify-write
  chains (``ADD [Packet:k],[Sram:W]; STORE [Sram:W],[Packet:k]``).  The
  kernel tracks each packet's *delta* vector; the per-packet entry
  values are one exclusive prefix-scan (``entry_i = S0 + Σ_{j<i}
  delta_j``), applied to the affine packet-memory columns in the
  epilogue.  Bit-identical to sequential order by the affine invariant:
  every such column holds ``entry(w) + independent-constant`` with
  coefficient exactly one.
- **claim** — words touched by exactly one CSTORE and nothing else:
  the paper's claim protocol.  The kernel replays the first-match-wins
  chain over the batch with exact Python integers.

These are the only shapes :mod:`repro.telemetry` generates and the only
ones any benchmark workload sends.  The kernel calls no MMU reader and
SRAM protection is checked before it starts, so nothing in it can
fault; SRAM commits happen in the epilogue.  The eligibility rules make
the packet-major → instruction-major reorder unobservable, and the
differential suite enforces bit-identical reports, packet memory and
final SRAM image (``tests/core/test_batch_differential.py``).

**Safe lane** (everything else — any read of a statistic, stack or hop
addressing, CEXEC, a write with another dataflow).  Packet-at-a-time
through the batch's shared :class:`~repro.core.fastpath.CompiledEntry` —
full scalar semantics (CEXEC bookkeeping, cross-word writes, per-packet
faults) with the cache lookup still amortized.  Stateless reads are not
a lane: the compiled closures already decode such a program once, and
instruction-major order buys them nothing.  Every demotion is counted
by reason in :attr:`repro.core.tcpu.TCPU.batch_demotions`.  With
compilation disabled (``TCPU(compile=False)``) or batching disabled
(``TCPU(batch=False)``) every batch degenerates to a loop over
:meth:`repro.core.tcpu.TCPU.execute`, which is also the reference the
differential tests compare against.  numpy is optional (the package
declares no dependencies): without it every batch takes the safe lane.
"""

from __future__ import annotations

from importlib.util import find_spec
from typing import Any, Dict, List, Optional, Sequence, Tuple, cast

from repro.core.exceptions import FaultCode, TCPUFault
from repro.core.fastpath import BatchPlan
from repro.core.mmu import ExecutionContext
from repro.core.tcpu import TCPU, ExecutionReport, pipeline_cycles
from repro.core.tpp import FLAG_DONE, TPPSection

#: Whether the vectorized lane is available at all.  When numpy is
#: missing every batch takes the (pure-python) safe lane; results are
#: identical, only slower.  numpy itself is imported by the first batch
#: that reaches the vector lane: *any* ingress batch loads this module,
#: and safe-lane-only traffic should not pay numpy's ~16 MB and ~0.2 s.
HAVE_NUMPY = find_spec("numpy") is not None

#: Big-endian word dtypes matching the wire format (and
#: ``fastpath._WORD_STRUCTS``).
_WORD_DTYPES = {4: ">u4", 8: ">u8"}


class BatchArena:
    """Packet memories of N same-shape sections as one numpy matrix.

    ``adopt`` semantics: each section's ``memory`` bytearray is replaced
    by a writable :class:`memoryview` of its row, so the vectorized
    kernel's column writes and every scalar code path (compiled
    closures, the interpreter, ``encode()``) see the *same* bytes with
    zero copying.  :meth:`release` moves the rows back into fresh
    bytearrays — required before a section travels a link again (the
    corruption injector resizes memory, which a row view cannot do).
    Built transiently per vectorized batch.
    """

    __slots__ = ("sections", "matrix")

    def __init__(self, sections: Sequence[TPPSection]) -> None:
        if not HAVE_NUMPY:
            raise RuntimeError("BatchArena requires numpy")
        import numpy as np
        if not sections:
            raise ValueError("cannot build an arena over zero sections")
        width = len(sections[0].memory)
        for section in sections:
            if len(section.memory) != width:
                raise ValueError(
                    f"arena sections must share a memory length: "
                    f"{len(section.memory)} != {width}")
        self.sections: List[TPPSection] = list(sections)
        matrix = np.empty((len(self.sections), width), dtype=np.uint8)
        for index, section in enumerate(self.sections):
            if width:
                matrix[index] = np.frombuffer(section.memory,
                                              dtype=np.uint8)
            section.memory = cast(bytearray, memoryview(matrix[index]))
        self.matrix = matrix

    def release(self) -> None:
        """Move every section's memory back into an owned bytearray."""
        for index, section in enumerate(self.sections):
            section.memory = bytearray(self.matrix[index])


def _demote(tcpu: TCPU, reason: str) -> None:
    demotions = tcpu.batch_demotions
    demotions[reason] = demotions.get(reason, 0) + 1


def execute_batch(tcpu: TCPU, sections: Sequence[TPPSection],
                  ctxs: Sequence[ExecutionContext]
                  ) -> List[ExecutionReport]:
    """Execute a group of same-``program_key`` TPPs on one TCPU.

    The reference semantics are ``[tcpu.execute(s, c) for s, c in
    zip(sections, ctxs)]`` — identical reports, packet memory, flags,
    wire bytes, final SRAM image, and counters-visible-to-programs;
    only wall-clock time and the TCPU's batch accounting differ.
    Sections whose program key diverges from the first section's (a
    caller bug, or corruption between grouping and execution) demote
    the whole batch to exactly that reference loop.
    """
    n = len(sections)
    if n != len(ctxs):
        raise ValueError(
            f"{n} sections but {len(ctxs)} execution contexts")
    if n == 0:
        return []
    if not tcpu.batch_enabled or not tcpu.compile_enabled:
        # Packet-at-a-time opt-outs: batching off, or no compiled
        # entries to share.
        return [tcpu.execute(section, ctx)
                for section, ctx in zip(sections, ctxs)]

    tcpu.batches_executed += 1
    tcpu.batched_tpps += n
    occupancy = tcpu.batch_occupancy
    occupancy[n] = occupancy.get(n, 0) + 1

    first = sections[0]
    key = first.program_key
    if len(first.instructions) > tcpu.max_instructions:
        # Scalar execute stamps the TOO_MANY_INSTRUCTIONS fault exactly;
        # key-mismatched stragglers also get their own correct handling.
        _demote(tcpu, "uncertified")
        return [tcpu.execute(section, ctx)
                for section, ctx in zip(sections, ctxs)]

    entry = tcpu._compiled_entry(first)
    plan = entry.batch_plan

    certificate = entry.certificate
    h0 = first.hop_or_sp
    task0 = first.task_id
    # First matching reason wins.
    demote: Optional[str] = None
    if not HAVE_NUMPY:
        demote = "no_numpy"
    elif plan is None:  # only certified entries carry a plan
        demote = "uncertified"
    elif plan.demote_reason is not None:
        # ``cexec`` (a per-packet branch on packet-memory contents,
        # which no guard below checks) or ``write_dataflow``.
        demote = plan.demote_reason
    elif not certificate.guard_lo <= h0 <= certificate.guard_hi:
        demote = "uncertified"
    # One pass: program-key uniformity (required for every lane) fused
    # with the per-section certificate guard for the vectorized lane.
    # The write lane commits SRAM once per word against one protection
    # domain, so mixed task ids (per-packet domains) are non-uniform.
    for section in sections:
        if section._program_key != key and section.program_key != key:
            _demote(tcpu, "non_uniform")
            return [tcpu.execute(section, ctx)
                    for section, ctx in zip(sections, ctxs)]
        if demote is None and (
                section.flags or section.hop_or_sp != h0
                or section.task_id != task0
                or len(section.memory) != certificate.memory_len
                or section.perhop_len_bytes != certificate.perhop_len_bytes):
            demote = "non_uniform"
    if demote is None:
        assert plan is not None
        # Write-lane precheck: every touched word resolves against the
        # (uniform) task id.  A protection fault here would hit every
        # packet identically — the safe lane reproduces it per packet.
        try:
            for w in plan.sram_words:
                tcpu.mmu._check_sram_access(w, task0)
        except TCPUFault:
            demote = "sram_protection"
        else:
            return _run_vectorized(tcpu, plan, sections, ctxs)
    _demote(tcpu, demote)

    # Safe lane: full scalar semantics, shared compiled entry.
    out: List[ExecutionReport] = []
    for section, ctx in zip(sections, ctxs):
        report = ExecutionReport()
        if section.flags & FLAG_DONE:
            out.append(report)
            continue
        ctx.task_id = section.task_id
        out.append(tcpu._run_entry(section, ctx, entry, report))
    return out


def _run_vectorized(tcpu: TCPU, plan: BatchPlan,
                    sections: Sequence[TPPSection],
                    ctxs: Sequence[ExecutionContext]
                    ) -> List[ExecutionReport]:
    """Instruction-major kernel of the SRAM write lane.

    Precondition (checked by :func:`execute_batch`): certificate guard
    holds for every section, all flags clear, geometry and task id
    uniform, SRAM protection admits every touched word, and the program
    is nothing but ``NOP`` and accumulate / claim micro-ops on absolute
    packet-memory offsets.  No reader is called and no offset leaves the
    certified memory length, so nothing below can fault.

    Invariant: at every step, column ``i`` of the matrix holds exactly
    the bytes packet ``i``'s memory would hold at that program point in
    *sequential* execution — except slots that are affine in an
    accumulate word, which hold ``value − entry_i(w)`` until the
    epilogue adds the prefix-scanned entry vector.
    """
    import numpy as np
    arena = BatchArena(sections)
    matrix = arena.matrix
    word = sections[0].word_size
    dtype = _WORD_DTYPES[word]
    mask = (1 << (8 * word)) - 1
    mmu = tcpu.mmu
    n = len(sections)
    task0 = sections[0].task_id
    for ctx in ctxs:
        ctx.task_id = task0  # as ``TCPU.execute`` leaves it
    views: Dict[int, Any] = {}

    def column(ea: int) -> Any:
        # Aliasing word-view of one packet-memory column.
        col = views.get(ea)
        if col is None:
            col = views[ea] = matrix[:, ea:ea + word].view(dtype)[:, 0]
        return col

    # ``acc_vecs[w][i]`` is packet ``i``'s running *delta* against its
    # entry value of accumulate word ``w`` (the affine columns hold the
    # same relative representation).  ``events`` replays per-packet
    # ``switch_writes`` in program order.
    acc_vecs: Dict[int, Any] = {
        w: np.zeros(n, dtype=dtype) for w in plan.acc_words}
    events: List[Tuple[Any, ...]] = []
    claim_state: Dict[int, Tuple[int, bool]] = {}

    assert plan.ops is not None
    # A store that is the program's final op may hand the kernel its
    # column *alias* instead of a copy: no later op can mutate the
    # column, the epilogue scan reads it before any fixup, and the
    # switch-write values come from the inclusive scan, never from the
    # (by then fixed-up) vector.
    tail_op = plan.ops[-1] if plan.ops else None
    for op in plan.ops:
        kind = op[0]
        if kind == "nop":
            continue
        if kind == "add_acc":
            _, w, offset = op
            lane = column(offset)
            lane += acc_vecs[w]
        elif kind == "store_acc":
            _, w, offset, vaddr = op
            col = column(offset)
            vec = col if op is tail_op else col.copy()
            events.append(("acc", vaddr, w, vec))
            acc_vecs[w] = vec
        else:  # cstore_claim: exact sequential first-match chain
            _, w, offset, vaddr = op
            cond_col = column(offset)
            src_col = column(offset + word)
            conds = cond_col.tolist()
            srcs = src_col.tolist()
            cur = int(mmu.peek_sram(w))
            olds: List[int] = []
            wins: List[bool] = []
            for i in range(n):
                olds.append(cur & mask)
                if cur == conds[i]:
                    cur = srcs[i]
                    wins.append(True)
                else:
                    wins.append(False)
            cond_col[:] = olds
            events.append(("claim", vaddr, srcs, wins))
            claim_state[w] = (cur, any(wins))

    # Epilogue: entry-vector fixups, SRAM commits, per-packet writes.
    entry_vecs: Dict[int, Any] = {}
    incl_values: Dict[int, List[int]] = {}
    for w in plan.acc_words:
        # entry_i = S0 + Σ_{j<i} delta_j  (mod 2^width).  At switch
        # drain sizes a python exclusive scan over the delta list is
        # cheaper than the half-dozen numpy dispatches of a cumsum
        # formulation, and exact by construction.  The inclusive
        # values (entry_i + delta_i) fall out of the same pass — the
        # per-packet switch-write values when the word's last store
        # closed the program.
        running = int(mmu.peek_sram(w)) & mask
        entries: List[int] = []
        incl: List[int] = []
        append_entry = entries.append
        append_incl = incl.append
        for d in acc_vecs[w].tolist():
            append_entry(running)
            running = (running + d) & mask
            append_incl(running)
        entry_vecs[w] = np.array(entries, dtype=dtype)
        incl_values[w] = incl
        mmu.poke_sram(w, running)
    for offset, w in plan.aff_slots:
        col = column(offset)
        col += entry_vecs[w]
    for w, (final_value, wrote) in claim_state.items():
        # An unclaimed word is never written back: the scalar path
        # only writes on a match.
        if wrote:
            mmu.poke_sram(w, final_value)
    switch_writes: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for event in events:
        tag, vaddr = event[0], event[1]
        if tag == "claim":
            _, _, srcs, wins = event
            for i in range(n):
                if wins[i]:
                    switch_writes[i].append((vaddr, srcs[i]))
            continue
        _, _, w, vec = event
        if vec is acc_vecs[w]:
            # The word's closing store: inclusive-scan values,
            # computed before the aff fixup touched any column
            # this vec may alias.
            values = incl_values[w]
        else:
            values = (vec + entry_vecs[w]).tolist()
        for i in range(n):
            switch_writes[i].append((vaddr, values[i]))

    # Reports, all uniform (no hop mode: the hop/SP counter stays put).
    n_executed = plan.n_instructions
    cycles = pipeline_cycles(n_executed)
    report_cls = ExecutionReport
    new_report = report_cls.__new__
    no_fault = FaultCode.NONE
    reports: List[ExecutionReport] = []
    append = reports.append
    for writes in switch_writes:
        report = new_report(report_cls)
        report.executed = n_executed
        report.skipped = 0
        report.fault = no_fault
        report.cexec_disabled_at = None
        report.cycles = cycles
        report.switch_writes = writes
        append(report)

    tcpu.verified_executions += n
    tcpu.tpps_executed += n
    tcpu.instructions_executed += n_executed * n
    tcpu.vector_batches += 1
    tcpu.vector_tpps += n
    arena.release()
    return reports
