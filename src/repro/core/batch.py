"""Batched TPP execution: drain-a-queue, execute-as-a-group.

The scalar TCPU pays its fixed costs — program-cache lookup, certificate
guard, report construction, Python dispatch — once per packet.  But the
workload the paper describes is *massively repetitive*: millions of
probes carrying the same five-instruction program.  A switch that drains
its ingress queue as groups of same-``program_key`` frames can pay those
fixed costs once per group, and — for the verified programs the
certificates (PR-4) make recognizable — execute the whole group as a
handful of numpy array operations instead of ``O(packets)`` Python
bytecode ("Packet Transactions" makes the same move in hardware:
compile the program once against the pipeline, then stream packets
through it).

Two lanes, selected per batch:

**Vectorized lane** (the fast one).  Eligible when the program has a
trusted certificate, contains no CEXEC, every read address is
*batch-stable* (:meth:`repro.core.mmu.MMU.reader_is_batch_stable`), and
every section in the batch is flag-clean with identical geometry, task
id and hop/SP counter inside the certificate guard.  Packet memories
live as rows of one numpy byte matrix (:class:`BatchArena`) and the
kernel runs *instruction-major*: for each instruction it gathers the
MMU reads for all packets, then updates one column of the matrix with a
single array operation.

Write-bearing programs vectorize too, when the certificate's pinned
SRAM *dataflow classes* (:func:`repro.core.racecheck.
analyze_sram_dataflow`) say the sequential write order is reproducible
from per-packet data:

- **accumulate** — words only touched by additive read-modify-write
  chains (``LOAD w; ADD ...; STORE w``).  The kernel tracks each
  packet's *delta* vector; the per-packet entry values are one
  exclusive prefix-scan (``entry_i = S0 + Σ_{j<i} delta_j``), applied
  to the affine packet-memory columns in the epilogue.  Bit-identical
  to sequential order by the affine invariant: every such column holds
  ``entry(w) + independent-constant`` with coefficient exactly one.
- **claim** — words touched by exactly one CSTORE and nothing else:
  the paper's claim protocol.  The kernel replays the first-match-wins
  chain over the batch with exact Python integers.
- **private-scatter** — words written but never read back in-program:
  last-writer-wins, committed once per word.

SRAM commits happen only in the epilogue, after the whole kernel ran
fault-free, so a mid-kernel fault never needs SRAM rewind — only the
packet matrix is restored from a pristine copy before the safe-lane
replay (batch-stable readers are pure, so the replay reproduces the
exact per-packet fault pattern the scalar path would have produced).

The eligibility rules make the packet-major → instruction-major reorder
unobservable, and the differential suite enforces bit-identical
reports, packet memory and final SRAM image
(``tests/core/test_batch_differential.py``).

**Safe lane** (everything else).  Packet-at-a-time through the batch's
shared :class:`~repro.core.fastpath.CompiledEntry` — full scalar
semantics (CEXEC bookkeeping, cross-word writes, per-packet faults)
with the cache lookup still amortized.  Every demotion is counted by
reason in :attr:`repro.core.tcpu.TCPU.batch_demotions`.  With
compilation disabled (``TCPU(compile=False)``) or batching disabled
(``TCPU(batch=False)``) every batch degenerates to a loop over
:meth:`repro.core.tcpu.TCPU.execute`, which is also the reference the
differential tests compare against.  numpy is optional (the package
declares no dependencies): without it every batch takes the safe lane.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple, cast

from repro.core.exceptions import FaultCode, TCPUFault
from repro.core.fastpath import BatchPlan, CompiledEntry
from repro.core.isa import Opcode
from repro.core.mmu import ExecutionContext
from repro.core.tcpu import TCPU, ExecutionReport, pipeline_cycles
from repro.core.tpp import AddressingMode, FLAG_DONE, TPPSection

try:  # pragma: no cover - CI runs the batch suites in both states
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None  # type: ignore[assignment]

#: Whether the vectorized lane is available at all.  When numpy is
#: missing every batch takes the (pure-python) safe lane; results are
#: identical, only slower.
HAVE_NUMPY = _np is not None

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

    The benchmark harness keeps an arena resident across executions and
    passes it to :meth:`repro.core.tcpu.TCPU.execute_batch`; the switch
    drain path builds one transiently per vectorized batch.
    """

    __slots__ = ("sections", "matrix", "views")

    def __init__(self, sections: Sequence[TPPSection]) -> None:
        if _np is None:
            raise RuntimeError("BatchArena requires numpy")
        if not sections:
            raise ValueError("cannot build an arena over zero sections")
        width = len(sections[0].memory)
        for section in sections:
            if len(section.memory) != width:
                raise ValueError(
                    f"arena sections must share a memory length: "
                    f"{len(section.memory)} != {width}")
        self.sections: List[TPPSection] = list(sections)
        matrix = _np.empty((len(self.sections), width), dtype=_np.uint8)
        for index, section in enumerate(self.sections):
            if width:
                matrix[index] = _np.frombuffer(section.memory,
                                               dtype=_np.uint8)
            section.memory = cast(bytearray, memoryview(matrix[index]))
        self.matrix = matrix
        #: Column views into ``matrix``, keyed per word size then byte
        #: offset.  Constructing ``matrix[:, ea:ea+word].view(dtype)``
        #: costs several numpy dispatches; a resident arena re-executes
        #: the same program shape every batch, so the kernel caches the
        #: (aliasing, always-current) views here.
        self.views: Dict[int, Dict[int, Any]] = {}

    def release(self) -> None:
        """Move every section's memory back into an owned bytearray."""
        for index, section in enumerate(self.sections):
            section.memory = bytearray(self.matrix[index])


def _demote(tcpu: TCPU, reason: str) -> None:
    demotions = tcpu.batch_demotions
    demotions[reason] = demotions.get(reason, 0) + 1


def execute_batch(tcpu: TCPU, sections: Sequence[TPPSection],
                  ctxs: Sequence[ExecutionContext],
                  arena: Optional[BatchArena] = None
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
    elif not plan.vectorizable:
        demote = "unstable_read"
    elif not certificate.guard_lo <= h0 <= certificate.guard_hi:
        demote = "uncertified"
    # One pass: program-key uniformity (required for every lane) fused
    # with the per-section certificate guard for the vectorized lane.
    for section in sections:
        if section._program_key != key and section.program_key != key:
            _demote(tcpu, "non_uniform")
            return [tcpu.execute(section, ctx)
                    for section, ctx in zip(sections, ctxs)]
        if demote is None and (
                section.flags or section.hop_or_sp != h0
                or len(section.memory) != certificate.memory_len
                or section.perhop_len_bytes != certificate.perhop_len_bytes):
            demote = "non_uniform"
    if demote is None:
        assert plan is not None
        reports, reason = _run_vectorized(tcpu, entry, plan, sections,
                                          ctxs, arena, h0)
        if reports is not None:
            return reports
        demote = reason or "fault_rewind"
        if demote == "fault_rewind":
            tcpu.batch_fallbacks += 1
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


def _run_vectorized(tcpu: TCPU, entry: CompiledEntry, plan: BatchPlan,
                    sections: Sequence[TPPSection],
                    ctxs: Sequence[ExecutionContext],
                    arena: Optional[BatchArena],
                    h0: int) -> Tuple[Optional[List[ExecutionReport]],
                                      Optional[str]]:
    """Instruction-major kernel; ``(None, reason)`` means "safe lane".

    Precondition (checked by :func:`execute_batch`): certificate guard
    holds for every section at ``hop_or_sp == h0``, all flags clear,
    geometry uniform, program free of CEXEC, reads batch-stable, and
    any writes lowered to write-lane micro-ops by their dataflow class.

    Invariant the write lanes preserve: at every step, column ``i`` of
    the matrix holds exactly the bytes packet ``i``'s memory would hold
    at that program point in *sequential* execution — except slots that
    are affine in an accumulate word, which hold ``value − entry_i(w)``
    until the epilogue adds the prefix-scanned entry vector.  SRAM is
    only committed in the epilogue, so a mid-kernel MMU fault needs no
    SRAM rewind: the matrix is restored from a pristine copy and the
    safe-lane replay starts from exactly the bytes the scalar path
    would have started from.
    """
    local_arena = arena is None
    if local_arena:
        arena = BatchArena(sections)
    assert arena is not None
    matrix = arena.matrix
    word = sections[0].word_size
    dtype = _WORD_DTYPES[word]
    mask = (1 << (8 * word)) - 1
    perhop = entry.certificate.perhop_len_bytes
    mmu = tcpu.mmu
    n = len(sections)
    views = arena.views.get(word)
    if views is None:
        views = arena.views[word] = {}

    def column(ea: int) -> Any:
        # Aliasing word-view of one packet-memory column; cached on the
        # arena so a resident batch loop pays the numpy view dispatches
        # only on its first execution.
        col = views.get(ea)
        if col is None:
            col = views[ea] = matrix[:, ea:ea + word].view(dtype)[:, 0]
        return col

    def bail(reason: str) -> Tuple[None, str]:
        assert arena is not None
        if local_arena:
            arena.release()
        return None, reason

    # A batch whose contexts are all one object (the warm steady state:
    # same ingress pipeline, same metadata) lets every batch-stable read
    # collapse to a single call broadcast across the lane — stable
    # readers are pure, so N identical calls and one call are the same
    # bytes.
    ctx0 = ctxs[0]
    shared_ctx = True
    for ctx in ctxs:
        if ctx is not ctx0:
            shared_ctx = False
            break
    if plan.uses_task_id:
        task0 = sections[0].task_id
        uniform_task = True
        for section in sections:
            if section.task_id != task0:
                uniform_task = False
                break
        if uniform_task:
            ctx0.task_id = task0
            if not shared_ctx:
                for ctx in ctxs:
                    ctx.task_id = task0
        else:
            if plan.sram_words:
                # The write lanes commit SRAM once per word against one
                # protection domain; mixed task ids have per-packet
                # domains.  The safe lane re-stamps per packet.
                return bail("non_uniform")
            if shared_ctx or len({id(ctx) for ctx in ctxs}) != len(ctxs):
                # Aliased contexts with mixed task ids: a pre-pass stamp
                # would let one packet's task id leak into another's
                # SRAM reads.  The safe lane re-stamps per packet.
                return bail("non_uniform")
            for section, ctx in zip(sections, ctxs):
                ctx.task_id = section.task_id
    if plan.sram_words:
        # Write-lane precheck: every touched word resolves against the
        # (uniform) task id.  A protection fault here would hit every
        # packet identically — the safe lane reproduces it per packet.
        try:
            for w in plan.sram_words:
                mmu._check_sram_access(w, sections[0].task_id)
        except TCPUFault:
            return bail("sram_protection")
    pristine = matrix.copy() if plan.touches_memory else None

    # Write-lane state.  ``acc_vecs[w][i]`` is packet ``i``'s running
    # *delta* against its entry value of accumulate word ``w`` (the
    # affine columns hold the same relative representation).
    # ``events`` replays per-packet ``switch_writes`` in program order.
    acc_vecs: Dict[int, Any] = {}
    if plan.acc_words:
        acc_vecs = {w: _np.zeros(n, dtype=dtype) for w in plan.acc_words}
    events: List[Tuple[Any, ...]] = []
    priv_last: Dict[int, Any] = {}
    claim_state: Dict[int, Tuple[int, bool]] = {}

    assert plan.ops is not None
    # A store that is the program's final op may hand the kernel its
    # column *alias* instead of a copy: no later op can mutate the
    # column, the epilogue scan reads it before any fixup, and the
    # switch-write values come from the inclusive scan, never from the
    # (by then fixed-up) vector.
    tail_op = plan.ops[-1] if plan.ops else None
    cursor = h0  # the (uniform) hop/SP counter, advanced by PUSH/POP
    try:
        for op in plan.ops:
            kind = op[0]
            if kind == "nop":
                continue
            if kind == "push":
                read = op[1]
                col = column(cursor)
                if shared_ctx:
                    col[:] = read(ctx0) & mask
                else:
                    col[:] = [read(ctx) & mask for ctx in ctxs]
                cursor += word
                continue
            if kind == "load":
                _, read, hop_relative, offset = op
                ea = cursor * perhop + offset if hop_relative else offset
                col = column(ea)
                if shared_ctx:
                    col[:] = read(ctx0) & mask
                else:
                    col[:] = [read(ctx) & mask for ctx in ctxs]
                continue
            if kind == "arith":
                _, opcode, read, hop_relative, offset = op
                ea = cursor * perhop + offset if hop_relative else offset
                lane = column(ea)
                if shared_ctx:
                    raw = read(ctx0)
                    if (opcode is Opcode.MIN or opcode is Opcode.MAX) \
                            and not 0 <= raw <= mask:
                        # The scalar path compares the *raw* operand and
                        # masks afterwards: ``min(v, raw) & mask``.  A
                        # negative operand always wins MIN and loses
                        # MAX; one above the mask does the opposite.
                        if opcode is Opcode.MIN:
                            if raw < 0:
                                lane[:] = raw & mask
                        else:
                            if raw > mask:
                                lane[:] = raw & mask
                        continue
                    operand = raw & mask
                else:
                    raws = [read(ctx) for ctx in ctxs]
                    if (opcode is Opcode.MIN or opcode is Opcode.MAX) \
                            and not all(0 <= r <= mask for r in raws):
                        fn = min if opcode is Opcode.MIN else max
                        lane[:] = [fn(int(v), r) & mask
                                   for v, r in zip(lane.tolist(), raws)]
                        continue
                    operand = _np.array([r & mask for r in raws],
                                        dtype=dtype)
                if opcode is Opcode.ADD:
                    lane += operand
                elif opcode is Opcode.SUB:
                    lane -= operand
                elif opcode is Opcode.AND:
                    lane &= operand
                elif opcode is Opcode.OR:
                    lane |= operand
                elif opcode is Opcode.XOR:
                    lane ^= operand
                elif opcode is Opcode.MIN:
                    _np.minimum(lane, operand, out=lane)
                else:
                    _np.maximum(lane, operand, out=lane)
                continue
            # ---------------- write-lane micro-ops ---------------- #
            if kind == "push_acc":
                col = column(cursor)
                col[:] = acc_vecs[op[1]]
                cursor += word
            elif kind == "load_acc":
                _, w, hop_relative, offset = op
                ea = cursor * perhop + offset if hop_relative else offset
                column(ea)[:] = acc_vecs[w]
            elif kind == "add_acc":
                _, w, hop_relative, offset = op
                ea = cursor * perhop + offset if hop_relative else offset
                lane = column(ea)
                lane += acc_vecs[w]
            elif kind == "store_acc" or kind == "store_priv":
                _, w, hop_relative, offset, vaddr = op
                ea = cursor * perhop + offset if hop_relative else offset
                col = column(ea)
                vec = col if op is tail_op else col.copy()
                if kind == "store_acc":
                    events.append(("acc", vaddr, w, vec))
                    acc_vecs[w] = vec
                else:
                    events.append(("priv", vaddr, w, vec))
                    priv_last[w] = vec
            elif kind == "pop_acc" or kind == "pop_priv":
                _, w, vaddr = op
                cursor -= word
                col = column(cursor)
                vec = col if op is tail_op else col.copy()
                if kind == "pop_acc":
                    events.append(("acc", vaddr, w, vec))
                    acc_vecs[w] = vec
                else:
                    events.append(("priv", vaddr, w, vec))
                    priv_last[w] = vec
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
    except TCPUFault:
        # A reader faulted for some packet.  Stable readers are pure,
        # so replaying packet-at-a-time reproduces the exact scalar
        # fault pattern — provided memory is back to its pre-batch
        # bytes (earlier columns were already rewritten).  SRAM was
        # never touched: commits only happen below, after this point.
        if pristine is not None:
            matrix[:] = pristine
        return bail("fault_rewind")

    # Epilogue: entry-vector fixups, SRAM commits, per-packet writes.
    switch_writes: Optional[List[List[Tuple[int, int]]]] = None
    if plan.sram_words:
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
            entry_vecs[w] = _np.array(entries, dtype=dtype)
            incl_values[w] = incl
            mmu.poke_sram(w, running)
        for slot_kind, slot_off, w in plan.aff_slots:
            if slot_kind == "abs":
                ea = slot_off
            elif slot_kind == "sp":
                ea = h0 + slot_off
            else:  # "hop"
                ea = h0 * perhop + slot_off
            col = column(ea)
            col += entry_vecs[w]
        for w, (final_value, wrote) in claim_state.items():
            # An unclaimed word is never written back: the scalar path
            # only writes on a match.
            if wrote:
                mmu.poke_sram(w, final_value)
        for w, vec in priv_last.items():
            mmu.poke_sram(w, int(vec[-1]))
        if len(events) == 1 and events[0][0] != "claim":
            # One write per packet — the common counter/scatter shape.
            tag, vaddr, w, vec = events[0]
            if tag == "acc" and vec is acc_vecs[w]:
                # The store closed the additive chain: its per-packet
                # values are the inclusive scan, already computed.
                values: List[int] = incl_values[w]
            elif tag == "acc":
                values = (vec + entry_vecs[w]).tolist()
            else:
                values = vec.tolist()
            switch_writes = [[(vaddr, value)] for value in values]
        else:
            switch_writes = [[] for _ in range(n)]
            for event in events:
                tag, vaddr = event[0], event[1]
                if tag == "claim":
                    _, _, srcs, wins = event
                    for i in range(n):
                        if wins[i]:
                            switch_writes[i].append((vaddr, srcs[i]))
                    continue
                _, _, w, vec = event
                if tag == "acc" and vec is acc_vecs[w]:
                    # The word's closing store: inclusive-scan values,
                    # computed before the aff fixup touched any column
                    # this vec may alias.
                    values = incl_values[w]
                elif tag == "acc":
                    values = (vec + entry_vecs[w]).tolist()
                else:
                    values = vec.tolist()
                for i in range(n):
                    switch_writes[i].append((vaddr, values[i]))

    # Per-section state and reports, all uniform.
    hop_mode = sections[0].mode == AddressingMode.HOP
    final = cursor + 1 if hop_mode else cursor
    n_executed = plan.n_instructions
    cycles = pipeline_cycles(n_executed)
    report_cls = ExecutionReport
    new_report = report_cls.__new__
    no_fault = FaultCode.NONE
    reports: List[ExecutionReport] = []
    append = reports.append
    for index, section in enumerate(sections):
        section.hop_or_sp = final
        report = new_report(report_cls)
        report.executed = n_executed
        report.skipped = 0
        report.fault = no_fault
        report.cexec_disabled_at = None
        report.cycles = cycles
        report.switch_writes = ([] if switch_writes is None
                                else switch_writes[index])
        append(report)

    tcpu.verified_executions += n
    tcpu.tpps_executed += n
    tcpu.instructions_executed += n_executed * n
    tcpu.vector_batches += 1
    tcpu.vector_tpps += n
    if plan.sram_words:
        tcpu.vector_write_batches += 1
        tcpu.vector_write_tpps += n
    if local_arena:
        arena.release()
    return reports, None
