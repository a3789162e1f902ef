"""The analyses' closed forms vs the loops they replaced.

Two pieces of the static analysis used to be computed by brute force
and are now read off one statement each; the brute-force versions live
on here as the references:

- the hop-budget *scan* (``_violation_at(h)`` for ``h`` in
  ``range(1024)``) against the verifier's linear counter constraints —
  same hop capacity, same TPP002/TPP003/TPP004 diagnostic (code,
  message, instruction, hop), same certificate guard;
- the interval-only constant-fence pass (``collect_constant_fences``:
  a CEXEC is a fence iff no instruction can write its operand words on
  any hop) against the *unpinned* relational walk's ``stable_fences``.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.isa import Instruction, Opcode, stack_prefix
from repro.core.memory_map import MemoryMap, SRAM_BASE
from repro.core.relational import (
    HOP_SCAN_LIMIT,
    analyze_relations,
    written_byte_intervals,
)
from repro.core.tpp import AddressingMode
from repro.core.verifier import GUARD_MAX, verify

_MAP = MemoryMap.standard()
SWITCH_ID = _MAP.resolve("Switch:SwitchID")
QUEUE_SIZE = _MAP.resolve("Queue:QueueSize")
ALU = (Opcode.ADD, Opcode.SUB, Opcode.XOR, Opcode.MIN, Opcode.MAX)


# --------------------------------------------------------------------- #
# Hop budget: the 1,024-hop scan as the reference
# --------------------------------------------------------------------- #

def reference_hop_budget(instructions, mode, word, memlen, perhop,
                         max_hops):
    """The scan ``check_hop_budget`` ran before the constraints were
    stated linearly, plus the guard ``certificate()`` derived beside
    it.  Returns ``(capacity, diagnostic, (guard_lo, guard_hi))`` with
    ``diagnostic`` the ``(code, message, instruction, hop)`` the scan's
    first violation becomes (``None`` when it stays outside the
    budget)."""
    hop_mode = mode == AddressingMode.HOP
    prefix = stack_prefix(instructions, word)
    deltas = {prefix[-1]} | {prefix[k] for k, i in enumerate(instructions)
                             if i.opcode == Opcode.CEXEC}
    dmin, dmax = min(deltas), max(deltas)
    pushes = [j for j, i in enumerate(instructions)
              if i.opcode == Opcode.PUSH]
    pops = [j for j, i in enumerate(instructions)
            if i.opcode == Opcode.POP]
    hop_relative = [
        (j, i.offset * word) for j, i in enumerate(instructions)
        if hop_mode and i.opcode in (Opcode.LOAD, Opcode.STORE) + ALU]

    def violation_at(h):
        hi, lo = h * dmax, h * dmin
        for j in pushes:
            sp = hi + prefix[j]
            if sp + word > memlen:
                return ("TPP002", f"PUSH can reach SP={sp} past packet "
                        f"memory of {memlen} bytes", j)
        for j in pops:
            if lo + prefix[j] < word:
                return ("TPP003", f"POP can reach SP={lo + prefix[j]} "
                        f"with an empty stack", j)
            if hi + prefix[j] > memlen:
                return ("TPP004", f"POP can read at byte "
                        f"{hi + prefix[j] - word} past packet memory of "
                        f"{memlen} bytes", j)
        for j, offset in hop_relative:
            ea = h * perhop + offset
            if ea + word > memlen:
                return ("TPP004", f"{instructions[j].opcode.name} "
                        f"hop-relative operand at byte {ea} overruns "
                        f"packet memory of {memlen} bytes", j)
        return None

    capacity = diagnostic = None
    for h in range(max(max_hops or 0, HOP_SCAN_LIMIT)):
        violation = violation_at(h)
        if violation is not None:
            capacity = h
            code, message, j = violation
            if h == 0:
                diagnostic = (code, message + " (on the first execution)",
                              j, 0)
            elif max_hops is not None and h < max_hops:
                diagnostic = (code, message + f" at hop {h} of the "
                              f"{max_hops}-hop budget", j, h)
            break

    guard_lo, guard_hi = 0, GUARD_MAX
    if hop_mode:
        for _, offset in hop_relative:
            if perhop > 0:
                guard_hi = min(guard_hi, (memlen - offset - word) // perhop)
            elif offset + word > memlen:
                guard_hi = -1
    else:
        for j in pushes:
            guard_hi = min(guard_hi, memlen - word - prefix[j])
        for j in pops:
            guard_lo = max(guard_lo, word - prefix[j])
            guard_hi = min(guard_hi, memlen - prefix[j])
    return capacity, diagnostic, (max(guard_lo, 0),
                                  max(min(guard_hi, GUARD_MAX), -1))


@st.composite
def budget_cases(draw):
    """A stack- or hop-mode program with in-bounds absolute operands
    (so most earn a certificate) and every hop-dependent shape: pushes,
    pops, CEXECs that truncate the per-hop delta, hop-relative strides
    including stride 0."""
    hop_mode = draw(st.booleans())
    word = draw(st.sampled_from([4, 8]))
    n_words = draw(st.integers(2, 24))
    perhop_words = draw(st.integers(0, 4)) if hop_mode else 0
    kinds = (["load", "store", "alu", "cexec", "cstore"] if hop_mode
             else ["push", "push", "pop", "cexec", "cstore", "store"])
    instructions = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1,
                              max_size=6)):
        offset = draw(st.integers(0, n_words - 2))
        sram = SRAM_BASE + draw(st.integers(0, 3))
        if kind == "push":
            instructions.append(Instruction(Opcode.PUSH, SWITCH_ID, 0))
        elif kind == "pop":
            instructions.append(Instruction(Opcode.POP, sram, 0))
        elif kind == "load":
            instructions.append(Instruction(Opcode.LOAD, SWITCH_ID, offset))
        elif kind == "store":
            instructions.append(Instruction(Opcode.STORE, sram, offset))
        elif kind == "alu":
            instructions.append(Instruction(
                draw(st.sampled_from(ALU)), QUEUE_SIZE, offset))
        elif kind == "cexec":
            instructions.append(Instruction(Opcode.CEXEC, SWITCH_ID, offset))
        else:
            instructions.append(Instruction(Opcode.CSTORE, sram, offset))
    max_hops = draw(st.one_of(st.none(), st.integers(1, 12),
                              st.just(2000)))
    mode = AddressingMode.HOP if hop_mode else AddressingMode.STACK
    return instructions, mode, word, n_words * word, perhop_words * word, \
        max_hops


def check_against_the_scan(case):
    """Verify one case both ways; returns what the scan found."""
    instructions, mode, word, memlen, perhop, max_hops = case
    result = verify(instructions, mode=mode, word_size=word,
                    memory_len=memlen, perhop_len_bytes=perhop,
                    memory_map=_MAP, max_instructions=8,
                    max_hops=max_hops)
    capacity, diagnostic, guard = reference_hop_budget(*case)
    assert result.hop_capacity == capacity
    hop_dependent = [
        (d.code, d.message, d.instruction, d.hop)
        for d in result.diagnostics
        if d.code in ("TPP002", "TPP003", "TPP004") and d.hop is not None]
    assert hop_dependent == ([diagnostic] if diagnostic else [])
    if result.certificate is not None:
        assert (result.certificate.guard_lo,
                result.certificate.guard_hi) == guard
    return capacity, diagnostic, result.certificate is not None


class TestHopBudgetAgainstTheScan:
    @settings(max_examples=400, deadline=None)
    @given(case=budget_cases())
    def test_capacity_diagnostic_and_guard_match_the_scan(self, case):
        check_against_the_scan(case)

    def test_seeded_corpus_reaches_every_outcome(self):
        """Seeded twin of the property, counting outcomes so the
        comparison is known not to be vacuous: certificates, bounded
        capacities and all three codes occur."""
        rng = random.Random(20)
        seen = {"certificate": 0, "bounded": 0}
        for _ in range(600):
            hop_mode = rng.random() < 0.5
            word = rng.choice([4, 8])
            n_words = rng.randint(2, 24)
            pool = ([Instruction(Opcode.LOAD, SWITCH_ID, o)
                     for o in range(n_words - 1)] if hop_mode else
                    [Instruction(Opcode.PUSH, SWITCH_ID, 0),
                     Instruction(Opcode.POP, SRAM_BASE, 0),
                     Instruction(Opcode.CEXEC, SWITCH_ID, 0)])
            capacity, diagnostic, certified = check_against_the_scan((
                [rng.choice(pool) for _ in range(rng.randint(1, 6))],
                AddressingMode.HOP if hop_mode else AddressingMode.STACK,
                word, n_words * word,
                rng.randint(0, 4) * word if hop_mode else 0,
                rng.choice([None, 1, 3, 8])))
            if diagnostic:
                seen[diagnostic[0]] = seen.get(diagnostic[0], 0) + 1
            seen["certificate"] += certified
            seen["bounded"] += capacity is not None
        assert seen["certificate"] > 50 and seen["bounded"] > 50, seen
        assert {"TPP002", "TPP003", "TPP004"} <= set(seen), seen


# --------------------------------------------------------------------- #
# Stable fences: the interval-only pass as the reference
# --------------------------------------------------------------------- #

def reference_constant_fences(instructions, *, mode, word_size, memory_len,
                              perhop_len_bytes, initial_memory, max_hops):
    """``racecheck.collect_constant_fences`` as it stood before the walk
    subsumed it: value-blind, it trusts a CEXEC's operand words only
    when they lie outside every byte range any hop may write."""
    written = written_byte_intervals(
        instructions, mode=mode, word_size=word_size,
        memory_len=memory_len, perhop_len_bytes=perhop_len_bytes,
        max_hops=max_hops)
    fences = []
    for j, instruction in enumerate(instructions):
        if instruction.opcode != Opcode.CEXEC \
                or instruction.addr != SWITCH_ID:
            continue
        base = instruction.offset * word_size
        end = base + 2 * word_size
        if end > len(initial_memory) or end > memory_len:
            continue
        if any(lo < end and base < hi for lo, hi in written):
            continue  # operands are mutable: the fence can flip
        mask = int.from_bytes(initial_memory[base:base + word_size], "big")
        expected = int.from_bytes(initial_memory[base + word_size:end],
                                  "big")
        fences.append((j, instruction.addr, mask, expected))
    return set(fences)


def random_fenced_program(rng):
    """Stack, hop or absolute mode; SRAM- and register-CEXECs; PUSH/POP
    outside hop mode (there they are ill-formed, TPP011)."""
    mode = rng.choice([AddressingMode.STACK, AddressingMode.HOP,
                       AddressingMode.ABSOLUTE])
    word = 4
    n_words = rng.randint(3, 10)
    memory = b"".join(
        rng.choice([0, 0x0F, 0xF0, 0xFF, 7, 9, 0xFFFFFFFF])
        .to_bytes(word, "big") for _ in range(n_words))
    kinds = ["load", "store", "alu", "cstore", "cexec", "cexec"]
    if mode != AddressingMode.HOP:
        kinds += ["push", "pop"]
    instructions = []
    for _ in range(rng.randint(1, 6)):
        kind = rng.choice(kinds)
        addr = rng.choice([SWITCH_ID, SWITCH_ID, QUEUE_SIZE,
                           SRAM_BASE + rng.randrange(4)])
        sram = SRAM_BASE + rng.randrange(4)
        offset = rng.randrange(n_words)
        instructions.append({
            "push": Instruction(Opcode.PUSH, addr, 0),
            "pop": Instruction(Opcode.POP, sram, 0),
            "load": Instruction(Opcode.LOAD, addr, offset),
            "store": Instruction(Opcode.STORE, sram, offset),
            "alu": Instruction(rng.choice(ALU), addr, offset),
            "cstore": Instruction(Opcode.CSTORE, sram, offset),
            "cexec": Instruction(Opcode.CEXEC, addr, offset),
        }[kind])
    perhop = rng.randint(1, 3) * word if mode == AddressingMode.HOP else 0
    return instructions, dict(
        mode=mode, word_size=word, memory_len=len(memory),
        perhop_len_bytes=perhop, initial_memory=memory,
        max_hops=rng.randint(1, 4))


class TestStableFencesAgainstTheIntervalPass:
    def test_unpinned_walk_proves_exactly_the_interval_fences(self):
        """Over 1,500 CEXEC-bearing programs the unpinned walk's
        ``stable_fences`` equal the interval pass's fences, up to the
        first dead fence (nothing behind it executes): 461 = 461 on
        this corpus.  The walk tracks values, so it *can* prove a fence
        the value-blind pass gives up on — operands a hop may rewrite,
        but only with a constant the program itself just stored;
        roughly one random program in 4,000, none here."""
        rng = random.Random(20)
        bearing = fences = 0
        while bearing < 1500:
            instructions, packet = random_fenced_program(rng)
            if not any(i.opcode == Opcode.CEXEC for i in instructions):
                continue
            bearing += 1
            reference = reference_constant_fences(instructions, **packet)
            walk = analyze_relations(instructions, entry=None,
                                     memory_map=_MAP, **packet)
            if walk.dead_suffix_at is not None:
                reference = {f for f in reference
                             if f[0] <= walk.dead_suffix_at}
            assert set(walk.stable_fences) == reference, (
                instructions, packet)
            fences += len(reference)
        assert fences > 300           # the reference is not vacuous
