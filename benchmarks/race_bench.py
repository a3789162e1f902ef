"""Throughput of the fleet-level SRAM race analysis (EXPERIMENTS E17).

Builds a deterministic synthetic fleet of 64 same-task programs with
overlapping word-level SRAM access sets (a mix of plain read-modify-write
counters, CSTORE claimers, and readers spread over a small word range so
pairs genuinely intersect), then measures:

- ``check_fleet``          — from-scratch pairwise analysis over all 64
  programs (2016 pairs) in one call;
- ``FleetRaceTable.admit`` — incremental admission of the same 64
  programs one by one (the ``VerifierPolicy``/TCPU admission path);
- ``summarize``            — building the per-program access summaries
  from decoded instructions (the certificate-embedding cost);
- ``check_fleet + sram``   — the same from-scratch pass with a switch
  SRAM image bound, i.e. including the relational claim-epoch
  fixpoint (``reachable_values``) over all 64 programs;
- ``relational``           — one program's relational abstract
  interpretation (``analyze_relations``), the per-certificate cost
  the verifier adds.

Standalone on purpose (not part of the ``BENCH_simcore.json`` schema):
run it directly and paste the numbers into EXPERIMENTS.md E17.

    PYTHONPATH=src python benchmarks/race_bench.py
"""

from __future__ import annotations

import random
import time
from typing import Callable, List, Tuple

from repro.core.assembler import assemble
from repro.core.isa import Instruction, Opcode
from repro.core.memory_map import SRAM_BASE
from repro.core.racecheck import (
    FleetRaceTable,
    ProgramAccessSummary,
    check_fleet,
    summarize_instructions,
)
from repro.core.relational import analyze_relations

FLEET_SIZE = 64
#: Words 0..15: small enough that most pairs share something.
WORD_SPAN = 16


def synthetic_fleet(n: int = FLEET_SIZE,
                    seed: int = 2017) -> List[ProgramAccessSummary]:
    """A deterministic fleet with realistic access-set overlap."""
    rng = random.Random(seed)
    summaries = []
    for index in range(n):
        instructions: List[Tuple[Opcode, int, int]] = []
        base = rng.randrange(WORD_SPAN)
        kind = index % 4
        if kind == 0:      # plain read-modify-write counter
            instructions = [(Opcode.ADD, SRAM_BASE + base, 0),
                            (Opcode.STORE, SRAM_BASE + base, 0)]
        elif kind == 1:    # CSTORE claimer
            instructions = [(Opcode.CSTORE, SRAM_BASE + base, 0)]
        elif kind == 2:    # multi-word reader
            instructions = [
                (Opcode.PUSH, SRAM_BASE + (base + k) % WORD_SPAN, 0)
                for k in range(3)]
        else:              # writer + reader on different words
            instructions = [
                (Opcode.STORE, SRAM_BASE + base, 0),
                (Opcode.LOAD, SRAM_BASE + (base + 1) % WORD_SPAN, 1)]
        decoded = [Instruction(opcode, addr, offset)
                   for opcode, addr, offset in instructions]
        summaries.append(summarize_instructions(
            decoded, task_id=0, name=f"prog{index:02d}"))
    return summaries


def _time(label: str, repeats: int, body: Callable[[], object]) -> float:
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(repeats):
            body()
        best = min(best, (time.perf_counter() - start) / repeats)
    print(f"{label:30} {best * 1e3:8.3f} ms/op "
          f"({1.0 / best:10.1f} ops/sec)")
    return best


def main() -> None:
    fleet = synthetic_fleet()
    report = check_fleet(fleet)
    pairs = report.pairs_checked
    by_code = report.by_code()
    print(f"synthetic fleet: {len(fleet)} programs, {pairs} pairs, "
          f"diagnostics {by_code}")

    _time("check_fleet (64 programs)", 20, lambda: check_fleet(fleet))

    def incremental() -> FleetRaceTable:
        table = FleetRaceTable()
        for summary in fleet:
            table.admit(summary)
        return table

    table = incremental()
    print(f"incremental admissions: {table.pair_checks} pair checks "
          f"(vs {pairs} from-scratch)")
    _time("incremental admit x64", 20, incremental)

    decoded = [Instruction(Opcode.ADD, SRAM_BASE + 3, 0),
               Instruction(Opcode.STORE, SRAM_BASE + 3, 0),
               Instruction(Opcode.PUSH, SRAM_BASE + 7, 0)]
    _time("summarize (3-instr program)", 2000,
          lambda: summarize_instructions(decoded, task_id=0))

    # Relational column: the claim-epoch refinement across the fleet
    # (check_fleet with a bound SRAM image) and the per-program
    # relational walk the verifier pays once per certificate.
    image = {word: 0 for word in range(WORD_SPAN)}
    bound = check_fleet(fleet, sram_values=image)
    print(f"with sram image bound: diagnostics {bound.by_code()}")
    _time("check_fleet + sram (64 prog)", 20,
          lambda: check_fleet(fleet, sram_values=image))

    program = assemble(
        ".memory 2\n"
        "LOAD [Switch:ClockLo], [Packet:0]\n"
        "CSTORE [Sram:Word3], 0, 1\n"
        "CEXEC [Switch:SwitchID], 0x0F, 0xF0\n"
        "STORE [Sram:Word0], [Packet:0]")
    _time("relational (5-instr program)", 2000,
          lambda: analyze_relations(
              program.instructions, mode=program.mode,
              word_size=program.word_size,
              memory_len=len(program.initial_memory),
              perhop_len_bytes=program.perhop_len_bytes,
              initial_memory=bytes(program.initial_memory), entry=0))


if __name__ == "__main__":
    main()
