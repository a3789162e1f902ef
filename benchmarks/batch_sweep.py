"""Batch-size sweep for the batched TCPU engine (EXPERIMENTS.md E18/E20).

Runs a steady-state read-only probe workload at a range of batch sizes
on a fixed total execution count, so the table answers: where does
amortization saturate, and what does a half-empty drain window cost?
The scalar (batch-of-one through ``TCPU.execute``) rate is measured in
the same process as the 1.0x reference.

With ``--write`` the sweep runs the write-bearing counter workload
instead: a certified accumulate program on the write-capable vector
lane, whose per-batch epilogue (prefix scan + SRAM commit) is a fixed
cost the batch size must amortize — the E20 question.

Usage::

    PYTHONPATH=src python benchmarks/batch_sweep.py [--total 64000]
    PYTHONPATH=src python benchmarks/batch_sweep.py --write
"""

from __future__ import annotations

import argparse
from typing import Any, Dict, List

from bench_utils import FakePort, bench_mmu, timed

from repro.asic.metadata import PacketMetadata
from repro.core.assembler import assemble
from repro.core.batch import HAVE_NUMPY, BatchArena
from repro.core.memory_map import MemoryMap
from repro.core.mmu import ExecutionContext
from repro.core.tcpu import TCPU
from repro.core.verifier import verify_program

SWEEP_SIZES = (1, 2, 4, 8, 16, 32, 64)

#: The read-only probe every batch carries.
BENCH_SOURCE = """
    PUSH [Switch:SwitchID]
    PUSH [Queue:QueueSize]
"""

#: The write-bearing counter: each packet adds its own delta to one
#: shared SRAM word and writes the running total back into its own
#: packet memory — an additive read-modify-write chain, which the batch
#: planner classifies as *accumulate* and vectorizes via prefix scan.
WRITE_BENCH_SOURCE = """
    .mode absolute
    .memory 1
    .data 0 1
    ADD [Packet:0], [Sram:Word7]
    STORE [Sram:Word7], [Packet:0]
"""


def sweep_point(batch_size: int, total_executions: int,
                write: bool = False) -> Dict[str, Any]:
    """Executions/sec at one batch size, vector lane engaged."""
    mmu = bench_mmu()
    tcpu = TCPU(mmu)
    source = WRITE_BENCH_SOURCE if write else BENCH_SOURCE
    program = assemble(source, hops=1)
    result = verify_program(program, memory_map=MemoryMap.standard())
    certificate = result.raise_on_error().certificate
    if certificate is not None:
        tcpu.trust(certificate)
    sections = [program.build() for _ in range(batch_size)]
    initial_memory = bytes(sections[0].memory)
    initial_hop_or_sp = sections[0].hop_or_sp
    ctx = ExecutionContext(metadata=PacketMetadata(),
                           egress_port=FakePort(), time_ns=1000)
    ctxs = [ctx] * batch_size
    arena = BatchArena(sections) if HAVE_NUMPY else None
    initial_matrix = arena.matrix.copy() if arena is not None else None
    n_batches = max(1, total_executions // batch_size)

    def drive() -> None:
        for _ in range(n_batches):
            for section in sections:
                section.hop_or_sp = initial_hop_or_sp
            if not write:
                pass
            elif arena is not None:
                arena.matrix[:] = initial_matrix
            else:
                for section in sections:
                    section.memory[:] = initial_memory
            tcpu.execute_batch(sections, ctxs, arena=arena)

    drive()  # warm-up (compiles + plans the program)
    _, elapsed = timed(drive)
    return {
        "batch_size": batch_size,
        "n_executions": n_batches * batch_size,
        "execs_per_sec": n_batches * batch_size / elapsed,
        "vector_batches": (tcpu.vector_write_batches if write
                           else tcpu.vector_batches),
        "batch_fallbacks": tcpu.batch_fallbacks,
    }


def scalar_point(total_executions: int, write: bool = False) -> float:
    """The scalar control: fresh section + context per execution."""
    mmu = bench_mmu()
    tcpu = TCPU(mmu)
    source = WRITE_BENCH_SOURCE if write else BENCH_SOURCE
    program = assemble(source, hops=1)
    n = max(1, total_executions // 8)

    def drive() -> None:
        for _ in range(n):
            tpp = program.build()
            ctx = ExecutionContext(metadata=PacketMetadata(),
                                   egress_port=FakePort(), time_ns=1000)
            tcpu.execute(tpp, ctx)

    drive()  # warm-up
    _, elapsed = timed(drive)
    return n / elapsed


def main(argv: Any = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--total", type=int, default=64_000,
                        help="target executions per sweep point")
    parser.add_argument("--write", action="store_true",
                        help="sweep the write-bearing counter workload "
                             "(write-capable vector lane, E20)")
    args = parser.parse_args(argv)

    scalar = scalar_point(args.total, write=args.write)
    workload = "write counter" if args.write else "read-only probe"
    print(f"numpy lane: {'on' if HAVE_NUMPY else 'off'}   "
          f"workload: {workload}")
    print(f"scalar (TCPU.execute, rebuild per exec): {scalar:>12,.0f} "
          f"execs/s\n")
    print(f"{'batch':>5} | {'execs/s':>12} | {'vs scalar':>9} | "
          f"{'vec-batches':>11} | {'fallbacks':>9}")
    print("-" * 60)
    points: List[Dict[str, Any]] = []
    for size in SWEEP_SIZES:
        point = sweep_point(size, args.total, write=args.write)
        points.append(point)
        print(f"{point['batch_size']:>5} | "
              f"{point['execs_per_sec']:>12,.0f} | "
              f"{point['execs_per_sec'] / scalar:>8.2f}x | "
              f"{point['vector_batches']:>11} | "
              f"{point['batch_fallbacks']:>9}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
