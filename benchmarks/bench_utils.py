"""Shared helpers for the benchmark harness.

Every module in this directory regenerates one table or figure from the
paper (see DESIGN.md §4 for the index).  Simulation-scale benches run one
round via ``run_once`` — the interesting output is the printed
reproduction of the paper's rows/series, plus shape assertions; the
timing pytest-benchmark records is the cost of regenerating the
experiment.
"""

from __future__ import annotations

import gc
import math
import time
from types import SimpleNamespace
from typing import Any, Callable, Tuple

from repro.core.mmu import MMU


def run_once(benchmark, fn):
    """Benchmark a whole-experiment function with a single round."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def banner(title: str) -> None:
    """Print a section banner for the harness output."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)


#: ``timed`` repetitions; the best (minimum) elapsed time is kept, the
#: standard defence against co-tenant scheduling noise (same rationale
#: as ``timeit.repeat``: slowdowns are never the code's true speed).
TIMING_REPEATS = 3


def timed(fn: Callable[[], Any]) -> Tuple[Any, float]:
    """``(result, best elapsed seconds)`` over :data:`TIMING_REPEATS`."""
    # GC is paused during the measured region (as ``timeit`` does): a
    # collection landing inside one repetition measures the collector's
    # schedule, not the workload.
    best = math.inf
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(TIMING_REPEATS):
            start = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - start)
    finally:
        if was_enabled:
            gc.enable()
    return result, best


class FakePort:
    """Minimal egress-port stand-in for driving a bare TCPU."""

    index = 0
    queue = SimpleNamespace(occupancy_bytes=500)


def bench_mmu() -> MMU:
    """An MMU with the two statistics the sweep programs read."""
    # batch_stable mirrors the switch's bindings: these statistics cannot
    # change while a batch executes, which is what licenses the batched
    # engine's vectorized lane (see repro.core.batch).
    mmu = MMU(name="bench")
    mmu.bind_reader("Switch:SwitchID", lambda ctx: 7, batch_stable=True)
    mmu.bind_reader("Queue:QueueSize",
                    lambda ctx: ctx.queue.occupancy_bytes,
                    batch_stable=True)
    return mmu
