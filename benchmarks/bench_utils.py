"""Shared helpers for the benchmark harness.

Every module in this directory regenerates one table or figure from the
paper (see DESIGN.md §4 for the index).  Simulation-scale benches run one
round via ``run_once`` — the interesting output is the printed
reproduction of the paper's rows/series, plus shape assertions; the
timing pytest-benchmark records is the cost of regenerating the
experiment.
"""

from __future__ import annotations


def run_once(benchmark, fn):
    """Benchmark a whole-experiment function with a single round."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)


def banner(title: str) -> None:
    """Print a section banner for the harness output."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
