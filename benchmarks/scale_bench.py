"""Shard-count sweep for the sharded fleet driver (EXPERIMENTS.md E19).

Runs one fixed fleet (4 ring regions of TPP switches, every lane driven
by the batched-admission probe controller) at a range of shard counts
and reports, per point:

- the **determinism fingerprint** — must be byte-identical at every
  shard count, or the sweep exits non-zero (sharding must never buy
  throughput with correctness);
- barrier rounds and boundary messages exchanged;
- measured wall time.

Usage::

    PYTHONPATH=src python benchmarks/scale_bench.py [--quick]
        [--shards 1 2 4] [--duration-ms 2.0]
"""

from __future__ import annotations

import argparse
import sys
from typing import Any, Dict, List

from repro.analysis.reporting import fleet_report, format_table
from repro.fleet import fleet_specs, run_fleet


def build_specs(quick: bool) -> List[Any]:
    """The sweep's fixed fleet: identical at every shard count."""
    if quick:
        return fleet_specs(4, switches=2, hosts_per_switch=2,
                           probe_bursts=3, probe_interval_ns=100_000,
                           flows_per_probe=250)
    return fleet_specs(4, switches=2, hosts_per_switch=4,
                       probe_bursts=10, probe_interval_ns=100_000,
                       flows_per_probe=1_000)


def sweep(shard_counts: List[int], duration_ns: int,
          quick: bool) -> List[Dict[str, Any]]:
    """One fleet run per shard count, same specs throughout."""
    specs = build_specs(quick)
    # Warm-up: the first run in a process pays one-time costs (imports,
    # allocator growth, bytecode caches) that would otherwise be billed
    # to whichever shard count happens to run first.  Run once and
    # discard.
    run_fleet(specs, duration_ns, shards=1)
    points = []
    for shards in shard_counts:
        result = run_fleet(specs, duration_ns, shards=shards)
        points.append({
            "shards": result.shards,
            "fingerprint": result.fingerprint(),
            "rounds": result.rounds,
            "messages": result.messages_exchanged,
            "wall_seconds": result.wall_seconds,
            "result": result,
        })
    return points


def render(points: List[Dict[str, Any]]) -> str:
    rows = [[
        point["shards"],
        point["rounds"],
        point["messages"],
        f"{point['wall_seconds'] * 1e3:.0f}",
        point["fingerprint"][:16],
    ] for point in points]
    return format_table(
        ["shards", "rounds", "messages", "wall-ms", "fingerprint[:16]"],
        rows, title="Fleet scale sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smaller fleet (CI smoke run)")
    parser.add_argument("--shards", type=int, nargs="+", default=[1, 2, 4],
                        help="shard counts to sweep (default: 1 2 4)")
    parser.add_argument("--duration-ms", type=float, default=2.0,
                        help="simulated duration per point (default 2.0)")
    args = parser.parse_args(argv)

    duration_ns = int(args.duration_ms * 1e6)
    points = sweep(args.shards, duration_ns, quick=args.quick)
    print(render(points))
    print()
    print(fleet_report(points[-1]["result"]))

    fingerprints = {point["fingerprint"] for point in points}
    if len(fingerprints) != 1:
        print("FAIL: results differ across shard counts "
              f"({len(fingerprints)} distinct fingerprints)",
              file=sys.stderr)
        return 1
    print("\nbit-identical across shard counts: "
          f"{points[0]['fingerprint']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
