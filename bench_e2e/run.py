#!/usr/bin/env python3
"""bench_e2e: end-to-end, layer-attributed benchmark for TPP traffic.

    python3 bench_e2e/run.py                       # every workload, all metrics
    python3 bench_e2e/run.py --workload probe_line --seed 3 --seconds 12 --trace 0
    python3 bench_e2e/run.py --compare A.json B.json
    python3 bench_e2e/run.py --sets 2
    python3 bench_e2e/run.py --self-test

With ``--workload`` this is one measured run in this process (what the
benchmark driver invokes); its last line of output is the result object.
Without it every workload runs in a fresh process, untraced for the
end-to-end metrics and then traced for the per-layer ones.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Dict, List

import harness
import tracing

NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
#: Seeds the self-test always checks; it adds one drawn from the clock.
SELF_TEST_SEEDS = (1, 2)


def out_directory(path: str) -> Path:
    """Create the output directory; it ignores its own contents."""
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    ignore = out / ".gitignore"
    if not ignore.exists():
        ignore.write_text("*\n")
    return out


def print_record(record: dict) -> None:
    print(f"{record['workload']}  seed={record['seed']} "
          f"trace={record['trace']}  attempted={record['attempted']} "
          f"failed={record['failed']}  digest={record['sim_digest'][:12]}")
    for name, metric in record["metrics"].items():
        print(f"  {name:<32} {metric['value']:>14.4f} {metric['unit']:<9}"
              f" median={metric['median']:.4f} q1={metric['q1']:.4f}"
              f" q3={metric['q3']:.4f} n={metric['n']}")
    for error in record["errors"]:
        print(f"  INCORRECT: {error}")


def driver_line(record: dict) -> str:
    """The result object the benchmark contract asks for."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metric["value"], "unit": metric["unit"]}
                    for name, metric in record["metrics"].items()},
    })


def succeeded(record: dict) -> bool:
    return record["correct"] and record["failed"] == 0


def in_fresh_process(*measure_args) -> dict:
    """One ``harness.measure`` call in a process of its own, so imports,
    caches and peak RSS belong to that workload alone."""
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
        return pool.submit(harness.measure, *measure_args).result()


def run_suite(spec: dict, seed: int, seconds: float, out: Path,
              traced: bool = True) -> dict:
    results = {"seed": seed, "seconds": seconds,
               "environment": harness.environment(), "workloads": {}}
    for workload in spec["workloads"]:
        name = workload["name"]
        entry = {"end_to_end": in_fresh_process(name, seed, seconds, False)}
        print_record(entry["end_to_end"])
        if traced:
            entry["per_layer"] = in_fresh_process(name, seed, seconds, True,
                                                  1.0, out)
            print_record(entry["per_layer"])
        results["workloads"][name] = entry
    return results


def suite_ok(results: dict) -> bool:
    return all(succeeded(record) for entry in results["workloads"].values()
               for record in entry.values())


# --------------------------------------------------------------------- #
# --compare
# --------------------------------------------------------------------- #

def spread(metric: dict) -> float:
    return ((metric["q3"] - metric["q1"]) / abs(metric["median"])
            if metric["median"] else 0.0)


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (new["value"] - base["value"]) / abs(base["value"])
    if max(spread(base), spread(new)) > bound:
        # Too noisy to call, unless every new sample beats every base one.
        apart = (new["min"] > base["max"] if better == "higher"
                 else new["max"] < base["min"])
        return "better" if apart else "unresolved"
    if gain < -bound:
        return "worse"
    return "better" if gain > bound else "same"


def compare(spec: dict, base_path: str, new_path: str) -> int:
    with open(base_path) as handle:
        base = json.load(handle)
    with open(new_path) as handle:
        new = json.load(handle)
    worse = 0
    print(f"{'workload':<15} {'metric':<30} {'base':>14} {'new':>14} "
          f"{'unit':<9} {'new/base':>8} {'bound':>5}  verdict")
    for kind in ("end_to_end", "per_layer"):
        for declared in spec[kind]:
            name = declared["name"]
            for workload in spec["workloads"]:
                pair = [results["workloads"].get(workload["name"], {})
                        .get(kind, {}).get("metrics", {}).get(name)
                        for results in (base, new)]
                if None in pair:
                    continue
                old, cur = pair
                bound = declared.get("bound")
                if not old["value"]:
                    judged = "same" if not cur["value"] else "changed"
                    ratio = "-"
                else:
                    ratio = f"{cur['value'] / old['value']:.4f}"
                    judged = (verdict(old, cur, declared["better"], bound)
                              if bound is not None else "-")
                worse += judged == "worse"
                print(f"{workload['name']:<15} {name:<30} "
                      f"{old['value']:>14.4f} {cur['value']:>14.4f} "
                      f"{declared['unit']:<9} {ratio:>8} "
                      f"{'' if bound is None else format(bound, '.2f'):>5}"
                      f"  {judged}")
    return 1 if worse else 0


# --------------------------------------------------------------------- #
# --sets
# --------------------------------------------------------------------- #

def run_sets(spec: dict, n_sets: int, seed: int, seconds: float,
             out: Path) -> int:
    sets = [run_suite(spec, seed, seconds, out, traced=False)
            for _ in range(n_sets)]
    failures = sum(not suite_ok(results) for results in sets)
    print(f"\n{'workload':<15} {'metric':<14} {'min':>14} {'max':>14} "
          f"disagreement  bound")
    for workload in spec["workloads"]:
        records = [results["workloads"][workload["name"]]["end_to_end"]
                   for results in sets]
        if len({record["sim_digest"] for record in records}) > 1:
            print(f"{workload['name']:<15} sim digests differ between sets")
            failures += 1
        for declared in spec["end_to_end"]:
            values = [record["metrics"][declared["name"]]["value"]
                      for record in records]
            disagreement = (max(values) - min(values)) / min(values)
            exceeded = disagreement > declared["bound"]
            failures += exceeded
            print(f"{workload['name']:<15} {declared['name']:<14} "
                  f"{min(values):>14.4f} {max(values):>14.4f} "
                  f"{disagreement:>12.4f}  {declared['bound']:.2f}"
                  f"{'  EXCEEDED' if exceeded else ''}")
    return 1 if failures else 0


# --------------------------------------------------------------------- #
# --self-test
# --------------------------------------------------------------------- #

def self_test(spec: dict) -> int:
    workloads, _ = harness.import_workloads()
    problems: List[str] = []

    def check(condition: bool, message: str) -> None:
        if not condition:
            problems.append(message)

    declared = [w["name"] for w in spec["workloads"]]
    check(set(declared) == set(workloads.WORKLOADS),
          "workload names differ between BENCHMARK.json and workloads.py")
    for kind in ("workloads", "end_to_end", "per_layer"):
        for item in spec[kind]:
            check(bool(NAME_PATTERN.match(item["name"])),
                  f"bad name {item['name']!r}")

    fresh_seed = time.time_ns() % 1_000_000 + 1000
    print(f"self-test seeds: {SELF_TEST_SEEDS + (fresh_seed,)}")
    layers: Dict[str, dict] = {}
    sram: Dict[str, str] = {}
    for name in declared:
        cls = workloads.WORKLOADS[name]
        # Traced and untraced repeats of one seed; measure() itself
        # refuses metric names BENCHMARK.json lacks, and the other way.
        record = harness.measure(name, SELF_TEST_SEEDS[0], 0.0, True,
                                 cls.quick_scale)
        check(succeeded(record), f"{name}: failed={record['failed']} "
              f"{record['errors']}")
        layers[name] = {key: metric["value"]
                        for key, metric in record["metrics"].items()}
        sram[name] = record["digest_parts"]["sram"]
        for seed in SELF_TEST_SEEDS[1:] + (fresh_seed,):
            first, second = (
                harness.run_repeat(cls, seed, cls.quick_scale,
                                   tracing.NoTrace()).outcome
                for _ in range(2))
            check(not first.errors and not first.failed,
                  f"{name} seed {seed}: failed={first.failed} "
                  f"{first.errors}")
            check(first.sim_digest == second.sim_digest,
                  f"{name} seed {seed}: digests differ between repeats")
        print(f"  {name}: checked")

    for name, values in layers.items():
        check(values["trace.unattributed_share"] < 0.10,
              f"{name}: {values['trace.unattributed_share']:.3f} of the "
              f"timed region is attributed to no layer")
    forward, burst = layers["forward_line"], layers["sketch_burst"]
    stagger = layers["sketch_stagger"]
    check(forward["core.tpps_executed"] == 0, "forward_line executed TPPs")
    check(forward["endhost.pacer_us_per_pkt"] > 0,
          "pacer events are no longer attributed to endhost")
    check(burst["core.lane_vector_fraction"] > 0.9
          and burst["asic.deferred_fraction"] > 0.9,
          "sketch_burst did not engage the vector lane")
    check(stagger["core.lane_vector_fraction"] == 0
          and stagger["asic.deferred_fraction"] == 0,
          "sketch_stagger batched")
    check(sram["sketch_burst"] == sram["sketch_stagger"],
          "sketch_burst and sketch_stagger end with different SRAM images")
    check(layers["probe_line"]["core.verify_calls"] > 0
          and layers["rcp_dumbbell"]["core.assemble_calls"] > 1
          and burst["core.assemble_calls"] > 0,
          "an assemble / verify patch point went missing")

    for problem in problems:
        print(f"SELF-TEST FAILED: {problem}")
    print("self-test " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


# --------------------------------------------------------------------- #

def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="measure this workload only, "
                        "in this process")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="seconds to measure per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=str(harness.BENCH_DIR / "out"),
                        help="directory for results.json and trace_*.jsonl")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--sets", type=int, metavar="N")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    spec = harness.load_spec()
    seconds = (args.seconds if args.seconds is not None
               else spec["run_seconds"])
    if args.compare:
        return compare(spec, *args.compare)
    if args.self_test:
        return self_test(spec)
    out = out_directory(args.out)
    if args.sets:
        return run_sets(spec, args.sets, args.seed, seconds, out)
    if args.workload:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error(f"unknown workload {args.workload!r}")
        record = harness.measure(args.workload, args.seed, seconds,
                                 bool(args.trace), 1.0, out)
        print_record(record)
        print(driver_line(record))
        return 0 if succeeded(record) else 1
    results = run_suite(spec, args.seed, seconds, out)
    with open(out / "results.json", "w") as handle:
        json.dump(results, handle, indent=1)
    print(f"results written to {out / 'results.json'}")
    return 0 if suite_ok(results) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
