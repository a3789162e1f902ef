"""Repeat loop, timing and end-to-end metrics for one workload run.

One run is one process: import the program, one untimed warm-up repeat,
then timed repeats until ``--seconds`` have been measured.  Every repeat
builds its network from nothing (that build is one ``setup_s`` sample),
runs the timed region, then checks its outputs.  End-to-end metrics come
from the untraced repeats only.  With ``--trace 1`` untraced and traced
repeats alternate: the per-layer metrics are medians over the traced ones,
and the wall-time ratio of each pair is the tracing overhead.

The two rates are reported as the fastest decile of the repeats, not their
median.  Interference from the machine only ever adds time, in bursts of
seconds; over ten runs of one commit the decile spread 1.4-2.5 % where the
median spread 2.8-8.1 % (and 9.8 % on a bad quarter of an hour).  Median
and quartiles of the same samples stay in the record beside it.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import tracing
from layers import layer_metrics

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: The fewest timed repeats a run reports on.
MIN_REPEATS = 2
#: Metrics reported as the fastest decile of the repeats (see above).
RATES = ("hops_per_s", "ops_per_s")
#: Fresh interpreters that import the program to time it, besides this one.
IMPORT_PROBES = 4


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def import_workloads():
    """Import the simulator through the workloads module; returns the
    module and the seconds the import took."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise SystemExit(f"bench_e2e: nothing to measure, {source}/repro "
                         f"is missing")
    sys.path.insert(0, str(source))
    start = time.perf_counter()
    import workloads
    return workloads, time.perf_counter() - start


def import_seconds(own_s: float) -> float:
    """Median import time of the program: this process's import and
    ``IMPORT_PROBES`` fresh interpreters', because one import is a single
    sample and by far the largest part of ``setup_s``."""
    probe = ("import sys, time; "
             f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH_DIR)!r}]; "
             "start = time.perf_counter(); import workloads; "
             "print(time.perf_counter() - start)")
    samples = [own_s]
    for _ in range(IMPORT_PROBES):
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True)
        samples.append(float(done.stdout))
    return statistics.median(samples)


@dataclass
class Repeat:
    setup_s: float
    wall_s: float
    outcome: object


def run_repeat(cls, seed: int, scale: float, hooks) -> Repeat:
    gc.collect()
    start = time.perf_counter()
    workload = cls(seed, scale, hooks)
    hooks.call("bench.setup", workload.setup)
    ready = time.perf_counter()
    hooks.call("bench.run", workload.run)
    done = time.perf_counter()
    outcome = hooks.call("bench.finish", workload.finish)
    return Repeat(setup_s=ready - start, wall_s=done - ready,
                  outcome=outcome)


def summarize(values: List[float], fastest_decile: bool = False
              ) -> Dict[str, float]:
    """The reported ``value`` of a metric beside the spread of its samples."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    value = (sorted(values, reverse=True)[len(values) // 10]
             if fastest_decile else median)
    return {"value": value, "median": median, "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count()}


def measure(name: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, out_dir: Optional[Path] = None) -> dict:
    """Run one workload for ``seconds`` and return its result record."""
    spec = load_spec()
    workloads, import_s = import_workloads()
    cls = workloads.WORKLOADS[name]
    untraced = tracing.NoTrace()

    outcomes = [run_repeat(cls, seed, scale, untraced).outcome]  # warm-up
    plain: List[Repeat] = []
    layers: List[Dict[str, float]] = []
    tracer = None
    started = time.perf_counter()
    while (time.perf_counter() - started < seconds
           or len(plain) < MIN_REPEATS):
        plain.append(run_repeat(cls, seed, scale, untraced))
        outcomes.append(plain[-1].outcome)
        if trace:
            tracer = tracing.Tracer()
            try:
                repeat = run_repeat(cls, seed, scale, tracer)
            finally:
                tracer.close()
            outcomes.append(repeat.outcome)
            layers.append(layer_metrics(tracer, repeat.outcome,
                                        repeat.wall_s / plain[-1].wall_s))

    errors = sorted({error for outcome in outcomes
                     for error in outcome.errors})
    digests = {outcome.sim_digest for outcome in outcomes}
    if len(digests) > 1:
        errors.append(f"{len(digests)} different sim digests over the "
                      f"repeats (traced and untraced) of one workload")

    if trace:
        declared = spec["per_layer"]
        samples = {key: [sample[key] for sample in layers]
                   for key in layers[0]}
        if out_dir is not None:
            tracer.write_jsonl(out_dir / f"trace_{name}.jsonl")
    else:
        declared = spec["end_to_end"]
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        import_s = import_seconds(import_s)
        samples = {
            "hops_per_s": [r.outcome.hops / r.wall_s for r in plain],
            "ops_per_s": [(r.outcome.attempted - r.outcome.failed)
                          / r.wall_s for r in plain],
            "setup_s": [import_s + r.setup_s for r in plain],
            "peak_rss_mb": [peak_kb / 1024.0],
        }
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(samples):
        raise SystemExit(
            "bench_e2e: BENCHMARK.json and the harness disagree on metric "
            f"names: {sorted(set(units) ^ set(samples))}")

    first = outcomes[0]
    return {
        "workload": name, "seed": seed, "trace": int(trace),
        "seconds": seconds, "scale": scale,
        "correct": not errors, "errors": errors,
        "attempted": sum(r.outcome.attempted for r in plain),
        "failed": sum(r.outcome.failed for r in plain),
        "sim_digest": first.sim_digest,
        "digest_parts": {key: repr(value)
                         for key, value in first.digest.items()},
        "metrics": {key: dict(summarize(values, key in RATES),
                              unit=units[key])
                    for key, values in samples.items()},
    }
