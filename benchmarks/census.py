"""Census of the functions in ``src/repro`` that nothing reaches, and the
ratchet that keeps the list honest.

Runs every entry point the repository's experiments and CI use:

- the paper benchmarks (``benchmarks/test_*.py``), each ``test_*``
  function called directly with a stand-in for pytest-benchmark's
  fixture;
- the examples (``examples/*.py``);
- one quick-scale repeat of each ``bench_e2e`` workload, through
  ``bench_e2e/harness.run_repeat`` untraced;
- CI's ``tppasm lint`` / ``racecheck`` invocations, ``sketch_sweep.py
  --quick`` and ``scale_bench.py --quick``.

A ``sys.setprofile`` hook (the instrument of
``tests/integration/test_hop_budget.py``) records every code object that
is called.  Every module under ``src/repro`` is then parsed with ``ast``,
and each function whose code object never ran is cold, keyed
``module:qualname`` (``repro.core.tpp:TPPSection.hop.setter`` for a
property's setter, ``outer.<locals>.inner`` for a nested function).  A
cold function counts once with everything nested in it; a function
that ran has its nested functions judged one by one.  Lines run from
the first decorator to the end of the body.

``census_allow.json`` (beside this file) names every function that may
stay cold, each with a ``reason`` from :data:`REASONS` — and, for
``cli``, ``bench-hook`` and ``counter``, the ``reader`` that reaches it.
The census exits 1 when a cold function is not listed, when a listed
function is reached or gone, or when an entry's reason or reader is
missing.  Functions are matched to source lines, so the census also
exits 1, naming the files, when a ``src/repro`` source changed while
the entry points ran.  ``tests/test_census.py`` checks that comparison
on a synthetic module.

Usage::

    PYTHONPATH=src python benchmarks/census.py

Prints cold / total function lines per module (modules with a cold line
only), the cold lines per reason, every problem on stderr, and last
``cold function lines: N / M``.  Takes a few minutes; the output is
deterministic.
"""

from __future__ import annotations

import ast
import contextlib
import hashlib
import importlib.util
import inspect
import io
import json
import os
import runpy
import sys
from pathlib import Path
from types import CodeType
from typing import Callable, Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
BENCHMARKS = ROOT / "benchmarks"
EXAMPLES = ROOT / "examples"
BENCH_E2E = ROOT / "bench_e2e"
ALLOW = BENCHMARKS / "census_allow.json"

#: The reasons a function may stay cold, and whether an entry with that
#: reason must also name its reader (the doc line, CI step, ``bench_e2e``
#: file:line or ``COUNTERS`` tuple that reaches it).
REASONS: Dict[str, bool] = {
    "spec": False,          # the reference interpreter
    "error-path": False,    # hostile input and raised errors
    "fork-child": False,    # runs in a process the profiler does not see
    "impairment": False,    # link faults no experiment injects yet
    "cli": True,
    "bench-hook": True,
    "counter": True,
}

#: A function's identity in both worlds: (absolute file, first line).
Key = Tuple[str, int]


class _Benchmark:
    """What the paper benchmarks use of pytest-benchmark: run ``fn`` once."""

    def __call__(self, fn: Callable, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn: Callable, args=(), kwargs=None, **_options):
        return fn(*args, **(kwargs or {}))


def _load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    sys.modules[path.stem] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _paper_benchmarks() -> None:
    for path in sorted(BENCHMARKS.glob("test_*.py")):
        module = _load(path)
        for name, fn in sorted(vars(module).items()):
            if name.startswith("test_") and inspect.isfunction(fn):
                fn(_Benchmark())


def _examples() -> None:
    for path in sorted(EXAMPLES.glob("*.py")):
        try:
            runpy.run_path(str(path), run_name="__main__")
        except SystemExit as stop:
            if stop.code not in (None, 0):
                raise


def _workloads() -> None:
    import harness
    import tracing

    workloads, _import_s = harness.import_workloads()
    for cls in workloads.WORKLOADS.values():
        harness.run_repeat(cls, 1, cls.quick_scale, tracing.NoTrace())


def _exits(main: Callable[[List[str]], int], argv: List[str],
           expected: int = 0) -> None:
    code = main(argv)
    if code != expected:
        raise RuntimeError(f"{argv} exited {code}, expected {expected}")


def _ci_tools() -> None:
    from repro.tools import tppasm

    for program in sorted(EXAMPLES.glob("*.tpp")):
        _exits(tppasm.main, ["lint", str(program), "--symbols", "Target=7"])
    fleet = [str(EXAMPLES / name) for name in (
        "queue_probe.tpp", "path_tracer.tpp", "guarded_update.tpp")]
    _exits(tppasm.main, ["racecheck", "--json", *fleet,
                         str(EXAMPLES / "sketch_update.tpp"),
                         "--symbols", "Target=7"])
    _exits(tppasm.main, ["racecheck", "--json", *fleet,
                         str(EXAMPLES / "racy_counter.tpp"),
                         "--symbols", "Target=7"], expected=1)
    _exits(_load(BENCHMARKS / "sketch_sweep.py").main, ["--quick"])
    _exits(_load(BENCHMARKS / "scale_bench.py").main, ["--quick"])


ENTRY_POINTS: List[Callable[[], None]] = [
    _paper_benchmarks, _examples, _workloads, _ci_tools]


def called_functions(entry_points: Iterable[Callable[[], None]]
                     ) -> Set[Key]:
    """Keys of every ``src/repro`` function called by the entry points."""
    seen: Set[CodeType] = set()

    def record(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    for path in (str(ROOT / "src"), str(BENCHMARKS), str(BENCH_E2E)):
        if path not in sys.path:
            sys.path.insert(0, path)
    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            for entry_point in entry_points:
                entry_point()
    finally:
        sys.setprofile(previous)
    prefix = str(PACKAGE) + os.sep
    keys = {(os.path.abspath(code.co_filename), code.co_firstlineno)
            for code in seen}
    return {key for key in keys if key[0].startswith(prefix)}


def fingerprints(root: Path = PACKAGE) -> Dict[str, str]:
    """SHA-256 of every source under ``root``, keyed by relative path."""
    return {str(path.relative_to(root)):
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*.py"))}


def changed(before: Dict[str, str], after: Dict[str, str]) -> List[str]:
    """Paths added, removed or edited between two :func:`fingerprints`."""
    return sorted(path for path in before.keys() | after.keys()
                  if before.get(path) != after.get(path))


def _first_line(node) -> int:
    """``co_firstlineno`` of the function: its first decorator's line."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _lines(node) -> int:
    return node.end_lineno - _first_line(node) + 1


def _accessor(node) -> str:
    """``.setter`` / ``.deleter`` for a property's second and third
    functions, so they are keyed apart from the getter."""
    for decorator in node.decorator_list:
        if (isinstance(decorator, ast.Attribute)
                and decorator.attr in ("setter", "deleter")):
            return "." + decorator.attr
    return ""


def _functions(node: ast.AST, prefix: str
               ) -> Iterable[Tuple[str, ast.AST]]:
    """``(qualname, function)`` for the functions directly inside
    ``node`` (through classes, not through other functions)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name + _accessor(child), child
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def module_census(path: Path, module: str, called: Set[Key]
                  ) -> Tuple[Dict[str, int], int]:
    """The cold functions of one module, ``{"module:qualname": lines}``,
    and the module's total function lines."""
    filename = str(path)
    tree = ast.parse(path.read_text(), filename)
    total = sum(_lines(function) for _, function in _functions(tree, ""))
    cold: Dict[str, int] = {}
    pending = list(_functions(tree, ""))
    while pending:
        qualname, function = pending.pop()
        if (filename, _first_line(function)) in called:
            pending.extend(_functions(function, qualname + ".<locals>."))
            continue
        name = f"{module}:{qualname}"
        twin = 2
        while name in cold:  # a second definition of the same name
            name = f"{module}:{qualname}#{twin}"
            twin += 1
        cold[name] = _lines(function)
    return cold, total


def census(called: Set[Key]) -> Dict[str, Tuple[Dict[str, int], int]]:
    """Per module, keyed by path under ``src/repro``: its cold functions
    and its total function lines."""
    per_module = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(PACKAGE.parent)
                          .with_suffix("").parts)
        per_module[str(path.relative_to(PACKAGE))] = module_census(
            path, module.removesuffix(".__init__"), called)
    return per_module


def check(cold: Dict[str, int], allow: Dict[str, Dict[str, str]]
          ) -> List[str]:
    """What the ratchet refuses: a cold function the allow-list does not
    name, an entry whose function is reached or gone, and an entry
    without a known reason or without the reader its reason needs."""
    problems = [f"unlisted cold function: {name} ({lines} lines)"
                for name, lines in sorted(cold.items()) if name not in allow]
    for name, entry in sorted(allow.items()):
        if name not in cold:
            problems.append(f"stale allow entry: {name} (reached or gone)")
        reason = entry.get("reason")
        if reason not in REASONS:
            problems.append(f"{name}: reason {reason!r} is not one of "
                            f"{', '.join(REASONS)}")
        elif REASONS[reason] and not entry.get("reader"):
            problems.append(f"{name}: a {reason!r} entry names its reader")
    return problems


def main() -> int:
    before = fingerprints()
    called = called_functions(ENTRY_POINTS)
    edited = changed(before, fingerprints())
    for path in edited:
        print(f"source changed during the run: {path}", file=sys.stderr)
    if edited:
        return 1
    per_module = census(called)
    allow = json.loads(ALLOW.read_text())
    cold = {name: lines for module_cold, _ in per_module.values()
            for name, lines in module_cold.items()}
    width = max(len(name) for name in per_module)
    print(f"{'module':<{width}}  {'cold':>5}  {'total':>5}")
    for name, (module_cold, total) in sorted(
            per_module.items(),
            key=lambda item: (-sum(item[1][0].values()), item[0])):
        if module_cold:
            print(f"{name:<{width}}  {sum(module_cold.values()):>5}  "
                  f"{total:>5}")
    per_reason: Dict[str, int] = {}
    for name, lines in cold.items():
        reason = allow.get(name, {}).get("reason", "unlisted")
        per_reason[reason] = per_reason.get(reason, 0) + lines
    print()
    for reason in [*REASONS, "unlisted"]:
        if reason in per_reason:
            print(f"{reason:<{width}}  {per_reason[reason]:>5}")
    problems = check(cold, allow)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"cold function lines: {sum(cold.values())} / "
          f"{sum(total for _, total in per_module.values())}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
