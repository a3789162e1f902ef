"""Census of the function-body lines in ``src/repro`` that nothing reaches.

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
and the lines of each function whose code object never ran are counted
as cold.  A cold function counts once with everything nested in it; a
function that ran has its nested functions judged one by one.  The
total is the lines of all outermost functions and methods, so cold and
total are comparable.

Usage::

    PYTHONPATH=src python benchmarks/census.py

Prints cold / total lines per module (modules with a cold line only),
then ``cold function lines: N / M``.  Takes a few minutes; the output is
deterministic.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import inspect
import io
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


def _functions(node: ast.AST) -> Iterable[ast.AST]:
    """The functions directly inside ``node`` (through classes, not
    through other functions)."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _functions(child)


def _first_line(node) -> int:
    """``co_firstlineno`` of the function: its first decorator's line."""
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _lines(node) -> int:
    return node.end_lineno - _first_line(node) + 1


def module_census(path: Path, called: Set[Key]) -> Tuple[int, int]:
    """``(cold, total)`` function lines of one module."""
    filename = str(path)
    tree = ast.parse(path.read_text(), filename)
    total = cold = 0
    for function in _functions(tree):
        total += _lines(function)
    pending = list(_functions(tree))
    while pending:
        function = pending.pop()
        if (filename, _first_line(function)) in called:
            pending.extend(_functions(function))
        else:
            cold += _lines(function)
    return cold, total


def census(called: Set[Key]) -> Dict[str, Tuple[int, int]]:
    """Per-module ``(cold, total)``, keyed by path under ``src/repro``."""
    return {str(path.relative_to(PACKAGE)): module_census(path, called)
            for path in sorted(PACKAGE.rglob("*.py"))}


def main() -> int:
    per_module = census(called_functions(ENTRY_POINTS))
    cold = sum(c for c, _ in per_module.values())
    total = sum(t for _, t in per_module.values())
    width = max(len(name) for name in per_module)
    print(f"{'module':<{width}}  {'cold':>5}  {'total':>5}")
    for name, (module_cold, module_total) in sorted(
            per_module.items(), key=lambda item: (-item[1][0], item[0])):
        if module_cold:
            print(f"{name:<{width}}  {module_cold:>5}  {module_total:>5}")
    print(f"cold function lines: {cold} / {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
