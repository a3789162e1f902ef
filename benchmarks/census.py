"""Census of the functions in ``src/repro`` that nothing reaches and of
the options nothing sets, and the ratchet that keeps both lists honest.

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

The same hook watches the options of every public function: a
defaulted parameter whose default is ``None``, a ``bool``, a ``str`` or
an ``Enum`` member, in a function none of whose module or qualname
parts starts with ``_`` (dunders such as ``__init__`` count as public).
Numeric defaults are model constants, not switches, and are not
watched; neither are dataclass fields.  An option of a function that
ran, which no call set to anything but its default, is default-only,
keyed ``module:qualname(param)``
(``repro.core.tcpu:TCPU.__init__(compile)``).  A cold function's
options are not judged apart from it.

``census_allow.json`` (beside this file) names every function that may
stay cold and every option that may stay default-only, each with a
``reason`` from :data:`REASONS` — and, for ``cli``, ``bench-hook``,
``counter`` and ``test-only`` (options only), the ``reader`` that
reaches it.  The census exits 1 when a cold function or a default-only
option is not listed, when a listed one is reached (set) or gone, or
when an entry's reason or reader is missing.  Functions are matched to
source lines, so the census also exits 1, naming the files, when a
``src/repro`` source changed while the entry points ran.
``tests/test_census.py`` checks those comparisons on synthetic modules.

Usage::

    PYTHONPATH=src python benchmarks/census.py

Prints cold / total function lines per module (modules with a cold line
only), the cold lines and default-only options per reason, every
problem on stderr, then ``default-only options: N / M`` (of the options
of the functions that ran) and last ``cold function lines: N / M``.
Takes a minute or two; the output is deterministic.
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
from enum import Enum
from pathlib import Path
from types import CodeType
from typing import Any, Callable, Dict, Iterable, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
BENCHMARKS = ROOT / "benchmarks"
EXAMPLES = ROOT / "examples"
BENCH_E2E = ROOT / "bench_e2e"
ALLOW = BENCHMARKS / "census_allow.json"

#: The reasons a function may stay cold or an option default-only, and
#: whether an entry with that reason must also name its reader (the doc
#: line, CI step, ``bench_e2e`` file:line, ``COUNTERS`` tuple or test
#: that reaches it).
REASONS: Dict[str, bool] = {
    "spec": False,          # the reference interpreter
    "error-path": False,    # hostile input and raised errors
    "fork-child": False,    # runs in a process the profiler does not see
    "impairment": False,    # link faults no experiment injects yet
    "cli": True,
    "bench-hook": True,
    "counter": True,
    "test-only": True,      # an option only a test sets
}

#: A function's identity in both worlds: (absolute file, first line).
Key = Tuple[str, int]

#: The kinds of default that make a parameter an option.
OPTION_TYPES = (type(None), bool, str, Enum)


class Option:
    """One watched parameter: its census key and its default, which is
    an AST node until the function's first call resolves it."""

    __slots__ = ("key", "param", "default")

    def __init__(self, key: str, param: str, default: ast.expr):
        self.key = key
        self.param = param
        self.default: Any = default


def _resolve(options: List[Option], namespace: Dict[str, Any]
             ) -> List[Option]:
    """The options whose default, evaluated in the function's module,
    is ``None``, a ``bool``, a ``str`` or an ``Enum`` member."""
    kept = []
    for option in options:
        node = option.default
        if isinstance(node, ast.Constant):
            option.default = node.value
        else:
            try:
                option.default = eval(ast.unparse(node), namespace)
            except (NameError, AttributeError):  # e.g. a class-level name
                continue
        if isinstance(option.default, OPTION_TYPES):
            kept.append(option)
    return kept


def _is_default(value: Any, default: Any) -> bool:
    return value is default or (type(value) is type(default)
                                and value == default)


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


def called_functions(entry_points: Iterable[Callable[[], None]],
                     options: Dict[Key, List[Option]]
                     ) -> Tuple[Set[Key], Dict[str, bool]]:
    """Keys of every ``src/repro`` function called by the entry points,
    and every option (of ``options``, as :func:`option_table` builds
    them) of a function that ran, mapped to whether a call set it."""
    seen: Dict[CodeType, List[Option]] = {}
    reached: Dict[str, bool] = {}

    def watch(frame) -> List[Option]:
        code = frame.f_code
        pending = _resolve(options.get(
            (os.path.abspath(code.co_filename), code.co_firstlineno), []),
            frame.f_globals)
        reached.update((option.key, False) for option in pending)
        return pending

    def record(frame, event, arg):
        if event == "call":
            pending = seen.get(frame.f_code)
            if pending is None:
                pending = seen[frame.f_code] = watch(frame)
            if pending:
                values = frame.f_locals
                for option in list(pending):
                    if not _is_default(values[option.param],
                                       option.default):
                        reached[option.key] = True
                        pending.remove(option)

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
    return {key for key in keys if key[0].startswith(prefix)}, reached


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


def _modules(root: Path = PACKAGE) -> Iterable[Tuple[Path, str]]:
    """Every source under ``root`` and its dotted module name."""
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root.parent)
                          .with_suffix("").parts)
        yield path, module.removesuffix(".__init__")


def census(called: Set[Key]) -> Dict[str, Tuple[Dict[str, int], int]]:
    """Per module, keyed by path under ``src/repro``: its cold functions
    and its total function lines."""
    return {str(path.relative_to(PACKAGE)): module_census(path, module,
                                                          called)
            for path, module in _modules()}


def _public(name: str) -> bool:
    return not any(part.startswith("_") and not part.endswith("__")
                   for part in name.replace(":", ".").split("."))


def _defaults(function) -> Iterable[Tuple[str, ast.expr]]:
    """``(parameter, default expression)`` of a function's defaulted
    parameters, positional and keyword-only."""
    args = function.args
    positional = args.posonlyargs + args.args
    defaulted = positional[len(positional) - len(args.defaults):]
    yield from ((arg.arg, node) for arg, node in zip(defaulted, args.defaults))
    yield from ((arg.arg, node)
                for arg, node in zip(args.kwonlyargs, args.kw_defaults)
                if node is not None)


def module_options(path: Path, module: str) -> Dict[Key, List[Option]]:
    """The candidate options of one module's public functions, keyed
    like :func:`called_functions`' functions.  A default that is a
    literal or a (dotted) name is a candidate; the first call keeps it
    if it evaluates to one of :data:`OPTION_TYPES`."""
    tree = ast.parse(path.read_text(), str(path))
    table = {}
    for qualname, function in _functions(tree, ""):
        name = f"{module}:{qualname}"
        pending = [Option(f"{name}({param})", param, node)
                   for param, node in _defaults(function)
                   if not param.startswith("_") and isinstance(
                       node, (ast.Constant, ast.Name, ast.Attribute))]
        if pending and _public(name):
            table[(str(path), _first_line(function))] = pending
    return table


def option_table() -> Dict[Key, List[Option]]:
    table = {}
    for path, module in _modules():
        table.update(module_options(path, module))
    return table


def check(cold: Dict[str, int], allow: Dict[str, Dict[str, str]],
          idle: Iterable[str] = ()) -> List[str]:
    """What the ratchet refuses: a cold function or a default-only
    (``idle``) option the allow-list does not name, an entry whose
    function is reached or option set (or either gone), and an entry
    without a known reason or without the reader its reason needs."""
    idle = set(idle)
    problems = [f"unlisted cold function: {name} ({lines} lines)"
                for name, lines in sorted(cold.items()) if name not in allow]
    problems += [f"unlisted default-only option: {name}"
                 for name in sorted(idle) if name not in allow]
    for name, entry in sorted(allow.items()):
        if name not in cold and name not in idle:
            problems.append(f"stale allow entry: {name} "
                            f"({'set' if '(' in name else 'reached'} "
                            f"or gone)")
        reason = entry.get("reason")
        if reason not in REASONS:
            problems.append(f"{name}: reason {reason!r} is not one of "
                            f"{', '.join(REASONS)}")
        elif REASONS[reason] and not entry.get("reader"):
            problems.append(f"{name}: a {reason!r} entry names its reader")
        elif reason == "test-only" and "(" not in name:
            problems.append(f"{name}: a test is no reason to keep a "
                            f"function")
    return problems


def main() -> int:
    before = fingerprints()
    called, options = called_functions(ENTRY_POINTS, option_table())
    edited = changed(before, fingerprints())
    for path in edited:
        print(f"source changed during the run: {path}", file=sys.stderr)
    if edited:
        return 1
    per_module = census(called)
    allow = json.loads(ALLOW.read_text())
    cold = {name: lines for module_cold, _ in per_module.values()
            for name, lines in module_cold.items()}
    idle = sorted(name for name, was_set in options.items() if not was_set)
    width = max(len(name) for name in per_module)
    print(f"{'module':<{width}}  {'cold':>5}  {'total':>5}")
    for name, (module_cold, total) in sorted(
            per_module.items(),
            key=lambda item: (-sum(item[1][0].values()), item[0])):
        if module_cold:
            print(f"{name:<{width}}  {sum(module_cold.values()):>5}  "
                  f"{total:>5}")
    per_reason: Dict[str, List[int]] = {}  # reason: [cold lines, options]
    for name, lines, count in [*((name, lines, 0)
                                 for name, lines in cold.items()),
                               *((name, 0, 1) for name in idle)]:
        tally = per_reason.setdefault(
            allow.get(name, {}).get("reason", "unlisted"), [0, 0])
        tally[0] += lines
        tally[1] += count
    print()
    print(f"{'reason':<{width}}  {'cold':>5}  {'opts':>5}")
    for reason in [*REASONS, "unlisted"]:
        if reason in per_reason:
            lines, count = per_reason[reason]
            print(f"{reason:<{width}}  {lines:>5}  {count:>5}")
    problems = check(cold, allow, idle)
    for problem in problems:
        print(problem, file=sys.stderr)
    print(f"default-only options: {len(idle)} / {len(options)}")
    print(f"cold function lines: {sum(cold.values())} / "
          f"{sum(total for _, total in per_module.values())}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
