"""The cold-code and option ratchet's comparison, on synthetic modules.

``benchmarks/census.py`` takes minutes to run every entry point; this
checks only how it keys functions and options and compares them with an
allow-list.
"""

import importlib.util
from pathlib import Path

import pytest

CENSUS = Path(__file__).resolve().parent.parent / "benchmarks" / "census.py"

MODULE = '''
class Box:
    @property
    def size(self):
        return 1

    @size.setter
    def size(self, value):
        pass

    def used(self):
        return 2


def unused():
    return 3
'''


@pytest.fixture(scope="module")
def census():
    spec = importlib.util.spec_from_file_location("census", CENSUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def box(tmp_path):
    """The synthetic module's path and the code objects it defines."""
    path = tmp_path / "box.py"
    path.write_text(MODULE)
    namespace = {}
    exec(compile(MODULE, str(path), "exec"), namespace)
    box = namespace["Box"]
    codes = {"Box.size": box.size.fget.__code__,
             "Box.size.setter": box.size.fset.__code__,
             "Box.used": box.used.__code__,
             "unused": namespace["unused"].__code__}
    return path, codes


def called(path, codes, *names):
    return {(str(path), codes[name].co_firstlineno) for name in names}


class TestCompare:
    def test_unlisted_cold_function_is_reported(self, census, box):
        path, codes = box
        cold, _ = census.module_census(
            path, "box", called(path, codes, "Box.size", "Box.size.setter",
                                "Box.used"))
        assert cold == {"box:unused": 2}
        assert census.check(cold, {}) == [
            "unlisted cold function: box:unused (2 lines)"]
        assert census.check(cold, {"box:unused": {"reason": "spec"}}) == []

    def test_stale_entry_is_reported(self, census, box):
        path, codes = box
        cold, _ = census.module_census(path, "box",
                                       called(path, codes, *codes))
        assert cold == {}
        assert census.check(cold, {"box:unused": {"reason": "spec"}}) == [
            "stale allow entry: box:unused (reached or gone)"]
        assert census.check(cold, {"box:gone": {"reason": "spec"}}) == [
            "stale allow entry: box:gone (reached or gone)"]

    def test_getter_and_setter_are_keyed_apart(self, census, box):
        path, codes = box
        cold, _ = census.module_census(
            path, "box", called(path, codes, "Box.size", "Box.used",
                                "unused"))
        assert cold == {"box:Box.size.setter": 3}
        cold, _ = census.module_census(
            path, "box", called(path, codes, "Box.size.setter", "Box.used",
                                "unused"))
        assert cold == {"box:Box.size": 3}

    def test_reason_and_reader_are_checked(self, census):
        cold = {"box:unused": 2}
        assert census.check(cold, {"box:unused": {"reason": "dunno"}}) == [
            "box:unused: reason 'dunno' is not one of "
            + ", ".join(census.REASONS)]
        assert census.check(cold, {"box:unused": {"reason": "cli"}}) == [
            "box:unused: a 'cli' entry names its reader"]
        assert census.check(cold, {"box:unused": {
            "reason": "cli", "reader": "README.md:1"}}) == []


OPTIONS_MODULE = '''
import enum


class Mode(enum.Enum):
    FAST = 1
    SLOW = 2


class Box:
    def __init__(self, label=None, strict=False, mode=Mode.FAST, size=3,
                 _hidden=None):
        self.strict = strict

    def _private(self, flag=True):
        return flag


def pack(box, style="plain", *, verbose=False, ratio=0.5):
    return style


def unused(switch=True):
    return switch
'''


@pytest.fixture
def options_box(census, tmp_path):
    """The options of a synthetic module after one entry point ran it:
    ``Box(strict=True)``, ``pack`` with its default passed explicitly,
    and a private method with a non-default flag."""
    path = tmp_path / "box.py"
    path.write_text(OPTIONS_MODULE)
    namespace = {}
    exec(compile(OPTIONS_MODULE, str(path), "exec"), namespace)

    def entry_point():
        namespace["Box"](strict=True)
        namespace["pack"](namespace["Box"](), style="plain")
        namespace["Box"]()._private(flag=False)

    _, reached = census.called_functions(
        [entry_point], census.module_options(path, "box"))
    return reached


class TestOptions:
    def test_default_only_option_is_reported(self, census, options_box):
        idle = sorted(key for key, was_set in options_box.items()
                      if not was_set)
        assert idle == ["box:Box.__init__(label)", "box:Box.__init__(mode)",
                        "box:pack(style)", "box:pack(verbose)"]
        assert census.check({}, {}, idle) == [
            f"unlisted default-only option: {key}" for key in idle]
        allow = {key: {"reason": "test-only", "reader": "tests/x.py::t"}
                 for key in idle}
        assert census.check({}, allow, idle) == []

    def test_set_option_is_not_reported(self, options_box):
        assert options_box["box:Box.__init__(strict)"] is True

    def test_numeric_and_private_parameters_are_ignored(self, options_box):
        assert not [key for key in options_box
                    if "size" in key or "ratio" in key or "_hidden" in key
                    or "_private" in key]

    def test_options_of_a_cold_function_are_not_judged(self, options_box):
        assert "box:unused(switch)" not in options_box

    def test_stale_option_entry_is_reported(self, census, options_box):
        idle = [key for key, was_set in options_box.items() if not was_set]
        allow = {key: {"reason": "spec"}
                 for key in [*idle, "box:Box.__init__(strict)"]}
        assert census.check({}, allow, idle) == [
            "stale allow entry: box:Box.__init__(strict) (set or gone)"]

    def test_test_only_entry_names_its_reader(self, census):
        idle = ["box:pack(style)"]
        assert census.check({}, {"box:pack(style)": {
            "reason": "test-only"}}, idle) == [
            "box:pack(style): a 'test-only' entry names its reader"]
        assert census.check({"box:unused": 2}, {"box:unused": {
            "reason": "test-only", "reader": "tests/x.py::t"}}) == [
            "box:unused: a test is no reason to keep a function"]


class TestFingerprints:
    def test_edits_during_a_run_are_named(self, census, tmp_path):
        (tmp_path / "kept.py").write_text("A = 1\n")
        (tmp_path / "edited.py").write_text("B = 1\n")
        (tmp_path / "removed.py").write_text("C = 1\n")
        before = census.fingerprints(tmp_path)
        assert census.changed(before, census.fingerprints(tmp_path)) == []
        (tmp_path / "edited.py").write_text("B = 2\n")
        (tmp_path / "removed.py").unlink()
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "added.py").write_text("")
        assert census.changed(before, census.fingerprints(tmp_path)) == [
            "edited.py", "pkg/added.py", "removed.py"]

