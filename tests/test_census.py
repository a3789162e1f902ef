"""The cold-code ratchet's comparison, on a synthetic module.

``benchmarks/census.py`` takes minutes to run every entry point; this
checks only how it keys functions and compares them with an allow-list.
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

