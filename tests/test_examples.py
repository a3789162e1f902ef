"""Every example script must run clean — they are living documentation."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES,
                         ids=[path.stem for path in EXAMPLES])
def test_example_runs_clean(script):
    completed = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True,
        timeout=300)
    assert completed.returncode == 0, (
        f"{script.name} failed:\n{completed.stderr[-2000:]}")
    assert completed.stdout.strip(), f"{script.name} printed nothing"


def test_expected_examples_present():
    names = {path.stem for path in EXAMPLES}
    # The three tasks of §2 must each have a walk-through, plus the
    # quickstart the README references.
    assert {"quickstart", "microburst_monitor", "rcp_fairness",
            "ndb_debugger"} <= names


def test_package_quickstart_runs(capsys):
    """The quickstart block of the package docstring runs as written."""
    import repro

    block = repro.__doc__.split("Quickstart::\n", 1)[1]
    source = "\n".join(line[4:] for line in block.splitlines())
    exec(compile(source, "repro.__doc__", "exec"), {})
    assert capsys.readouterr().out == "[[0], [0], [0]]\n"
