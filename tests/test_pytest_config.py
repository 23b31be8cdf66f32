"""The suite's own pytest configuration, as pyproject.toml sets it."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_property(x):
    assert x < 5


def test_plain():
    pass
"""


def test_failing_property_prints_its_example_and_the_session_goes_on(tmp_path):
    # with every warning an error, Hypothesis's failure report once died in
    # an INTERNALERROR: no falsifying example, and no later test ran
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY)
    run = subprocess.run([sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
                          "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-rA",
                          "test_prop.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "Falsifying example" in run.stdout
    assert "PASSED test_prop.py::test_plain" in run.stdout
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert run.returncode == 1
