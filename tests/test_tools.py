"""The repository's tools."""

import importlib.util
import pathlib

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""Module docstring,

over three lines."""
# a comment

def f(x):  # code with a comment
    """One-line docstring."""
    s = """a string that is
not a docstring"""
    "a statement-level string"  # still a docstring
    return (x,
            s)
'''


def test_count_lines_classifies_each_line():
    kinds = load_tool("count_lines").classify(SNIPPET)
    assert kinds == ["docstring", "blank", "docstring", "comment", "blank",
                     "code", "docstring", "code", "code", "docstring", "code", "code"]
    assert len(kinds) == len(SNIPPET.splitlines())
