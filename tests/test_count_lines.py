"""The code-line count of tools/count_lines.py."""

import importlib.util
import pathlib

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "count_lines.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("count_lines", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


SNIPPET = '''"""Module docstring,
on two lines."""

import os  # a comment after code


def f(x):
    """Function docstring."""
    # a comment line
    text = """a string in an
expression"""
    return x + len(text)
'''


def test_docstrings_comments_and_blank_lines_do_not_count():
    # counted: the import, the def, the two lines of the assigned string
    # and the return
    assert load_tool().code_lines(SNIPPET) == 5
