"""``tools/code_size.py`` counts what it says, on a synthetic module."""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# Code lines are marked ``# code`` or sit inside a multi-line literal
# that is part of code; every other line is blank, a comment, or part
# of a bare string statement.
SOURCE = '''\
"""Module docstring — with a dash,

over three lines."""

import os  # code

# A comment line.
LIMIT = 3  # code
TEXT = """one
# not a comment: inside a literal that is code

two"""


def pick(a, b, c):  # code
    """Docstring — one line."""
    "A bare string statement in a body."
    if a and b and c:  # code
        return 1  # code
    elif a or (b and c):  # code
        return 2 if b else 3  # code
    while a:  # code
        a -= 1  # code
    for x in os.sep:  # code
        pass  # code
    return [x + y for x in "ab" for y in "cd" if x]  # code


def short(): "a docstring on the def line"
'''
# The twelve ``# code`` lines, TEXT's three non-blank lines and
# ``def short``; ``if`` and ``elif``; ``while``, ``for`` and two
# comprehension clauses; two extra operands in each boolean test.
WANT = {"code": 16, "if": 2, "ifexp": 1, "loops": 4, "boolops": 4}


def _load_tool():
    path = REPO_ROOT / "tools" / "code_size.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCodeSize:
    def test_counting_rules(self):
        assert _load_tool().count(SOURCE) == WANT

    def test_cli_prints_each_module_and_the_total(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "a.py").write_text(SOURCE, encoding="utf-8")
        (tmp_path / "b.py").write_text("x = 1 if y else 2\n",
                                       encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "tools" / "code_size.py"),
             str(tmp_path / "pkg"), str(tmp_path / "b.py")],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        header, first, second, total = proc.stdout.splitlines()
        assert header.split() == ["code", "if", "ifexp", "loops",
                                  "boolops", "module"]
        assert first.split() == [*map(str, WANT.values()),
                                 str(tmp_path / "pkg" / "a.py")]
        assert second.split() == ["1", "0", "1", "0", "0",
                                  str(tmp_path / "b.py")]
        assert total.split() == ["17", "2", "2", "4", "4", "total"]
