"""No module in ``src/`` imports a name it never uses.

CI installs no linter, so this test does the one check of pyflakes'
F401 that matters here. A package's ``__init__.py`` is skipped: its
imports are its exports. A line marked ``# noqa: F401`` is skipped too:
``hostbench/layers.py`` patches such names on the importing module.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def unused_imports(source):
    """``(line, name)`` of every imported name ``source`` never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.append((node.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


class TestRules:
    def test_reads_count_wherever_they_are(self):
        source = (
            "from __future__ import annotations\n"
            "import math\n"
            "import os.path\n"
            "from dataclasses import dataclass, field\n"
            "from typing import Any as Anything\n"
            "def f(x: Anything):\n"
            "    return math.pi, os.path.sep\n"
        )
        assert unused_imports(source) == [(4, "dataclass"), (4, "field")]

    def test_docstrings_do_not_count_and_noqa_lines_are_kept(self):
        source = (
            "import json  # noqa: F401\n"
            "import numpy as np\n"
            "def f():\n"
            "    '''Returns an np.ndarray.'''\n"
        )
        assert unused_imports(source) == [(2, "np")]


def test_src_uses_every_import():
    found = {}
    for path in sorted(SRC.rglob("*.py")):
        if path.name != "__init__.py":
            unused = unused_imports(path.read_text())
            if unused:
                found[str(path.relative_to(SRC))] = unused
    assert found == {}
