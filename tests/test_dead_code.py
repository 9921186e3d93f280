"""Nothing in ``src/`` runs only for its own tests.

Every function, class and method defined in ``src/`` must be named
somewhere else: in ``src/`` outside a package's re-exports, or in the
benchmarks, examples, hostbench or tools. A name counts as a ``Name``,
an ``Attribute``, an imported name or a string constant equal to it
(``hostbench/layers.py`` patches functions by name). Docstrings,
comments and tests do not count: a definition only tests call is test
scaffolding, and belongs in ``tests/``. Dunder methods and
``__init__.py`` files are exempt, since Python calls the first and the
second only re-export. CI installs no dead-code linter, so this test is
the check.
"""

from __future__ import annotations

import ast
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLERS = ("benchmarks", "examples", "hostbench", "tools")

# Definitions kept without a caller, each with its reason.
KEPT = {
    "metrics_view": "folds a recorded stream into a MetricsRegistry; the "
                    "planned streaming trace sink builds on that registry",
}


def _without_docstrings(tree):
    """``tree`` with every module, class and function docstring dropped."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                node.body = body[1:] or [ast.Pass()]
    return tree


def references(source, *, reexports=False):
    """Every name ``source`` refers to outside its docstrings.

    With ``reexports`` (a package ``__init__.py``) imports and string
    constants, such as ``__all__`` entries, do not count.
    """
    names = set()
    for node in ast.walk(_without_docstrings(ast.parse(source))):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif reexports:
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def definitions(source):
    """``(line, name)`` of every function, class and method in ``source``,
    dunder methods excepted."""
    return [
        (node.lineno, node.name) for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def uncalled(modules, callers):
    """Sorted ``(module, line, name)`` of each definition in ``modules``
    (module path to source) that neither ``modules`` nor a source in
    ``callers`` names. An ``__init__.py`` module counts only as
    re-exports and is not scanned for definitions."""
    named = set()
    for module, source in modules.items():
        named |= references(source,
                            reexports=module.endswith("__init__.py"))
    for source in callers:
        named |= references(source)
    return sorted(
        (module, line, name)
        for module, source in modules.items()
        if not module.endswith("__init__.py")
        for line, name in definitions(source)
        if name not in named
    )


@lru_cache(maxsize=1)
def src_uncalled():
    """:func:`uncalled` over ``src/``, with every non-test source of the
    caller folders."""
    modules = {
        str(path.relative_to(SRC)): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }
    callers = [
        path.read_text()
        for folder in CALLERS
        for path in sorted((ROOT / folder).rglob("*.py"))
        if "tests" not in path.relative_to(ROOT).parts
    ]
    return uncalled(modules, callers)


class TestRules:
    def test_only_an_outside_reference_keeps_a_definition(self):
        modules = {
            "pkg/__init__.py": (
                "from pkg.core import exported\n"
                "__all__ = ['exported']\n"
            ),
            "pkg/core.py": (
                "def exported():\n"
                "    '''Returns documented() + 1.'''\n"
                "    return _helper()\n"
                "def _helper():\n"
                "    return 1\n"
                "def documented():\n"
                "    pass\n"
                "class Model:\n"
                "    def __repr__(self):\n"
                "        return 'Model'\n"
                "    def used(self):\n"
                "        return self\n"
                "    def unused(self):\n"
                "        return None\n"
                "def patched():\n"
                "    pass\n"
            ),
        }
        callers = [
            "from pkg.core import Model\n"
            "Model().used()\n"
            "# exported() in a comment\n"
            "TARGETS = [('pkg.core', 'patched')]\n"
        ]
        # A re-export, a docstring and a comment name nothing; a call
        # from a definition that is itself uncalled still counts.
        assert uncalled(modules, callers) == [
            ("pkg/core.py", 1, "exported"),
            ("pkg/core.py", 6, "documented"),
            ("pkg/core.py", 13, "unused"),
        ]


def test_every_src_definition_has_a_caller():
    found = [f"{module}:{line} {name}"
             for module, line, name in src_uncalled() if name not in KEPT]
    assert found == []


def test_every_kept_name_is_still_uncalled():
    # An exception outlives its reason once its name gains a caller or
    # is deleted; then it leaves KEPT too.
    assert {name for _m, _l, name in src_uncalled()} >= set(KEPT)
