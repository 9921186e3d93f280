"""Nothing in ``src/`` runs only for its own tests.

Two rules, both checked against every non-test source of ``src/``, the
benchmarks, examples, hostbench and tools; tests, docstrings and
comments do not count.

**Definitions.** Every function, class and method defined in ``src/``
must be named somewhere else:

- a method or property (a definition in a class body) only by an
  attribute reference, ``x.name``;
- a module-level or nested function or class by a bare ``Name`` or an
  import too (a package ``__init__.py``'s re-exports aside). A bare
  name counts only where it is read and no enclosing function binds it
  (as a parameter, an assignment target or an import; a nested ``def``
  binds its name only as its definition): a local variable of the same
  spelling keeps nothing;
- an attribute of a module outside ``repro`` bound by ``import``, such
  as ``np.percentile``, names nothing;
- a string constant names something only in ``hostbench/``, whose
  probes patch by name, or as the name argument of ``getattr``,
  ``setattr`` or ``hasattr``.

The rule matches names, not objects, so a definition hidden by a
same-named method of another class (``x.pending`` read on one class
keeps every ``pending`` alive) passes unseen; such names are found by
hand. Dunder methods and ``__init__.py`` files are exempt, since Python
calls the first and the second only re-export.

**Options.** Every parameter of a function in ``src/`` whose default is
``None``, ``True`` or ``False`` must be set by some call. A call matches
by the called name, and a class call matches its ``__init__``. It sets
a parameter by keyword, by position (after ``self``) or through
``*args``/``**kwargs``; a function passed as a positional argument gets
that call's keywords, as ``run_once(benchmark, fn, seed=1)`` forwards
``seed`` to ``fn``.

A definition or option only tests use is test scaffolding, and belongs
in ``tests/``. An exception goes into ``KEPT`` or ``KEPT_OPTIONS`` with
its reason. CI installs no dead-code linter, so this test is the check.
"""

from __future__ import annotations

import ast
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLERS = ("benchmarks", "examples", "hostbench", "tools")
# Folders whose string constants name what they patch.
PATCHERS = ("hostbench",)
NAME_ARGUMENT = {"getattr", "setattr", "hasattr"}

# Definitions kept without a caller, each with its reason.
KEPT = {
    "metrics_view": "folds a recorded stream into a MetricsRegistry; the "
                    "planned streaming trace sink builds on that registry",
}

# Options kept though no call outside tests sets them, each with its
# reason.
KEPT_OPTIONS = {
    "main(argv=)": "argparse's test seam: None reads sys.argv",
    "RecordingTracer(metrics=)": "the planned streaming trace sink feeds "
                                 "this registry",
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


def _foreign_modules(tree):
    """Names that ``import`` binds to a module outside ``repro``."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name.split(".")[0] != "repro"
    }


def _root(node):
    """The ``Name`` an attribute chain such as ``np.linalg.norm`` starts
    from, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bindings(function):
    """The names ``function`` binds itself: its parameters and the names
    its body stores, deletes, imports or catches, outside nested
    functions and classes, less those it declares ``global`` or
    ``nonlocal``. A comprehension's targets count as its function's."""
    args = function.args
    bound = {arg.arg for arg in (*args.posonlyargs, *args.args,
                                 *args.kwonlyargs, args.vararg, args.kwarg)
             if arg is not None}
    declared = set()
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        if not isinstance(node, (*_SCOPES, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return bound - declared


def _free_loads(tree):
    """The bare names ``tree`` reads where no enclosing function binds
    them."""
    found = set()
    stack = [(tree, frozenset())]
    while stack:
        node, bound = stack.pop()
        if isinstance(node, _SCOPES):
            bound = bound | _bindings(node)
        elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
              and node.id not in bound):
            found.add(node.id)
        stack.extend((child, bound) for child in ast.iter_child_nodes(node))
    return found


def references(source, *, reexports=False, strings=False):
    """``(names, attributes)`` that ``source`` refers to outside its
    docstrings.

    ``names`` holds the bare names read where no enclosing function
    binds them and the imported names, ``attributes`` the
    attribute references (those of a foreign module excepted) and the
    name arguments of ``getattr``/``setattr``/``hasattr``. With
    ``strings`` (a patcher) every string constant joins both. With
    ``reexports`` (a package ``__init__.py``) imports and string
    constants, such as ``__all__`` entries, do not count.
    """
    tree = _without_docstrings(ast.parse(source))
    foreign = _foreign_modules(tree)
    names, attributes = _free_loads(tree), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            if _root(node.value) not in foreign:
                attributes.add(node.attr)
        elif reexports:
            continue
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.update(alias.name.split("."))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in NAME_ARGUMENT and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and isinstance(node.args[1].value, str)):
            attributes.add(node.args[1].value)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str)):
            names.add(node.value)
            attributes.add(node.value)
    return names, attributes


def _scopes(tree):
    """``(node, parent)`` of every function and class in ``tree``."""
    stack = [(child, tree) for child in ast.iter_child_nodes(tree)]
    while stack:
        node, parent = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node, parent
            stack.extend((child, node) for child in ast.iter_child_nodes(node))
        else:
            stack.extend((child, parent)
                         for child in ast.iter_child_nodes(node))


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def definitions(source):
    """``(line, name, member)`` of every function, class and method in
    ``source``, dunder methods excepted; ``member`` is true for a
    definition in a class body."""
    return sorted(
        (node.lineno, node.name, isinstance(parent, ast.ClassDef))
        for node, parent in _scopes(ast.parse(source))
        if not _dunder(node.name)
    )


def uncalled(modules, callers):
    """Sorted ``(module, line, name)`` of each definition in ``modules``
    (module path to source) that neither ``modules`` nor ``callers``
    (path to source) names. An ``__init__.py`` module counts only as
    re-exports and is not scanned for definitions; a caller under a
    ``PATCHERS`` folder names what its strings spell."""
    names, attributes = set(), set()
    for module, source in modules.items():
        found = references(source, reexports=module.endswith("__init__.py"))
        names |= found[0]
        attributes |= found[1]
    for path, source in callers.items():
        found = references(source, strings=path.startswith(PATCHERS))
        names |= found[0]
        attributes |= found[1]
    return sorted(
        (module, line, name)
        for module, source in modules.items()
        if not module.endswith("__init__.py")
        for line, name, member in definitions(source)
        if name not in attributes and (member or name not in names)
    )


def options(source):
    """``(line, function, parameter, position)`` of every parameter in
    ``source`` whose default is None, True or False.

    ``function`` names the owner: the class for an ``__init__`` (a
    class call matches it), ``Class.method`` for a method (a call of
    ``method`` matches it). ``position`` is the
    parameter's index among a call's positional arguments (after
    ``self`` or ``cls``), or None for a keyword-only one.
    """
    found = []
    for node, parent in _scopes(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            continue
        member = isinstance(parent, ast.ClassDef)
        if node.name == "__init__" and member:
            function = parent.name
        elif member:
            function = f"{parent.name}.{node.name}"
        else:
            function = node.name
        bound = member and not any(
            isinstance(d, ast.Name) and d.id == "staticmethod"
            for d in node.decorator_list)
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = [None] * (len(positional) - len(args.defaults))
        pairs = [(arg, default, index - bound)
                 for index, (arg, default)
                 in enumerate(zip(positional, defaults + args.defaults))]
        pairs += [(arg, default, None)
                  for arg, default in zip(args.kwonlyargs, args.kw_defaults)]
        for arg, default, position in pairs:
            # ``is``, not ``in``: 0 == False and 1 == True.
            if isinstance(default, ast.Constant) and any(
                    default.value is flag for flag in (None, True, False)):
                found.append((node.lineno, function, arg.arg, position))
    return found


def _called(func):
    """The name a call's ``func`` spells, or None."""
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def settings(sources):
    """What the calls in ``sources`` set, by called name: keyword names,
    positional indices, ``"*"`` and ``"**"``. A function passed as a
    positional argument gets the call's keywords."""
    set_by = defaultdict(set)
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.Call):
                continue
            keywords = {kw.arg or "**" for kw in node.keywords}
            keys = set(keywords)
            for index, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    keys.add("*")
                    break
                keys.add(index)
                forwarded = _called(arg)
                if forwarded is not None:
                    set_by[forwarded] |= keywords
            called = _called(node.func)
            if called is not None:
                set_by[called] |= keys
    return set_by


def unset(modules, callers):
    """Sorted ``(module, line, option)`` of each option in ``modules``
    (module path to source) that no call in ``modules`` or ``callers``
    (path to source) sets; ``option`` reads ``function(parameter=)``."""
    set_by = settings([*modules.values(), *callers.values()])
    found = []
    for module, source in modules.items():
        for line, function, parameter, position in options(source):
            keys = set_by.get(function.rpartition(".")[2], set())
            if "**" in keys or parameter in keys:
                continue
            if position is not None and ("*" in keys or position in keys):
                continue
            found.append((module, line, f"{function}({parameter}=)"))
    return sorted(found)


@lru_cache(maxsize=1)
def _sources():
    """``src/`` modules and the caller folders' non-test sources, each
    by path."""
    modules = {
        str(path.relative_to(SRC)): path.read_text()
        for path in sorted(SRC.rglob("*.py"))
    }
    callers = {
        str(path.relative_to(ROOT)): path.read_text()
        for folder in CALLERS
        for path in sorted((ROOT / folder).rglob("*.py"))
        if "tests" not in path.relative_to(ROOT).parts
    }
    return modules, callers


@lru_cache(maxsize=1)
def src_uncalled():
    """:func:`uncalled` over ``src/`` and the caller folders."""
    return uncalled(*_sources())


@lru_cache(maxsize=1)
def src_unset():
    """:func:`unset` over ``src/`` and the caller folders."""
    return unset(*_sources())


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
        callers = {
            "hostbench/probe.py": (
                "from pkg.core import Model\n"
                "Model().used()\n"
                "# exported() in a comment\n"
                "TARGETS = [('pkg.core', 'patched')]\n"
            ),
        }
        # A re-export, a docstring and a comment name nothing; a call
        # from a definition that is itself uncalled still counts.
        assert uncalled(modules, callers) == [
            ("pkg/core.py", 1, "exported"),
            ("pkg/core.py", 6, "documented"),
            ("pkg/core.py", 13, "unused"),
        ]

    def test_a_local_variable_does_not_keep_a_method(self):
        modules = {
            "pkg/sched.py": (
                "class Scheduler:\n"
                "    def ready(self):\n"
                "        return []\n"
                "    def drain(self):\n"
                "        ready = []\n"
                "        return ready\n"
                "def run():\n"
                "    return Scheduler().drain()\n"
            ),
        }
        callers = {"examples/use.py": "from pkg.sched import run\nrun()\n"}
        assert uncalled(modules, callers) == [("pkg/sched.py", 2, "ready")]

    def test_a_local_binding_does_not_keep_a_function(self):
        # An uncalled ``cumsum`` once passed because the Hall kernel
        # binds a local of that name.
        modules = {
            "pkg/ops.py": "def cumsum(values):\n    return values\n",
            "pkg/share.py": (
                "import numpy as np\n"
                "def scale(x):\n"
                "    return x\n"
                "def bounds(loads):\n"
                "    cumsum = np.cumsum(loads)\n"
                "    return scale(cumsum[-1])\n"
                "def walk(cumsum):\n"
                "    return cumsum\n"
                "def outer(loads):\n"
                "    cumsum = loads\n"
                "    def inner():\n"
                "        return cumsum\n"
                "    return inner()\n"
            ),
        }
        callers = {
            "examples/use.py": (
                "from pkg.share import bounds, outer, walk\n"
                "bounds([1]), outer([1]), walk(1)\n"
            ),
        }
        # A parameter, an assignment and an enclosing function's local
        # all hide the name; a free read keeps ``scale``.
        assert uncalled(modules, callers) == [("pkg/ops.py", 1, "cumsum")]

    def test_a_foreign_module_attribute_names_nothing(self):
        modules = {
            "repro/stats.py": (
                "import numpy as np\n"
                "import numpy.linalg\n"
                "def percentile(values, q):\n"
                "    return sorted(values)[0]\n"
                "def norm(values):\n"
                "    return 0.0\n"
                "def fold(values):\n"
                "    return np.percentile(values, 50), numpy.linalg.norm(values)\n"
            ),
            "repro/helpers.py": "def scale(x):\n    return x\n",
        }
        callers = {
            "tools/use.py": (
                "import repro.helpers as h\n"
                "import repro.stats\n"
                "repro.stats.fold([1]), h.scale(2)\n"
            ),
        }
        # A ``repro`` module bound by ``import`` still names its members.
        assert uncalled(modules, callers) == [
            ("repro/stats.py", 3, "percentile"),
            ("repro/stats.py", 5, "norm"),
        ]

    def test_a_string_names_only_in_a_patcher_or_a_getattr(self):
        modules = {
            "pkg/coo.py": (
                "class Coo:\n"
                "    def scaled(self):\n"
                "        return self\n"
                "    def identity(self):\n"
                "        return self\n"
                "    def patched(self):\n"
                "        return self\n"
                "PRESETS = ('scaled',)\n"
                "def build():\n"
                "    return getattr(Coo(), 'identity')()\n"
            ),
        }
        callers = {
            "examples/use.py": "from pkg.coo import build\nbuild()\n",
            "hostbench/probe.py": "TARGETS = [('pkg.coo:Coo', 'patched')]\n",
        }
        assert uncalled(modules, callers) == [("pkg/coo.py", 2, "scaled")]

    def test_an_option_only_a_test_sets_is_flagged(self):
        modules = {
            "pkg/gen.py": (
                "def edges(n, *, dedupe=True, seed=None, rate=1.0):\n"
                "    return n\n"
                "class Queue:\n"
                "    def __init__(self, capacity=None, strict=False):\n"
                "        self.capacity = capacity\n"
                "    def push(self, item, front=False):\n"
                "        return item\n"
            ),
        }
        callers = {
            "examples/use.py": (
                "from pkg.gen import Queue, edges\n"
                "edges(4, seed=1)\n"
                "Queue(8).push(1)\n"
            ),
        }
        # ``rate`` is numeric, and ``capacity`` is set by position; the
        # tests' own calls do not count.
        assert unset(modules, callers) == [
            ("pkg/gen.py", 1, "edges(dedupe=)"),
            ("pkg/gen.py", 4, "Queue(strict=)"),
            ("pkg/gen.py", 6, "Queue.push(front=)"),
        ]

    def test_kwargs_and_a_passed_function_forward_keywords(self):
        modules = {
            "pkg/drivers.py": (
                "def sweep(sizes, *, ceiling=None, stragglers=None):\n"
                "    return sizes\n"
                "def profile(*, measure=False):\n"
                "    return measure\n"
                "def spread(*items, strict=False):\n"
                "    return items\n"
            ),
        }
        callers = {
            "benchmarks/bench_sweep.py": (
                "from pkg.drivers import profile, spread, sweep\n"
                "def run_once(benchmark, fn, **kw):\n"
                "    return benchmark(fn, **kw)\n"
                "run_once(None, sweep, ceiling=4)\n"
                "common = {'measure': True}\n"
                "profile(**common)\n"
                "spread(*[1, 2])\n"
            ),
        }
        # ``run_once`` hands ``ceiling`` to ``sweep``; ``**common`` may
        # hold any keyword, but ``*args`` sets no keyword-only one.
        assert unset(modules, callers) == [
            ("pkg/drivers.py", 1, "sweep(stragglers=)"),
            ("pkg/drivers.py", 5, "spread(strict=)"),
        ]


def test_every_src_definition_has_a_caller():
    found = [f"{module}:{line} {name}"
             for module, line, name in src_uncalled() if name not in KEPT]
    assert found == []


def test_every_kept_name_is_still_uncalled():
    # An exception outlives its reason once its name gains a caller or
    # is deleted; then it leaves KEPT too.
    assert {name for _m, _l, name in src_uncalled()} >= set(KEPT)


def test_every_src_option_is_set_outside_tests():
    found = [f"{module}:{line} {option}"
             for module, line, option in src_unset()
             if option not in KEPT_OPTIONS]
    assert found == []


def test_every_kept_option_is_still_unset():
    assert {option for _m, _l, option in src_unset()} >= set(KEPT_OPTIONS)
