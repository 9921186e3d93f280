"""Code size of Python modules: lines, branches, loops, boolean operands.

    python tools/code_size.py [PATH ...]

Each PATH is a ``.py`` file or a directory searched recursively for
them; the default is ``src``. For every module, and summed over all of
them, it prints:

* ``code``: non-blank lines that are neither comments nor part of a
  bare string statement, so docstrings do not count (a multi-line
  string that is part of code counts on each of its non-blank lines);
* ``if``: ``if`` statements, each ``elif`` included;
* ``ifexp``: conditional expressions (``a if c else b``);
* ``loops``: ``for`` and ``while`` statements and comprehension
  ``for`` clauses (a comprehension's ``if`` filters are not counted);
* ``boolops``: boolean operands beyond the first of each ``and`` or
  ``or`` (``a and b or c`` counts 2).

A simplicity change reports these totals before and after, beside
``git diff --shortstat``. The script has no other option and exits 0.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import io
import tokenize
from pathlib import Path

COLUMNS = ("code", "if", "ifexp", "loops", "boolops")
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def _bare_strings(tree, lines):
    """Sorted ``(start, end)`` token positions of every bare string
    statement. The AST counts columns in UTF-8 bytes, tokenize in
    characters."""

    def position(row, col):
        return row, len(lines[row - 1].encode()[:col].decode())

    return sorted(
        (position(node.lineno, node.col_offset),
         position(node.end_lineno, node.end_col_offset))
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, (str, bytes))
    )


def _code_lines(source, tree):
    """Non-blank lines holding a token that is neither a comment nor
    part of a bare string statement."""
    lines = source.split("\n")
    spans = _bare_strings(tree, lines)
    starts = [start for start, _end in spans]
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _NOT_CODE:
            continue
        # Bare string statements never overlap, so only the last one
        # starting at or before the token can hold it.
        i = bisect.bisect_right(starts, tok.start) - 1
        if i >= 0 and tok.end <= spans[i][1]:
            continue
        for row in range(tok.start[0], tok.end[0] + 1):
            if lines[row - 1].strip():
                code.add(row)
    return len(code)


def count(source):
    """The :data:`COLUMNS` counts of one module's source, as a dict."""
    tree = ast.parse(source)
    counts = dict.fromkeys(COLUMNS, 0)
    counts["code"] = _code_lines(source, tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            counts["if"] += 1
        elif isinstance(node, ast.IfExp):
            counts["ifexp"] += 1
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.While,
                               ast.comprehension)):
            counts["loops"] += 1
        elif isinstance(node, ast.BoolOp):
            counts["boolops"] += len(node.values) - 1
    return counts


def _modules(paths):
    for path in map(Path, paths):
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        else:
            yield path


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=["src"],
                        metavar="PATH", help="files or directories")
    args = parser.parse_args(argv)
    total = dict.fromkeys(COLUMNS, 0)
    row = "".join(f"{{{name}:>8}}" for name in COLUMNS) + "  {module}"
    print(row.format(module="module", **{c: c for c in COLUMNS}))
    for module in _modules(args.paths):
        counts = count(module.read_text(encoding="utf-8"))
        for name in COLUMNS:
            total[name] += counts[name]
        print(row.format(module=module, **counts))
    print(row.format(module="total", **total))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
