"""Documentation health checks: links resolve, quickstart runs.

Two independent checks, both exercised by CI's docs job (and the link
half by ``tests/test_docs.py``):

* ``--links``: every relative markdown link in ``README.md``,
  ``docs/*.md`` and the skill pages (``.claude/skills/**/*.md``) must
  point at an existing file or directory (external ``http(s)://`` /
  ``mailto:`` links and pure ``#anchor`` links are skipped — the repo
  is developed offline), and every backticked
  dotted ``repro.…`` name in them must resolve: its longest importable
  prefix imports (with ``src/`` on the path) and the rest are
  attributes, so a page cannot name a module, class or method that
  moved or no longer exists. The same holds for every fully-qualified
  Sphinx cross-reference (``:class:`~repro.…```, ``:meth:`repro.…```)
  in ``src/**/*.py``; relative ones (``:meth:`_serve```) are not
  checked.
* ``--quickstart``: every ``python`` code fence in ``README.md`` is
  executed (in order, in one namespace per fence) with ``src/`` on the
  path, so the advertised snippets can never rot.

With no flags, both checks run. Exit code 0 = healthy.
"""

from __future__ import annotations

import argparse
import importlib
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

# [text](target) — excluding images; target split from an optional title.
_LINK = re.compile(r"(?<!\!)\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
_FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)
# A backticked dotted name rooted at the package: `repro.serve.cache`,
# `repro.serve.placement.CacheAffinity.tick`.
_NAME = re.compile(r"`(repro(?:\.\w+)+)`")
# A qualified Sphinx cross-reference in a docstring:
# :class:`~repro.serve.cache.AutotuneCache`, :py:meth:`repro.obs.views.x`.
_REF = re.compile(r":[\w:]+:`~?(repro(?:\.\w+)+)`")


def _doc_files():
    docs = [REPO_ROOT / "README.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    docs.extend(sorted((REPO_ROOT / ".claude" / "skills").glob("**/*.md")))
    return [path for path in docs if path.exists()]


def _resolves(name):
    """Whether a dotted ``repro.…`` name names something: import its
    longest importable prefix, then ``getattr`` the rest."""
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        module_name = ".".join(parts[:cut])
        try:
            target = importlib.import_module(module_name)
        except ModuleNotFoundError as exc:
            # Only a missing prefix of the name itself means "try a
            # shorter prefix"; a module that fails its own imports is
            # an error to report, not a name to skip.
            if exc.name is None or not (
                module_name == exc.name
                or module_name.startswith(exc.name + ".")
            ):
                raise
            continue
        for attribute in parts[cut:]:
            if not hasattr(target, attribute):
                return False
            target = getattr(target, attribute)
        return True
    return False


def unresolved_names(text, pattern=_NAME):
    """The dotted ``repro.…`` names ``pattern`` finds in ``text`` (by
    default the backticked ones) that do not resolve, each once, in
    order of first mention."""
    src = str(REPO_ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    names = dict.fromkeys(pattern.findall(text))
    return [name for name in names if not _resolves(name)]


def unresolved_refs(text):
    """The qualified Sphinx cross-references to ``repro.…`` in
    ``text`` that do not resolve, each once, in order of first
    mention."""
    return unresolved_names(text, _REF)


def check_links():
    """Verify relative links and backticked ``repro.…`` names in
    README.md, docs/*.md and the skill pages, and qualified
    cross-references in src/**/*.py; returns errors."""
    errors = []
    for source in sorted((REPO_ROOT / "src").rglob("*.py")):
        for name in unresolved_refs(source.read_text()):
            errors.append(
                f"{source.relative_to(REPO_ROOT)}: unresolved reference "
                f"`{name}`"
            )
    for doc in _doc_files():
        text = doc.read_text()
        for name in unresolved_names(text):
            errors.append(
                f"{doc.relative_to(REPO_ROOT)}: unresolved name `{name}`"
            )
        for match in _LINK.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            resolved = (doc.parent / path).resolve()
            if not resolved.exists():
                errors.append(
                    f"{doc.relative_to(REPO_ROOT)}: broken link "
                    f"-> {target}"
                )
    return errors


def check_quickstart():
    """Run every python fence in README.md in a subprocess; returns errors."""
    readme = REPO_ROOT / "README.md"
    fences = _FENCE.findall(readme.read_text())
    if not fences:
        return ["README.md: no ```python quickstart fence found"]
    errors = []
    for index, code in enumerate(fences):
        with tempfile.NamedTemporaryFile(
            "w", suffix=".py", delete=False
        ) as handle:
            handle.write(code)
            script = handle.name
        try:
            result = subprocess.run(
                [sys.executable, script],
                cwd=REPO_ROOT,
                env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
                capture_output=True,
                text=True,
                timeout=300,
            )
            if result.returncode != 0:
                errors.append(
                    f"README.md python fence #{index + 1} failed "
                    f"(exit {result.returncode}):\n{result.stderr.strip()}"
                )
        except subprocess.TimeoutExpired:
            errors.append(
                f"README.md python fence #{index + 1} timed out (300 s)"
            )
        finally:
            Path(script).unlink(missing_ok=True)
    return errors


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--links", action="store_true",
                        help="only check markdown links")
    parser.add_argument("--quickstart", action="store_true",
                        help="only run the README python fences")
    args = parser.parse_args(argv)
    run_links = args.links or not args.quickstart
    run_quickstart = args.quickstart or not args.links

    errors = []
    if run_links:
        errors.extend(check_links())
    if run_quickstart:
        errors.extend(check_quickstart())
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        checked = [
            name for name, on in (
                ("links", run_links), ("quickstart", run_quickstart)
            ) if on
        ]
        print(f"docs healthy ({', '.join(checked)} ok)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
