"""Generate docs/cli.md from the live argparse tree.

The reference is rendered from ``repro.cli.build_parser()`` itself, so
it cannot drift from the code silently: CI regenerates it and fails on
any difference (``--check``). ``--check`` also fails when ``README.md``
or a hand-written ``docs/*.md`` page names ``python -m repro <cmd>``
for a subcommand the parser does not register. Regenerate after
changing the CLI with::

    PYTHONPATH=src python tools/gen_cli_docs.py

Usage::

    python tools/gen_cli_docs.py [--check] [--out docs/cli.md]
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.cli import build_parser  # noqa: E402

_COMMAND = re.compile(r"python -m repro\s+([A-Za-z0-9][\w-]*)")

HEADER = """\
# CLI reference

Every subcommand of `python -m repro`, rendered from the live
`--help` output. **Generated file — do not edit by hand**; regenerate
with `PYTHONPATH=src python tools/gen_cli_docs.py` (CI fails when this
page drifts from `repro/cli.py`).
"""


def _subparsers(parser):
    """The (name, parser) pairs of every registered subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            seen = {}
            for name, sub in action.choices.items():
                # choices maps aliases too; keep first name per parser.
                if id(sub) not in seen:
                    seen[id(sub)] = (name, sub)
            return list(seen.values())
    return []


def unknown_commands(text):
    """The subcommands ``text`` runs as ``python -m repro <cmd>`` that
    ``build_parser()`` does not register, in order of first mention."""
    known = {name for name, _ in _subparsers(build_parser())}
    unknown = []
    for name in _COMMAND.findall(text):
        if name not in known and name not in unknown:
            unknown.append(name)
    return unknown


def render():
    """The full markdown reference as a string."""
    # argparse wraps help to the terminal width; pin it for stable output.
    import os

    os.environ["COLUMNS"] = "79"
    parser = build_parser()
    sections = [HEADER]
    sections.append("## repro\n\n```text\n" + parser.format_help() + "```\n")
    for name, sub in _subparsers(parser):
        sections.append(
            f"## repro {name}\n\n```text\n" + sub.format_help() + "```\n"
        )
    return "\n".join(sections)


def main(argv=None):
    args = argparse.ArgumentParser(description=__doc__)
    args.add_argument("--check", action="store_true",
                      help="fail (exit 1) if docs/cli.md is out of date "
                           "instead of rewriting it")
    args.add_argument("--out", default=str(REPO_ROOT / "docs" / "cli.md"))
    opts = args.parse_args(argv)

    out = Path(opts.out)
    rendered = render()
    if opts.check:
        current = out.read_text() if out.exists() else ""
        if current != rendered:
            print(f"{out} is out of date with repro/cli.py; regenerate "
                  f"with: PYTHONPATH=src python tools/gen_cli_docs.py",
                  file=sys.stderr)
            return 1
        pages = [REPO_ROOT / "README.md"]
        pages += sorted((REPO_ROOT / "docs").glob("*.md"))
        stale = [
            (page, name)
            for page in pages if page.exists() and page != out.resolve()
            for name in unknown_commands(page.read_text())
        ]
        for page, name in stale:
            print(f"{page.relative_to(REPO_ROOT)} names `python -m repro "
                  f"{name}`, which repro/cli.py does not register",
                  file=sys.stderr)
        if stale:
            return 1
        print(f"{out} is in sync with repro/cli.py")
        return 0
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(rendered)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
