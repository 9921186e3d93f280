"""Documentation stays healthy: links resolve, cli.md tracks the CLI.

The cheap halves of the CI docs job, run in tier-1 so a broken link,
a backticked ``repro.…`` name or a qualified ``src/`` docstring
cross-reference that no longer resolves, a CLI flag
change without a ``docs/cli.md`` regeneration or a page or docstring
naming a subcommand the CLI does not register fails locally too. The README quickstart snippets (which actually simulate) run only
in the CI docs job — see ``tools/check_docs.py --quickstart``.
"""

import importlib.util
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_tool(script, *args):
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / script), *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        timeout=120,
    )


def _load_tool(script):
    path = REPO_ROOT / "tools" / script
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestDocs:
    def test_readme_and_docs_exist(self):
        assert (REPO_ROOT / "README.md").exists()
        assert (REPO_ROOT / "docs" / "architecture.md").exists()
        assert (REPO_ROOT / "docs" / "cli.md").exists()

    def test_internal_links_resolve(self):
        result = _run_tool("check_docs.py", "--links")
        assert result.returncode == 0, result.stderr

    def test_cli_reference_in_sync(self):
        result = _run_tool("gen_cli_docs.py", "--check")
        assert result.returncode == 0, (
            result.stderr
            + "\nregenerate with: PYTHONPATH=src python tools/gen_cli_docs.py"
        )

    def test_readme_has_quickstart_fence(self):
        text = (REPO_ROOT / "README.md").read_text()
        assert "```python" in text
        assert "hostbench/run.py" in text, (
            "README must document the host-throughput benchmark"
        )

    def test_command_scan_flags_an_unregistered_subcommand(self):
        tool = _load_tool("gen_cli_docs.py")
        texts = (
            "Run `python -m repro fig15 --pe-counts 8,16`, then "
            "`python -m repro warp-drive --fast` and\n"
            "python -m repro  warp-drive again.",
            # The backticked form, as Markdown and as reST; a dotted
            # module path is not a command.
            "See `repro fig15`, then ``repro warp-drive --fast`` and "
            "`repro warp-drive` again, from `repro.serve`.",
        )
        for text in texts:
            assert tool.unknown_commands(text) == ["warp-drive"]

    def test_name_scan_flags_a_missing_attribute(self):
        tool = _load_tool("check_docs.py")
        text = (
            "Placement is `repro.serve.placement.CacheAffinity`, its "
            "pass `repro.serve.placement.CacheAffinity.tick`, and its "
            "module `repro.serve.placement`; not "
            "`repro.serve.placement.NoSuchPolicy`, nor the moved oracle "
            "`repro.cluster.exec`, nor the method `repro.serve.scheduler._cut`."
        )
        assert tool.unresolved_names(text) == [
            "repro.serve.placement.NoSuchPolicy", "repro.cluster.exec",
            "repro.serve.scheduler._cut",
        ]

    def test_name_scan_covers_the_skill_pages(self):
        # The verify recipe must not keep naming what a change removed.
        tool = _load_tool("check_docs.py")
        skill = REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md"
        assert skill in tool._doc_files()

    def test_reference_scan_flags_a_missing_attribute(self):
        tool = _load_tool("check_docs.py")
        docstring = '''"""The :class:`~repro.serve.service.ServeOutcome` of
        :meth:`repro.serve.service.InferenceService.drain` (see
        :mod:`repro.serve`); not a
        :class:`~repro.serve.service.ServiceOutcome`, nor
        :py:meth:`repro.serve.placement.CacheAffinity.untick`. The
        relative :meth:`_serve` and a plain `repro.nowhere` are not
        references."""'''
        assert tool.unresolved_refs(docstring) == [
            "repro.serve.service.ServiceOutcome",
            "repro.serve.placement.CacheAffinity.untick",
        ]

    def test_readme_names_only_registered_subcommands(self):
        tool = _load_tool("gen_cli_docs.py")
        text = (REPO_ROOT / "README.md").read_text()
        assert "python -m repro fig15" in text
        assert tool.unknown_commands(text) == []
