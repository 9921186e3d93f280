"""Documentation stays healthy: links resolve, cli.md tracks the CLI.

The cheap halves of the CI docs job, run in tier-1 so a broken link,
a CLI flag change without a ``docs/cli.md`` regeneration or a page
naming a subcommand the CLI does not register fails locally too. The
README quickstart snippets (which actually simulate) run only in the
CI docs job — see ``tools/check_docs.py --quickstart``.
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
        assert "bench-rebalance" in text, (
            "README must document the perf-harness CLI entry point"
        )

    def test_command_scan_flags_an_unregistered_subcommand(self):
        tool = _load_tool("gen_cli_docs.py")
        text = ("Run `python -m repro shard-bench --chips 1,2`, then "
                "`python -m repro warp-drive --fast` and\n"
                "python -m repro  warp-drive again.")
        assert tool.unknown_commands(text) == ["warp-drive"]

    def test_readme_names_only_registered_subcommands(self):
        tool = _load_tool("gen_cli_docs.py")
        text = (REPO_ROOT / "README.md").read_text()
        assert "python -m repro shard-bench" in text
        assert tool.unknown_commands(text) == []
