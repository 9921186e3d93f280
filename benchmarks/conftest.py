"""Shared fixtures and helpers for the benchmark suite.

Every bench regenerates one of the paper's tables or figures: it runs
the analysis harness once inside ``benchmark.pedantic`` (the work is
seconds-long, so no repetition), saves the rendered table and the raw
rows under ``results/``, prints the table, and asserts the paper's
qualitative claim about it.

Dataset sizing: ``REPRO_BENCH_PRESET`` selects ``scaled`` (default) or
``full``; ``scaled`` keeps every dataset laptop-tractable while
preserving the row-nnz skew profiles that drive the results.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import rows_to_csv

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"
BENCH_PRESET = os.environ.get("REPRO_BENCH_PRESET", "scaled")
BENCH_SEED = int(os.environ.get("REPRO_BENCH_SEED", "7"))
# The paper pins 1024 PEs for the cross-platform table and sweeps
# 512-1024 for scalability but never states the Fig. 14 count; 256 keeps
# rows/PE in the regime its utilization figures imply.
BENCH_PES = int(os.environ.get("REPRO_BENCH_PES", "256"))


@pytest.fixture(scope="session")
def bench_preset():
    """Dataset preset used across the bench suite."""
    return BENCH_PRESET


@pytest.fixture(scope="session")
def bench_seed():
    """Seed used across the bench suite."""
    return BENCH_SEED


@pytest.fixture(scope="session")
def bench_pes():
    """PE count used across the bench suite."""
    return BENCH_PES


def run_once(benchmark, fn, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)


def save_artifact(name, rows, text):
    """Persist a bench artifact (CSV rows + rendered table) and print it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    rows_to_csv(rows, RESULTS_DIR / f"{name}.csv")
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print()
    print(text)
