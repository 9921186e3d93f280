#!/usr/bin/env python3
"""Paired A/B runs of the host benchmark: this checkout against a base.

Usage, from the repository root::

    python3 tools/bench_ab.py --base 3d39299 --label 37
    python3 tools/bench_ab.py --base HEAD --pairs 1 --seconds 0 \\
        --workloads warm_repeat --out /tmp/BENCH_smoke.json

The base side is ``git archive <base>`` unpacked into a temporary
directory; the change side is this checkout, as it stands. Each pair
runs both sides' own ``hostbench/run.py --trace 0`` once, on the same
workload, seed and ``--seconds``, one process after the other: the base
goes first in every other pair, so neither side always meets a host
that the previous run warmed or loaded. Pair ``k`` runs seed
``SEEDS[k % 10]``: seeds 1-9 and the held-out seed 31.

A pair fails when either run does not read ``"correct": true`` on its
last JSON line, or when the modeled metrics (``sim_p50_ms``,
``sim_p99_ms``, ``slo_attainment``) differ between its two runs: a
host-only change must not move them.

The report, ``BENCH_<label>.json``, holds the host facts (nproc,
Python, NumPy, both revisions, the range of the yardstick medians the
runs printed) and, per workload and end-to-end metric, the per-pair
values, both medians, the base's interquartile range, the change's
wins and losses (ties count for neither) and the ratio of the medians.
Two verdicts follow: the ship rule (a gain needs wins in at least nine
tenths of the pairs and medians further apart than the base's IQR) and
the regression bounds ``BENCHMARK.json`` fixes, which this tool only
reads. It edits nothing under ``hostbench/``.

Exits 1 when a pair failed its checks; the verdicts, a regression
past a bound included, are the report's to read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 31)
MODELED = ("sim_p50_ms", "sim_p99_ms", "slo_attainment")
SHIP_WIN_SHARE = 0.9
SCHEMA = 1
_YARDSTICK = re.compile(r"^host speed: yardstick median (\S+) s")


def pair_plan(pairs):
    """``[(seed, base_first)]`` for ``pairs`` pairs, in run order."""
    return [(SEEDS[k % len(SEEDS)], k % 2 == 0) for k in range(pairs)]


def parse_run(stdout):
    """``(record, yardstick_s)`` from one ``hostbench/run.py`` stdout.

    ``record`` is the last line's JSON object; ``yardstick_s`` the
    yardstick median the run printed, or None.
    """
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    record = json.loads(lines[-1])
    yardstick = None
    for line in lines:
        match = _YARDSTICK.match(line)
        if match:
            yardstick = float(match.group(1))
    return record, yardstick


def pair_failures(base, change):
    """Why one pair of run records fails; empty when it passes."""
    found = [
        f"{side} run not correct ({record.get('failed')} of "
        f"{record.get('attempted')} requests failed)"
        for side, record in (("base", base), ("change", change))
        if record.get("correct") is not True
    ]
    for name in MODELED:
        values = [record["metrics"].get(name, {}).get("value")
                  for record in (base, change)]
        if values[0] != values[1]:
            found.append(f"{name} differs: base {values[0]}, "
                         f"change {values[1]}")
    return found


def _quartile_spread(values):
    """Interquartile range (inclusive quartiles); 0 below two values."""
    if len(values) < 2:
        return 0.0
    q1, _median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def metric_summary(base, change, *, better, bound):
    """Statistics and verdicts of one metric over paired runs.

    ``base[k]`` and ``change[k]`` are pair ``k``'s values; ``better`` is
    ``"higher"`` or ``"lower"``; ``bound`` the relative worsening
    ``BENCHMARK.json`` allows the change's median.
    """
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, c in zip(base, change) if sign * (c - b) > 0)
    losses = sum(1 for b, c in zip(base, change) if sign * (c - b) < 0)
    base_median = statistics.median(base)
    change_median = statistics.median(change)
    base_iqr = _quartile_spread(base)
    gain = sign * (change_median - base_median)
    needed = math.ceil(SHIP_WIN_SHARE * len(base))
    if wins >= needed and gain > base_iqr:
        ship = "gain"
    elif losses >= needed and -gain > base_iqr:
        ship = "loss"
    else:
        ship = "none"
    return {
        "base": list(base),
        "change": list(change),
        "base_median": base_median,
        "change_median": change_median,
        "base_iqr": base_iqr,
        "wins": wins,
        "losses": losses,
        "ratio": change_median / base_median if base_median else None,
        "ship": ship,
        "bound": bound,
        "within_bound": -gain <= bound * abs(base_median),
    }


def build_report(label, facts, runs, benchmark):
    """The ``BENCH_<label>.json`` object.

    ``runs`` maps each workload to its pairs, in run order, as
    ``(seed, base_record, change_record)``; ``benchmark`` is the parsed
    ``BENCHMARK.json``.
    """
    workloads = {}
    failures = []
    gains = []
    regressions = []
    for workload, pairs in runs.items():
        for seed, base, change in pairs:
            failures.extend(f"{workload} seed {seed}: {problem}"
                            for problem in pair_failures(base, change))
        metrics = {}
        for spec in benchmark["end_to_end"]:
            name = spec["name"]
            summary = metric_summary(
                [base["metrics"][name]["value"] for _, base, _ in pairs],
                [change["metrics"][name]["value"] for _, _, change in pairs],
                better=spec["better"], bound=spec["bound"],
            )
            metrics[name] = {"unit": spec["unit"], "better": spec["better"],
                             **summary}
            if summary["ship"] == "gain":
                gains.append(f"{workload}.{name}")
            if not summary["within_bound"]:
                regressions.append(f"{workload}.{name}")
        workloads[workload] = {
            "seeds": [seed for seed, _, _ in pairs],
            "metrics": metrics,
        }
    return {
        "schema": SCHEMA,
        "label": label,
        "host": facts,
        "pairs": max((len(pairs) for pairs in runs.values()), default=0),
        "workloads": workloads,
        "failures": failures,
        "verdict": {
            "ship_rule_gains": gains,
            "bound_regressions": regressions,
        },
    }


def _git(*args, cwd=ROOT):
    return subprocess.run(
        ["git", *args], cwd=cwd, check=True, capture_output=True, text=True,
    ).stdout.strip()


def extract(rev, into):
    """Unpack ``git archive rev`` into the directory ``into``."""
    archive = Path(into) / "base.tar"
    with archive.open("wb") as out:
        subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                       check=True, stdout=out)
    with tarfile.open(archive) as tar:
        tar.extractall(Path(into) / "tree", filter="data")
    return Path(into) / "tree"


def run_side(tree, workload, seed, seconds):
    """One ``hostbench/run.py --trace 0`` of the checkout at ``tree``."""
    # Each side imports its own src/; an inherited PYTHONPATH names one.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "hostbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"bench_ab: {tree} {workload} seed {seed} exited "
                         f"{done.returncode}:\n{done.stderr[-2000:]}")
    return parse_run(done.stdout)


def host_facts(base_rev, yardsticks):
    """What keeps this report's numbers apart from another host's."""
    import numpy

    dirty = bool(_git("status", "--porcelain", "--untracked-files=no"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "base_rev": base_rev,
        "change_rev": _git("rev-parse", "HEAD") + ("+dirty" if dirty else ""),
        "yardstick_s": [min(yardsticks), max(yardsticks)] if yardsticks
        else None,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", required=True,
                        help="git revision of the base side")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="hostbench --seconds of every run")
    parser.add_argument("--workloads",
                        default="warm_repeat,affinity_churn,mixed_sharded",
                        help="comma-separated hostbench workloads")
    parser.add_argument("--label", default="ab",
                        help="the report is BENCH_<label>.json")
    parser.add_argument("--out", type=Path,
                        help="report path (default: BENCH_<label>.json "
                             "at the repository root)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    workloads = [name for name in args.workloads.split(",") if name]
    base_rev = _git("rev-parse", args.base)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = {workload: [] for workload in workloads}
    yardsticks = []
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as scratch:
        base_tree = extract(base_rev, scratch)
        for workload in workloads:
            for seed, base_first in pair_plan(args.pairs):
                order = ("base", "change") if base_first else ("change",
                                                               "base")
                records = {}
                for side in order:
                    tree = base_tree if side == "base" else ROOT
                    record, yardstick = run_side(tree, workload, seed,
                                                 args.seconds)
                    records[side] = record
                    if yardstick is not None:
                        yardsticks.append(yardstick)
                runs[workload].append((seed, records["base"],
                                       records["change"]))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{side} setup_s "
                    f"{records[side]['metrics']['setup_s']['value']:.4g}"
                    for side in order), flush=True)
    report = build_report(args.label, host_facts(base_rev, yardsticks),
                          runs, benchmark)
    out = args.out or ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {out}")
    for problem in report["failures"]:
        print(f"FAILED {problem}")
    verdict = report["verdict"]
    print(f"ship-rule gains: {', '.join(verdict['ship_rule_gains']) or 'none'}")
    print("bound regressions: "
          f"{', '.join(verdict['bound_regressions']) or 'none'}")
    return 1 if report["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
