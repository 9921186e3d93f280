#!/usr/bin/env python3
"""Host-throughput benchmark of the serving simulator.

Run from the repository root:

    python3 hostbench/run.py --workload warm_repeat --seed 1 --seconds 15 --trace 0

One process drives ``repro.serve.InferenceService`` (``workers=1``)
over a few short traces derived from ``--seed`` (a *round* drains each
trace once), in three parts:

1. set-up: materialise the graphs, build the service and warm it up
   with one round (``SETUPS`` times in all; the median is ``setup_s``);
2. ``--trace 0``: timed rounds for ``--seconds``, tracing off. The
   modeled latency metrics pool the first round; ``req_per_s`` sums
   each trace's median drain. Every timing is scaled to a reference
   host speed (see :class:`Yardstick`);
3. ``--trace 1``: untraced and traced drains alternate for
   ``--seconds``. The traced service carries a ``RecordingTracer`` and
   the layer probes of ``layers.py``; it gives the per-layer metrics and
   writes its first round's spans as Chrome-trace JSON under ``--out``.

Every drain is checked; a request fails when the drain raises, when it
gets zero or several results, when a single-instance result's cycles
differ from a cache-less cold run, when the traced run's cycles or
simulated start/finish differ from the untraced run's, or (shared-cache
workloads) when a drain's timeline differs from the warm-up drain's.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 3
MIN_ROUNDS = 3
YARDSTICK_REF_S = 0.02
"""Wall time of :meth:`Yardstick.measure` on a quiet host: the 2-CPU x86
VM of the README's baseline. Timings are reported at this speed."""

END_TO_END_UNITS = {
    "req_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_p50_ms": "ms",
    "sim_p99_ms": "ms",
    "slo_attainment": "frac",
}

PER_LAYER_UNITS = {
    "serve.scheduler.calls": "count",
    "serve.scheduler.self_s": "s",
    "serve.scheduler.batches": "count",
    "serve.scheduler.mean_batch_size": "req",
    "serve.scheduler.sim_queue_ms_mean": "ms",
    "serve.service.loop_self_s": "s",
    "serve.service.routed": "count",
    "serve.service.placement_hit_rate": "frac",
    "serve.service.replications": "count",
    "serve.service.preemptions": "count",
    "serve.cache.lookup_calls": "count",
    "serve.cache.peek_calls": "count",
    "serve.cache.store_calls": "count",
    "serve.cache.merge_calls": "count",
    "serve.cache.self_s": "s",
    "serve.cache.hit_rate": "frac",
    "serve.cache.evictions": "count",
    "accel.gcnaccel.build_calls": "count",
    "accel.gcnaccel.build_self_s": "s",
    "accel.gcnaccel.run_self_s": "s",
    "accel.cyclemodel.frozen_calls": "count",
    "accel.cyclemodel.frozen_self_s": "s",
    "accel.localshare.hall_calls": "count",
    "accel.localshare.hall_self_s": "s",
    "accel.cyclemodel.tune_calls": "count",
    "accel.cyclemodel.tune_rounds": "count",
    "accel.cyclemodel.tune_self_s": "s",
    "cluster.multichip.calls": "count",
    "cluster.multichip.self_s": "s",
    "cluster.partition.halo_calls": "count",
    "cluster.partition.self_s": "s",
    "obs.tracer.events": "count",
    "obs.tracer.self_s": "s",
    "trace_overhead_frac": "frac",
}


def _import_program():
    """Put the checkout's ``src`` first on the path and import from it.

    Exits non-zero when the program is not in this checkout, so the
    benchmark can never measure some other installed copy.
    """
    for path in (ROOT, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"hostbench: cannot import repro from {SRC}: {exc}")
    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SystemExit(f"hostbench: repro comes from {where}, not {SRC}")


def host_facts(args):
    """Facts that keep numbers from different hosts or code apart."""
    import numpy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux hosts
        nproc = os.cpu_count()
    digest = hashlib.blake2b(digest_size=8)
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=30,
        ).stdout.strip() or "none"
    except (OSError, subprocess.SubprocessError):
        commit = "none"
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
        "src_digest": digest.hexdigest(),
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }


class Yardstick:
    """Scales host seconds to the reference host's speed.

    Other processes on a shared host can slow everything here by half
    for seconds to minutes at a time, which no statistic over one run's
    own drains removes. A fixed task shaped like the simulator's inner
    loops (small NumPy calls and dict updates) runs after every timed
    interval; the interval is scaled by ``YARDSTICK_REF_S`` over the
    mean of the task's times just before and just after it. The cyclic
    garbage collector is off while the task runs, so a collection of
    the program's heap can never land in it: the task's time depends on
    the host alone.
    """

    def __init__(self):
        self.samples = []
        self.last = self.measure()

    def measure(self):
        rows = np.random.default_rng(0).integers(0, 1000, size=(16, 64))
        table = {}
        total = 0
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for i in range(3000):
                prefix = np.cumsum(rows[i & 15])
                total += int(prefix.max())
                total += int(np.searchsorted(prefix, prefix[-1] // 2))
                table[(i % 97, i % 13)] = [total, i]
            elapsed = time.perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def scale(self, seconds):
        """``seconds`` just measured, at the reference host's speed."""
        now = self.measure()
        factor = YARDSTICK_REF_S / ((self.last + now) / 2)
        self.last = now
        return seconds * factor


def drain_once(service, requests):
    """Submit the trace and time one drain: ``(wall_s, ids, outcome)``."""
    ids = service.submit_many(requests)
    start = time.perf_counter()
    outcome = service.drain()
    return time.perf_counter() - start, ids, outcome


def timeline(outcome, ids):
    """Per request, in submission order: ``(cycles, start, finish,
    n_shards)``, or None when it got zero or several results."""
    by_id = {}
    for result in outcome.results:
        by_id.setdefault(result.request_id, []).append(result)
    rows = []
    for request_id in ids:
        got = by_id.get(request_id, ())
        if len(got) != 1:
            rows.append(None)
            continue
        result = got[0]
        rows.append((result.total_cycles, result.start_time,
                     result.finish_time, result.n_shards))
    return rows


def cold_reference(requests, chip_capacity):
    """Cache-less cycles of every distinct single-instance request."""
    from repro.accel.gcnaccel import GcnAccelerator

    reference = {}
    for request in requests:
        key = (request.graph, request.config, request.a_hops)
        if key in reference:
            continue
        if chip_capacity is not None and request.graph_nodes() > chip_capacity:
            continue
        accel = GcnAccelerator(request.resolve_graph(), request.config,
                               a_hops=request.a_hops)
        reference[key] = accel.run().total_cycles
    return reference


def count_failed(rows, requests, reference, expected=None):
    """Requests of one drain that fail the output check.

    ``expected`` is a timeline the drain must repeat exactly (the
    warm-up drain, or the untraced drain the traced one mirrors).
    """
    failed = 0
    for index, (row, request) in enumerate(zip(rows, requests)):
        if row is None:
            failed += 1
        elif row[3] == 1 and row[0] != reference.get(
                (request.graph, request.config, request.a_hops)):
            failed += 1
        elif expected is not None and row != expected[index]:
            failed += 1
    return failed


def set_up(workload, traces, tracer=None):
    """Build graphs and service, warm up with one drain of each trace.

    Returns ``(seconds, service, warm-up timeline of each trace)``.
    """
    from repro.serve.traffic import clear_graph_cache

    clear_graph_cache()
    start = time.perf_counter()
    for requests in traces:
        for request in requests:
            request.resolve_graph()
    service = workload.service(tracer=tracer)
    warm = []
    for requests in traces:
        _wall, ids, outcome = drain_once(service, requests)
        warm.append(timeline(outcome, ids))
    return time.perf_counter() - start, service, warm


def rounds(traces, seconds):
    """Yield ``(round, index, requests)`` round-robin over the traces
    until ``seconds`` have passed and ``MIN_ROUNDS`` rounds are done."""
    started = time.perf_counter()
    done = 0
    while done < MIN_ROUNDS or time.perf_counter() - started < seconds:
        for index, requests in enumerate(traces):
            yield done, index, requests
        done += 1


def round_rate(traces, walls):
    """Requests per second of one round, from each trace's median drain.

    ``walls[i]`` holds trace ``i``'s scaled drain times.
    """
    return sum(len(requests) for requests in traces) / sum(
        statistics.median(trace_walls) for trace_walls in walls
    )


def peak_rss_mb():
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tally:
    """Attempted and failed requests across a run's checked drains."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def drain(self, service, requests):
        """One checked-for-exceptions drain; None when it raised."""
        self.attempted += len(requests)
        try:
            return drain_once(service, requests)
        except Exception:
            traceback.print_exc()
            self.failed += len(requests)
            return None


def timed_run(workload, traces, seconds):
    """Set-up, untraced timed rounds, then the remaining set-ups.

    The set-ups bracket the timed rounds, so one burst of load from
    other processes on the host cannot slow all of them.
    """
    from repro.serve.service import LatencyStats

    yardstick = Yardstick()
    raw_setup, service, warm = set_up(workload, traces)
    raw_setups = [raw_setup]
    setups = [yardstick.scale(raw_setup)]
    reference = cold_reference(
        [request for requests in traces for request in requests],
        service.chip_capacity,
    )
    tally = Tally()
    walls = [[] for _ in traces]
    raw_walls = [[] for _ in traces]
    first_round = []
    for round_index, index, requests in rounds(traces, seconds):
        drained = tally.drain(service, requests)
        if drained is None:
            break
        wall, ids, outcome = drained
        walls[index].append(yardstick.scale(wall))
        raw_walls[index].append(wall)
        tally.failed += count_failed(
            timeline(outcome, ids), requests, reference,
            warm[index] if workload.shared_cache else None,
        )
        if round_index == 0:
            first_round.extend(outcome.results)
    del service
    for _ in range(SETUPS - 1):
        raw_setups.append(set_up(workload, traces)[0])
        setups.append(yardstick.scale(raw_setups[-1]))
    metrics = dict.fromkeys(END_TO_END_UNITS, 0.0)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    raw = {"setup_s": statistics.median(raw_setups)}
    if all(walls):
        raw["req_per_s"] = round_rate(traces, raw_walls)
        latency = LatencyStats.from_results(first_round)
        metrics.update(
            req_per_s=round_rate(traces, walls),
            sim_p50_ms=latency.p50_ms,
            sim_p99_ms=latency.p99_ms,
            slo_attainment=latency.slo_attainment or 0.0,
        )
    return tally, metrics, END_TO_END_UNITS, yardstick, raw


def traced_run(workload, traces, seconds, trace_path, facts):
    """Untraced and traced drains alternating on two identical services."""
    from hostbench.layers import LayerClock, write_chrome_trace
    from repro.obs.tracer import RecordingTracer

    _, plain, warm = set_up(workload, traces)
    tracer = RecordingTracer()
    _, traced, _ = set_up(workload, traces, tracer=tracer)
    tracer.events.clear()
    tracer.wall_events.clear()
    reference = cold_reference(
        [request for requests in traces for request in requests],
        plain.chip_capacity,
    )
    tally = Tally()
    yardstick = Yardstick()
    plain_walls = [[] for _ in traces]
    traced_walls = [[] for _ in traces]
    clocks, outcomes, events = [], [], []
    for round_index, index, requests in rounds(traces, seconds):
        drained = tally.drain(plain, requests)
        if drained is None:
            break
        wall, ids, outcome = drained
        plain_walls[index].append(yardstick.scale(wall))
        untraced = timeline(outcome, ids)
        tally.failed += count_failed(
            untraced, requests, reference,
            warm[index] if workload.shared_cache else None,
        )
        clock = LayerClock(keep_spans=round_index == 0)
        with clock:
            drained = tally.drain(traced, requests)
        if drained is None:
            break
        wall, ids, outcome = drained
        traced_walls[index].append(yardstick.scale(wall))
        tally.failed += count_failed(timeline(outcome, ids), requests,
                                     reference, untraced)
        problems = clock.problems(wall)
        if problems:
            print("hostbench: " + "; ".join(problems), file=sys.stderr)
            tally.failed += len(requests)
        clocks.append(clock)
        outcomes.append(outcome)
        events.append(len(tracer.events) + len(tracer.wall_events))
        tracer.events.clear()
        tracer.wall_events.clear()
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    if all(traced_walls):
        metrics.update(layer_metrics(clocks, outcomes, events,
                                     len(clocks) / len(traces)))
        metrics["trace_overhead_frac"] = (
            round_rate(traces, plain_walls) / round_rate(traces, traced_walls)
            - 1.0
        )
        spans = [span for clock in clocks if clock.spans is not None
                 for span in clock.spans]
        write_chrome_trace(trace_path, spans, metadata=facts)
    return tally, metrics, PER_LAYER_UNITS, yardstick, {}


def layer_metrics(clocks, outcomes, events, n_rounds):
    """The traced drains' layer numbers, per round of traces.

    Counts and self times are means per round; rates and means are
    taken over every traced drain at once.
    """

    def per_round(values):
        return sum(values) / n_rounds

    def self_s(layer):
        return per_round(clock.self_s[layer] for clock in clocks)

    def calls(counter):
        return per_round(clock.calls[counter] for clock in clocks)

    def entries(layer):
        return per_round(clock.entries[layer] for clock in clocks)

    def stat(field):
        return sum(getattr(outcome.stats, field) for outcome in outcomes)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    served = [result for outcome in outcomes for result in outcome.results
              if not result.shed]
    single = sum(1 for result in served if result.n_shards == 1)
    popped = sum(clock.calls["pop_ready"] for clock in clocks)
    lookups = stat("cache_hits") + stat("cache_misses")
    return {
        "serve.scheduler.calls": entries("serve.scheduler"),
        "serve.scheduler.self_s": self_s("serve.scheduler"),
        "serve.scheduler.batches": calls("pop_ready"),
        "serve.scheduler.mean_batch_size": ratio(single, popped),
        "serve.scheduler.sim_queue_ms_mean": ratio(
            sum(result.queue_ms for result in served), len(served)
        ),
        "serve.service.loop_self_s": self_s("serve.service"),
        "serve.service.routed": stat("n_routed") / n_rounds,
        "serve.service.placement_hit_rate": ratio(
            stat("n_placement_hits"), stat("n_routed")
        ),
        "serve.service.replications": stat("n_replications") / n_rounds,
        "serve.service.preemptions": stat("n_preemptions") / n_rounds,
        "serve.cache.lookup_calls": calls("lookup"),
        "serve.cache.peek_calls": calls("peek"),
        "serve.cache.store_calls": calls("store"),
        "serve.cache.merge_calls": calls("merge"),
        "serve.cache.self_s": self_s("serve.cache"),
        "serve.cache.hit_rate": ratio(stat("cache_hits"), lookups),
        "serve.cache.evictions": stat("n_evictions") / n_rounds,
        "accel.gcnaccel.build_calls": calls("build"),
        "accel.gcnaccel.build_self_s": self_s("accel.gcnaccel.build"),
        "accel.gcnaccel.run_self_s": self_s("accel.gcnaccel.run"),
        "accel.cyclemodel.frozen_calls": calls("frozen"),
        "accel.cyclemodel.frozen_self_s": self_s("accel.cyclemodel.frozen"),
        "accel.localshare.hall_calls": entries("accel.localshare.hall"),
        "accel.localshare.hall_self_s": self_s("accel.localshare.hall"),
        "accel.cyclemodel.tune_calls": calls("tune"),
        "accel.cyclemodel.tune_rounds": calls("tune_rounds"),
        "accel.cyclemodel.tune_self_s": self_s("accel.cyclemodel.tune"),
        "cluster.multichip.calls": calls("multichip"),
        "cluster.multichip.self_s": self_s("cluster.multichip"),
        "cluster.partition.halo_calls": calls("halo"),
        "cluster.partition.self_s": self_s("cluster.partition"),
        "obs.tracer.events": per_round(events),
        "obs.tracer.self_s": self_s("obs.tracer"),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0,
                        help="how long the timed rounds of one run last")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent / "out",
                        help="directory for the Chrome-trace JSON")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    _import_program()
    from hostbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"hostbench: unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]
    traces = workload.traces(args.seed)
    facts = host_facts(args)
    print("host: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if args.trace:
        trace_path = args.out / f"{args.workload}-seed{args.seed}.trace.json"
        tally, metrics, units, yardstick, raw = traced_run(
            workload, traces, args.seconds, trace_path, facts,
        )
        print(f"chrome trace: {trace_path}")
    else:
        tally, metrics, units, yardstick, raw = timed_run(
            workload, traces, args.seconds,
        )
    print(f"host speed: yardstick median "
          f"{statistics.median(yardstick.samples):.4g} s, reference "
          f"{YARDSTICK_REF_S} s; timings below are scaled to the reference")
    for name, value in raw.items():
        print(f"raw {name} {value:.6g} {units[name]} (host seconds, unscaled)")
    print(f"failed_frac {tally.failed / tally.attempted:.6g} frac "
          f"({tally.failed} of {tally.attempted} requests)")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
