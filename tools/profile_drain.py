"""Sampling profile of ``InferenceService.drain()`` on a hostbench workload.

Sets one workload up with ``hostbench/run.py``'s own ``set_up``
(graphs materialised, one warm-up round of drains), then drains the
traces round after round with its ``drain_once`` while a ``SIGPROF``
interval timer (``signal.setitimer(ITIMER_PROF)``, process CPU time)
samples the Python stack. A sample counts only when a ``drain()`` frame
is on the stack, so submitting the traces between drains is never
charged.

Prints, over the sampled drains:

* the drain's wall cost in µs per request (raw host time, not scaled);
* each function's inclusive and self share of the drain samples;
* the lines with the most self samples;
* the caller line of every dataclass-generated frame (``<string>``
  ``__init__``, ``__eq__``): cProfile files all of them under one
  ``<string>:2`` row, which hides whose constructor or compare it was.

Usage::

    python3 tools/profile_drain.py --workload warm_repeat --seed 2 --seconds 5

What it cannot see:

* A sample that falls in C code is taken at the interpreter's next
  eval-breaker check (a Python function's entry, a loop's back edge)
  and credited to the Python line running then, so line shares skew
  toward call sites and callee entries: the keyword dict a class call
  builds in C shows on the calling line, not in ``__init__``, and a
  dict probe's C work before it calls ``__hash__`` shows in the hash.
* The kernel tick limits the resolution: on a 2-CPU VM each sample
  stood for about 4 ms of CPU, although the timer asks for one every
  millisecond. Give it seconds of drains; a share below a few percent
  is noise.
* A sampled share is a pointer, not a measurement: confirm any gain it
  suggests with an A/B of ``hostbench/run.py`` pairs.

Exits 1 when no sample landed in a drain (the sampler saw nothing).
"""

from __future__ import annotations

import argparse
import signal
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for _path in (ROOT, ROOT / "src"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from hostbench.run import drain_once, set_up  # noqa: E402
from hostbench.workloads import WORKLOADS  # noqa: E402
from repro.serve.service import InferenceService  # noqa: E402

DRAIN_CODE = InferenceService.drain.__code__
INTERVAL_S = 0.001
"""CPU seconds asked for between samples; the kernel tick grants fewer."""
TOP = 25
"""Rows printed per table."""


def _where(code, line=None):
    """``file:line name`` of a code object, the file relative to the
    repository when it lies inside it."""
    path = Path(code.co_filename)
    try:
        path = path.resolve().relative_to(ROOT)
    except ValueError:
        pass
    at = code.co_firstlineno if line is None else line
    return f"{path}:{at} {code.co_name}"


class DrainSampler:
    """Stacks of the ``SIGPROF`` samples that fell inside a drain."""

    def __init__(self):
        self.samples = 0
        self.inclusive = Counter()
        self.self_time = Counter()
        self.lines = Counter()
        self.generated = Counter()

    def __call__(self, _signum, frame):
        stack = []
        while frame is not None and frame.f_code is not DRAIN_CODE:
            stack.append(frame)
            frame = frame.f_back
        if frame is None:
            return  # not inside a drain
        stack.append(frame)
        self.samples += 1
        leaf = stack[0]
        self.self_time[leaf.f_code] += 1
        self.lines[(leaf.f_code, leaf.f_lineno)] += 1
        for code in {f.f_code for f in stack}:
            self.inclusive[code] += 1
        for callee, caller in zip(stack, stack[1:]):
            if callee.f_code.co_filename == "<string>":
                self.generated[(callee.f_code.co_name, caller.f_code,
                                caller.f_lineno)] += 1


def sample(service, traces, seconds):
    """Drain round after round for about ``seconds`` of drain time under
    the sampler: ``(sampler, drain seconds, requests drained)``."""
    sampler = DrainSampler()
    previous = signal.signal(signal.SIGPROF, sampler)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
    drained = 0
    spent = 0.0
    try:
        while spent < seconds:
            for requests in traces:
                wall, _ids, _outcome = drain_once(service, requests)
                spent += wall
                drained += len(requests)
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0.0)
        signal.signal(signal.SIGPROF, previous)
    return sampler, spent, drained


def report(sampler, spent, drained):
    n = sampler.samples
    print(f"drain: {spent:.2f} s over {drained} requests, "
          f"{spent / drained * 1e6:.2f} µs per request (raw host time)")
    print(f"samples in drain: {n} ({spent / n * 1e3:.1f} ms of drain "
          "wall time per sample)")

    def share(count):
        return f"{100.0 * count / n:6.1f}%"

    print(f"\nfunctions by inclusive share (top {TOP}): incl / self")
    for code, count in sampler.inclusive.most_common(TOP):
        print(f"  {share(count)} {share(sampler.self_time[code])}  "
              f"{_where(code)}")
    print(f"\nlines by self share (top {TOP})")
    for (code, line), count in sampler.lines.most_common(TOP):
        print(f"  {share(count)}  {_where(code, line)}")
    print("\ngenerated <string> frames by caller line (inclusive)")
    if not sampler.generated:
        print("  none sampled")
    for (name, code, line), count in sampler.generated.most_common():
        print(f"  {share(count)}  {name} <- {_where(code, line)}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--seconds", type=float, default=5.0,
                        help="drain time to sample (warm-up excluded)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    traces = workload.traces(args.seed)
    _setup_s, service, _warm = set_up(workload, traces)
    sampler, spent, drained = sample(service, traces, args.seconds)
    if not sampler.samples:
        print("profile_drain: no sample landed in a drain", file=sys.stderr)
        return 1
    report(sampler, spent, drained)
    return 0


if __name__ == "__main__":
    sys.exit(main())
