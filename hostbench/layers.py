"""Per-layer host-time attribution for the traced benchmark run.

The benchmark does not instrument the program: it wraps each layer's
public entry points from here, for the duration of one traced drain,
and restores the originals afterwards. Every wrapped call records a
span on the host wall clock. A layer's *self time* is its spans'
duration minus the part covered by wrapped callees, so the self times
of all layers (the drain's own self time included) add up to the
drain's wall time, as measured outside the probes, up to the probes'
own overhead (``wall_slack``).

A call into a layer that is already the innermost open span (the Hall
kernel calling its own batched bounds, a cache merge calling store) is
counted but opens no new span: its time stays with the enclosing call.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict

# (layer, counter, "module[:Class]", attribute). A function imported by
# name into several modules is patched in each of them, so every call
# site sees the probe.
PROBES = (
    ("serve.service", "drain",
     "repro.serve.service:InferenceService", "drain"),
    ("serve.scheduler", "admit",
     "repro.serve.scheduler:StreamingScheduler", "admit"),
    ("serve.scheduler", "cut_due",
     "repro.serve.scheduler:StreamingScheduler", "cut_due"),
    ("serve.scheduler", "flush",
     "repro.serve.scheduler:StreamingScheduler", "flush"),
    ("serve.scheduler", "pop_ready",
     "repro.serve.scheduler:StreamingScheduler", "pop_ready"),
    ("serve.scheduler", "observe",
     "repro.serve.scheduler:StreamingScheduler", "observe"),
    ("serve.cache", "lookup", "repro.serve.cache:AutotuneCache", "lookup"),
    ("serve.cache", "peek", "repro.serve.cache:AutotuneCache", "peek"),
    ("serve.cache", "store", "repro.serve.cache:AutotuneCache", "store"),
    ("serve.cache", "merge", "repro.serve.cache:AutotuneCache", "merge"),
    ("accel.gcnaccel.build", "build",
     "repro.accel.gcnaccel:GcnAccelerator", "__init__"),
    ("accel.gcnaccel.run", "run",
     "repro.accel.gcnaccel:GcnAccelerator", "run"),
    ("accel.cyclemodel.frozen", "frozen",
     "repro.accel.gcnaccel", "simulate_spmm_frozen"),
    ("accel.cyclemodel.tune", "tune",
     "repro.accel.gcnaccel", "simulate_spmm"),
    ("accel.cyclemodel.tune", "tune",
     "repro.cluster.multichip", "simulate_spmm"),
    ("accel.localshare.hall", "hall",
     "repro.accel.cyclemodel", "share_makespan_batch"),
    ("accel.localshare.hall", "hall",
     "repro.accel.localshare", "share_makespan_batch"),
    ("accel.localshare.hall", "hall",
     "repro.accel.localshare", "share_window_bounds_batch"),
    ("cluster.multichip", "multichip",
     "repro.serve.service", "simulate_multichip_gcn"),
    ("cluster.partition", "make_plan", "repro.serve.service", "make_plan"),
    ("cluster.partition", "make_plan",
     "repro.cluster.multichip", "make_plan"),
    ("cluster.partition", "halo", "repro.serve.service", "halo_exchange"),
    ("cluster.partition", "halo",
     "repro.cluster.multichip", "halo_exchange"),
    ("obs.tracer", "emit", "repro.obs.tracer:RecordingTracer", "instant"),
    ("obs.tracer", "emit", "repro.obs.tracer:RecordingTracer", "span"),
    ("obs.tracer", "emit", "repro.obs.tracer:RecordingTracer", "counter"),
    ("obs.tracer", "emit", "repro.obs.tracer:RecordingTracer", "splice"),
    ("obs.tracer", "emit", "repro.obs.tracer:RecordingTracer", "wall"),
)


def wall_slack(wall_s):
    """How far the self times of one traced drain may sum from its wall
    time measured outside the probes.

    The outermost probe's own bookkeeping falls between the two clocks:
    a few microseconds, or a garbage collection that its allocations
    trigger. 1 ms plus 1% of the drain covers both.
    """
    return 1e-3 + 0.01 * wall_s


def _tuned_rounds(result):
    """Eq. 5 rounds one ``simulate_spmm`` call drove the tuner through.

    The tuner freezes at ``converged_round`` (the freeze round is
    observed) or runs out of rounds; a static map tunes nothing.
    """
    if not result.tuned:
        return 0
    if result.converged_round is None:
        return result.n_rounds
    return result.converged_round


def _resolve(owner):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


class LayerClock:
    """Collects self time, calls and spans while its probes are installed.

    ``calls`` counts every call per counter name; ``entries`` counts the
    spans each layer opened (calls from outside the layer), ``roots``
    the spans opened with no enclosing span.
    ``keep_spans`` records every span as ``(layer, counter, start,
    duration, depth)`` for the Chrome-trace export.
    """

    def __init__(self, *, keep_spans=False):
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.entries = Counter()
        self.spans = [] if keep_spans else None
        self.roots = Counter()
        self._stack = []
        self._patched = []

    def _wrap(self, layer, counter, fn):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        entries = self.entries
        roots = self.roots
        spans = self.spans
        count_rounds = counter == "tune"
        clock = time.perf_counter

        @functools.wraps(fn)
        def probe(*args, **kwargs):
            calls[counter] += 1
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            entries[layer] += 1
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[layer] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    roots[layer] += 1
                if spans is not None:
                    spans.append((layer, counter, start, duration,
                                  len(stack)))
            if count_rounds:
                calls["tune_rounds"] += _tuned_rounds(result)
            return result

        return probe

    def __enter__(self):
        for layer, counter, owner, attribute in PROBES:
            target = _resolve(owner)
            original = getattr(target, attribute)
            self._patched.append((target, attribute, original))
            setattr(target, attribute, self._wrap(layer, counter, original))
        return self

    def __exit__(self, *exc):
        while self._patched:
            target, attribute, original = self._patched.pop()
            setattr(target, attribute, original)
        return False

    def problems(self, wall_s):
        """Accounting errors of one traced drain that took ``wall_s``.

        The drain must be the only span with no enclosing span (a probe
        that fires outside it would escape the wall time), no self time
        may be negative, and the self times must add up to ``wall_s``
        within :func:`wall_slack`. Empty when consistent.
        """
        found = [
            f"negative self time {value:.3g} s in {layer}"
            for layer, value in self.self_s.items() if value < -1e-9
        ]
        if self.roots != Counter({"serve.service": 1}):
            found.append(
                f"spans outside one drain: {dict(self.roots)}"
            )
        total = sum(self.self_s.values())
        if abs(total - wall_s) > wall_slack(wall_s):
            found.append(
                f"layer self times sum to {total:.6f} s but the drain "
                f"took {wall_s:.6f} s"
            )
        return found


def write_chrome_trace(path, spans, *, metadata=None):
    """Write ``LayerClock.spans`` as Chrome-trace JSON (complete events).

    Loads in ``chrome://tracing`` and Perfetto; nesting follows from the
    timestamps on the single host thread.
    """
    origin = min((span[2] for span in spans), default=0.0)
    events = [
        {
            "name": counter,
            "cat": layer,
            "ph": "X",
            "ts": (start - origin) * 1e6,
            "dur": duration * 1e6,
            "pid": 1,
            "tid": 1,
            "args": {"depth": depth},
        }
        for layer, counter, start, duration, depth in spans
    ]
    payload = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(metadata or {}),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload))
    return path
