"""Dynamic local sharing: the achievable makespan bound (Sec. 4.1).

A PE may push an incoming task to a neighbour within ``hop`` positions
whose task queue is shorter; the result is returned to the owner's ACC.
Tasks are single multiply-accumulates, so the fluid (fractional)
relaxation is essentially exact, and the minimum achievable round
makespan has a closed form by a Hall-type argument on the 1-D PE chain:

    T*(h) = max over row-blocks [i..j] of
            ceil( sum(W[i..j]) / #receivers([i..j], h) )

where ``#receivers`` counts PEs within ``h`` of the block (clipped at
the array edges). Any window violating this is a certificate that no
schedule beats T*; conversely a water-filling schedule achieves it.

Boundary windows are dominated by prefix/suffix windows (widening a
clipped window to the edge only adds work without adding receivers), so
the implementation evaluates: all prefix windows, all suffix windows,
and all interior windows per length — each fully vectorized, for one
load vector or a whole batch of them at once
(:func:`share_window_bounds_batch`). The batched form is what the cycle
model's auto-tuning phase uses to price several candidate rounds in a
single kernel call.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError

# Below this many PEs the interior Hall bound is evaluated as one dense
# (n x n) vectorized pass instead of a per-length Python loop; the dense
# path is ~5-10x faster for the PE counts the cycle model sweeps while
# the loop (with its early-exit) stays better for 1024+ PE arrays.
_DENSE_WINDOW_LIMIT = 512


def share_makespan(loads, hop, *, efficiency=1.0):
    """Minimum cycles for one round under ``hop``-local sharing.

    ``loads`` is the per-PE owned work for this round. ``efficiency``
    models the online heuristic's distance from the ideal bound
    (1.0 = ideal). Returns an ``int`` cycle count.
    """
    loads = np.asarray(loads, dtype=np.int64)
    if loads.ndim != 1 or loads.size == 0:
        raise ConfigError("loads must be a non-empty 1-D array")
    return int(
        share_makespan_batch(loads[None, :], hop, efficiency=efficiency)[0]
    )


def share_makespan_batch(loads_matrix, hop, *, efficiency=1.0):
    """Per-round makespans for a ``(rounds, n_pes)`` batch of load vectors.

    The batched form of :func:`share_makespan`: row ``r`` of the result
    equals ``share_makespan(loads_matrix[r], hop, efficiency=...)``. One
    call prices every candidate round of an auto-tuning chunk (or a
    single frozen round — the scalar entry point delegates here), so the
    rebalancing hot path never evaluates the Hall bound in a Python
    loop over rounds. Returns an ``int64`` array of length ``rounds``.
    """
    loads = np.asarray(loads_matrix, dtype=np.int64)
    if loads.ndim != 2 or loads.shape[1] == 0:
        raise ConfigError(
            "loads_matrix must be a (rounds, n_pes) array with n_pes >= 1"
        )
    if hop < 0:
        raise ConfigError(f"hop must be >= 0, got {hop}")
    if not 0.0 < efficiency <= 1.0:
        raise ConfigError(f"efficiency must be in (0, 1], got {efficiency}")
    if loads.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if hop == 0:
        ideal = loads.max(axis=1)
    else:
        interior, prefix, suffix = share_window_bounds_batch(loads, hop)
        ideal = np.maximum(np.maximum(interior, prefix), suffix)
    return np.ceil(ideal / efficiency).astype(np.int64)


def share_window_bounds(loads, hop):
    """The three families of Hall lower bounds; the max is the makespan.

    Returns ``(interior, prefix, suffix)`` bounds as Python ints. Exposed
    separately for the property tests, which cross-check against a
    brute-force evaluation of every window.
    """
    loads = np.asarray(loads, dtype=np.int64)
    interior, prefix, suffix = share_window_bounds_batch(loads[None, :], hop)
    return int(interior[0]), int(prefix[0]), int(suffix[0])


def share_window_bounds_batch(loads_matrix, hop):
    """Batched :func:`share_window_bounds` over ``(rounds, n_pes)`` loads.

    Returns three ``int64`` arrays of length ``rounds``. All three
    bound families vectorize over the round axis; the interior family
    is evaluated densely for a single narrow row and otherwise by a
    per-round binary search on the bound value (see the inline comment
    below), with an active-rounds mask so finished rounds stop paying.
    """
    loads = np.asarray(loads_matrix, dtype=np.int64)
    if loads.ndim != 2 or loads.shape[1] == 0:
        raise ConfigError(
            "loads_matrix must be a (rounds, n_pes) array with n_pes >= 1"
        )
    if hop < 0:
        raise ConfigError(f"hop must be >= 0, got {hop}")
    n_rounds, n = loads.shape
    hop = int(hop)
    cumsum = np.zeros((n_rounds, n + 1), dtype=np.int64)
    np.cumsum(loads, axis=1, out=cumsum[:, 1:])

    # Prefix windows [0..j]: receivers are [0 .. min(j + hop, n - 1)].
    j = np.arange(n)
    prefix_recv = np.minimum(j + hop, n - 1) + 1
    prefix_bound = _ceil_div(cumsum[:, 1:], prefix_recv).max(axis=1)

    # Suffix windows [i..n-1]: receivers are [max(i - hop, 0) .. n-1].
    suffix_work = cumsum[:, n:] - cumsum[:, :-1]
    suffix_recv = n - np.maximum(j - hop, 0)
    suffix_bound = _ceil_div(suffix_work, suffix_recv).max(axis=1)

    # Interior windows of each length L: receivers = L + 2*hop (no
    # clipping; clipped windows are dominated by prefix/suffix above).
    # Dense evaluation is O(n^2) per round — right for one narrow load
    # vector (few numpy dispatches), wasteful for a batch, where the
    # O(n log max_load) bound search below wins at every width.
    if n_rounds == 1 and n <= _DENSE_WINDOW_LIMIT:
        # One vectorized pass over the (end, start) difference matrix.
        # The receiver count depends only on the window length, so taking
        # ceil per window and maxing globally equals the per-length loop.
        # Inverted (start > end) entries have non-positive sums, hence
        # non-positive ceilings — they can never win the max.
        sums = cumsum[:, 1:, None] - cumsum[:, None, :-1]
        lengths = np.arange(1, n + 1)[:, None] - np.arange(n)[None, :]
        receivers = np.maximum(np.minimum(lengths + 2 * hop, n), 1)
        bounds = -(-sums // receivers)
        interior_bound = np.maximum(bounds.max(axis=(1, 2)), 0)
        return interior_bound, prefix_bound, suffix_bound
    # Wide arrays: resolve the interior family by binary search on the
    # bound value instead of a per-length window sweep. ceil is
    # monotone, so the family max equals ceil(max W/(L + 2*hop)), and
    # "is the max > T" linearizes: with D[k] = cumsum[k] - T*k, some
    # window has W > T*(L + 2*hop) iff max(D[k2] - D[k1]) > 2*hop*T
    # over k1 < k2 — one running-min pass. O(log max_load) vectorized
    # scans per round, batched over rounds. Receiver counts are
    # deliberately NOT clipped at n here: a clipped window is dominated
    # by the prefix/suffix families (see module docstring), so the
    # overall makespan is unchanged; only the reported interior
    # component may sit below the dense path's on windows wider than
    # n - 2*hop, which can never win the three-way max.
    lo = np.zeros(n_rounds, dtype=np.int64)
    hi = np.maximum(loads.max(axis=1), 0)  # bound <= max load always
    positions = np.arange(n + 1, dtype=np.int64)
    while True:
        active = np.flatnonzero(lo < hi)
        if active.size == 0:
            break
        mid = (lo[active] + hi[active]) // 2
        level = cumsum[active] - mid[:, None] * positions
        runmin = np.minimum.accumulate(level[:, :-1], axis=1)
        maxdiff = (level[:, 1:] - runmin).max(axis=1)
        exceeded = maxdiff > 2 * hop * mid
        lo[active[exceeded]] = mid[exceeded] + 1
        hi[active[~exceeded]] = mid[~exceeded]
    return lo, prefix_bound, suffix_bound


def share_effective_loads(loads, hop, *, cap=None):
    """A feasible per-PE executed-work vector at the optimal makespan.

    Earliest-deadline-first transport: every PE's load is a "job"
    releasable at receiver ``p - hop`` with deadline ``p + hop``. Both
    the release point and the deadline are monotone in the sender index,
    so EDF order *is* sender order, and the schedule collapses to greedy
    water-filling: job ``s`` starts at
    ``max(finish[s - 1], release[s] * cap)`` on a timeline where each
    receiver contributes ``cap`` cycles of capacity. That recurrence has
    the closed form ``finish = cumsum(loads) + running_max(release * cap
    - cumsum_before)``, and slicing the resulting busy intervals at the
    receiver boundaries (one ``searchsorted``) yields the executed-work
    vector — no Python loop, no heap. Used by the area model to size
    task queues and by tests to certify the bound is achievable.
    Conservation holds exactly: ``sum(effective) == sum(loads)``.

    ``cap`` lets a caller assert it already evaluated the Hall bound for
    these exact loads; it must equal ``share_makespan(loads, hop)``
    within ``1e-9``, else :class:`~repro.errors.ConfigError` is raised
    (the old implementation silently trusted the caller). Validation is
    by optimality certificate rather than recomputation: the EDF
    schedule itself proves ``cap`` is feasible and ``cap - 1`` is not,
    which for integer task counts is exactly equality with the Hall
    bound — so the cycle model's hot path, which always passes the
    bound it just evaluated, never pays a second Hall evaluation.

    The pre-vectorization heap implementation lives in
    ``tests/test_accel_localshare.py`` as the oracle: the property suite
    asserts elementwise equality between the two.
    """
    loads = np.asarray(loads, dtype=np.float64)
    n = loads.size
    if cap is None:
        cap = float(share_makespan(loads, hop))
        start, finish, total = _edf_schedule(loads, hop, cap)
        # Feasibility: each job must fit within its deadline receiver's
        # capacity. At a correct cap this never fires (the Hall bound
        # is achievable); it guards the model against regressions.
        overrun = _edf_overrun(finish, hop, cap)
        late = np.flatnonzero(overrun > 1e-9)
        if late.size:
            sender = int(late[0])
            receiver = min(sender + hop, n - 1)
            raise AssertionError(
                f"EDF transport failed at receiver {receiver}: "
                f"{float(overrun[sender])} work past its deadline "
                f"(cap={cap})"
            )
    else:
        # Validation already evaluated the schedule at cap and proved
        # every deadline holds — reuse it rather than recomputing.
        cap, (start, finish, total) = _validate_cap(loads, hop, cap)

    # Slice the busy timeline at receiver boundaries p * cap: work done
    # before boundary x is (all jobs finishing by x) + the partial job
    # straddling it; consecutive differences give per-receiver work.
    boundaries = cap * np.arange(1, n + 1)
    idx = np.searchsorted(finish, boundaries, side="right")
    done = np.concatenate(([0.0], total))
    partial = np.maximum(boundaries - start[np.minimum(idx, n - 1)], 0.0)
    filled = np.where(idx < n, done[np.minimum(idx, n)] + partial, total[-1])
    return np.diff(np.concatenate(([0.0], filled)))


def _edf_schedule(loads, hop, cap):
    """Closed-form EDF water-filling at per-receiver capacity ``cap``.

    Deadlines and release points are both monotone in the sender index,
    so EDF order is sender order and job ``s`` occupies the interval
    ``[start[s], finish[s])`` of the concatenated receiver timeline
    (receiver ``p`` owns ``[p*cap, (p+1)*cap)``), with
    ``finish[s] = max(finish[s-1], release[s]*cap) + loads[s]``.
    Returns ``(start, finish, cumulative_loads)``.
    """
    n = loads.size
    release = np.maximum(np.arange(n) - hop, 0)
    total = np.cumsum(loads)
    # Work of all jobs preceding each sender; sliced (not total - loads)
    # so the values are bit-exact prefixes even for fractional loads.
    before = np.concatenate(([0.0], total[:-1]))
    finish = total + np.maximum.accumulate(release * cap - before)
    return finish - loads, finish, total


def _edf_overrun(finish, hop, cap):
    """Per-job capacity overrun past the deadline receiver (<= 0 = ok)."""
    n = finish.size
    deadline = np.minimum(np.arange(n) + hop, n - 1)
    return finish - (deadline + 1.0) * cap


def _validate_cap(loads, hop, cap):
    """Certify a caller-supplied cap equals the Hall-bound makespan.

    The makespan is the least per-receiver capacity the EDF transport
    succeeds at, so ``cap`` is correct iff the schedule meets every
    deadline at ``cap`` but misses one at ``cap - 1`` — two vectorized
    schedule evaluations, cheaper than re-deriving the window bounds.
    Raises :class:`~repro.errors.ConfigError` on any mismatch; on
    success returns ``(cap, schedule)`` with the already-proven-feasible
    ``_edf_schedule(loads, hop, cap)`` so the caller need not
    re-evaluate it.
    """
    if loads.ndim != 1 or loads.size == 0:
        raise ConfigError("loads must be a non-empty 1-D array")
    if hop < 0:
        raise ConfigError(f"hop must be >= 0, got {hop}")
    try:
        cap = float(cap)
    except (TypeError, ValueError):
        raise ConfigError(f"cap must be a number, got {type(cap).__name__}")
    rounded = round(cap)
    if not np.isfinite(cap) or abs(cap - rounded) > 1e-9 or rounded < 0:
        raise ConfigError(
            f"cap {cap} cannot equal share_makespan(loads, hop): the "
            f"bound is a non-negative integer"
        )
    cap = float(rounded)
    schedule = _edf_schedule(loads, hop, cap)
    if (_edf_overrun(schedule[1], hop, cap) > 1e-9).any():
        raise ConfigError(
            f"cap {cap} is below share_makespan(loads, hop) for these "
            f"loads (the EDF transport misses a deadline); pass cap=None "
            f"to recompute the bound"
        )
    if rounded > 0:
        _, finish, _ = _edf_schedule(loads, hop, cap - 1.0)
        if not (_edf_overrun(finish, hop, cap - 1.0) > 1e-9).any():
            raise ConfigError(
                f"cap {cap} exceeds share_makespan(loads, hop) for these "
                f"loads (the transport already succeeds at {cap - 1:g}); "
                f"pass cap=None to recompute the bound"
            )
    return cap, schedule


def _ceil_div(numerator, denominator):
    """Elementwise ceiling division for non-negative integer arrays."""
    return -(-numerator // denominator)
