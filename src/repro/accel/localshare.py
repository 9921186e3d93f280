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
the implementation evaluates all prefix and all suffix windows in one
vectorized pass, then asks whether any interior window beats their
maximum: one running-min pass per load vector, and a binary search on
the bound value only for the load vectors where one does. Every step
is vectorized over a whole batch of load vectors
(:func:`share_makespan_batch`), which is what the cycle model's
auto-tuning phase uses to price several candidate rounds in a single
kernel call.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError


def share_makespan(loads, hop):
    """Minimum cycles for one round under ``hop``-local sharing.

    ``loads`` is the per-PE owned work for this round. Returns an
    ``int`` cycle count: the ideal bound, which the cycle model scales
    by ``ArchConfig.sharing_efficiency`` itself.
    """
    loads = np.asarray(loads, dtype=np.int64)
    if loads.ndim != 1 or loads.size == 0:
        raise ConfigError("loads must be a non-empty 1-D array")
    return int(share_makespan_batch(loads[None, :], hop)[0])


def share_makespan_batch(loads_matrix, hop):
    """Per-round makespans for a ``(rounds, n_pes)`` batch of load vectors.

    The batched form of :func:`share_makespan`: row ``r`` of the result
    equals ``share_makespan(loads_matrix[r], hop)``. One call prices
    every candidate round of an auto-tuning chunk (or a single frozen
    round — the scalar entry point delegates here), so the rebalancing
    hot path never evaluates the Hall bound in a Python loop over
    rounds. The interior family is searched only above the prefix and
    suffix bound, since below it cannot change the max. Returns an
    ``int64`` array of length ``rounds``.
    """
    loads, hop = _checked_batch(loads_matrix, hop)
    if loads.shape[0] == 0:
        return np.zeros(0, dtype=np.int64)
    if hop == 0:
        return loads.max(axis=1)
    cumsum, prefix, suffix = _edge_bounds(loads, hop)
    floor = np.maximum(prefix, suffix)
    return _interior_bound(cumsum, loads, hop, floor=floor)


def share_window_bounds_batch(loads_matrix, hop):
    """The three families of Hall lower bounds over ``(rounds, n_pes)`` loads.

    Returns ``(interior, prefix, suffix)`` as three ``int64`` arrays of
    length ``rounds``; their elementwise max is the makespan. The
    interior component comes from the same search
    :func:`share_makespan_batch` runs, with a floor of 0 in place of the
    prefix and suffix bound. Exposed separately for the property tests,
    which cross-check each family against a brute-force evaluation of
    every window.
    """
    loads, hop = _checked_batch(loads_matrix, hop)
    cumsum, prefix, suffix = _edge_bounds(loads, hop)
    floor = np.zeros(loads.shape[0], dtype=np.int64)
    return _interior_bound(cumsum, loads, hop, floor=floor), prefix, suffix


def _checked_batch(loads_matrix, hop):
    """``(loads, hop)`` as an ``int64`` batch and an int, once checked."""
    loads = np.asarray(loads_matrix, dtype=np.int64)
    if loads.ndim != 2 or loads.shape[1] == 0:
        raise ConfigError(
            "loads_matrix must be a (rounds, n_pes) array with n_pes >= 1"
        )
    if hop < 0:
        raise ConfigError(f"hop must be >= 0, got {hop}")
    return loads, int(hop)


def _edge_bounds(loads, hop):
    """``(cumsum, prefix, suffix)``: the two clipped families per row.

    ``cumsum`` is each row's running work with a leading 0 column.
    """
    n_rounds, n = loads.shape
    cumsum = np.zeros((n_rounds, n + 1), dtype=np.int64)
    np.cumsum(loads, axis=1, out=cumsum[:, 1:])
    j = np.arange(n)
    # Prefix windows [0..j]: receivers are [0 .. min(j + hop, n - 1)].
    prefix_recv = np.minimum(j + hop, n - 1) + 1
    prefix = _ceil_div(cumsum[:, 1:], prefix_recv).max(axis=1)
    # Suffix windows [i..n-1]: receivers are [max(i - hop, 0) .. n-1].
    suffix_work = cumsum[:, n:] - cumsum[:, :-1]
    suffix_recv = n - np.maximum(j - hop, 0)
    suffix = _ceil_div(suffix_work, suffix_recv).max(axis=1)
    return cumsum, prefix, suffix


def _interior_bound(cumsum, loads, hop, *, floor):
    """Per row, the interior family's bound or ``floor``, whichever is higher.

    Interior windows of length L have L + 2*hop receivers. ceil is
    monotone, so the family max equals ceil(max W/(L + 2*hop)), and
    "is the max > T" linearizes: with D[k] = cumsum[k] - T*k, some
    window has W > T*(L + 2*hop) iff max(D[k2] - D[k1]) > 2*hop*T over
    k1 < k2 — one running-min pass. Each row is tested once at its
    ``floor``; only the rows that exceed it binary-search the bound
    value over ``[floor + 1, max load]`` (the bound never exceeds the
    max load), with an active-rows mask so finished rows stop paying.
    Receiver counts are deliberately NOT clipped at n: a clipped window
    is dominated by the prefix/suffix families (see module docstring),
    so the makespan is unchanged; only the interior component alone may
    sit below a clipped evaluation on windows wider than n - 2*hop,
    which can never win the three-way max.
    """
    positions = np.arange(cumsum.shape[1], dtype=np.int64)

    def exceeds(rows, level):
        shifted = cumsum[rows] - level[:, None] * positions
        runmin = np.minimum.accumulate(shifted[:, :-1], axis=1)
        return (shifted[:, 1:] - runmin).max(axis=1) > 2 * hop * level

    lo = floor.copy()
    hi = floor.copy()
    over = np.flatnonzero(exceeds(slice(None), floor))
    lo[over] += 1
    hi[over] = np.maximum(loads[over].max(axis=1), 0)
    while True:
        active = np.flatnonzero(lo < hi)
        if active.size == 0:
            return lo
        mid = (lo[active] + hi[active]) // 2
        exceeded = exceeds(active, mid)
        lo[active[exceeded]] = mid[exceeded] + 1
        hi[active[~exceeded]] = mid[~exceeded]


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
