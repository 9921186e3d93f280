"""Vectorized R-MAT edge generator.

R-MAT (recursive matrix) generators produce graphs whose degree
distribution follows a power law with tunable skew — the property the
paper identifies as the root cause of PE workload imbalance ("real-world
graphs often follow the power-law distribution"). Each edge is placed by
recursively descending a 2x2 quadrant grid with probabilities
``(a, b, c, d)``; uniform probabilities give an Erdos-Renyi-like graph,
skewed ones concentrate edges around low-index hub nodes.

The implementation draws all quadrant choices for all edges at one level
in a single vectorized pass, so Reddit-scale edge lists (tens of
millions) generate in seconds.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.utils.rng import rng_from_seed
from repro.utils.validation import (
    check_non_negative_finite,
    check_positive_int,
)


def check_abcd(abcd):
    """Return ``abcd`` as four floats if they are RMAT quadrant odds.

    The rule: four finite, non-negative numbers that sum to 1 within
    ``1e-9``; anything else raises :class:`~repro.errors.ConfigError`
    naming ``abcd``.
    """
    try:
        parts = tuple(abcd)
    except TypeError:
        raise ConfigError(
            f"abcd must be four numbers, got {type(abcd).__name__}"
        ) from None
    if len(parts) != 4:
        raise ConfigError(f"abcd must be four numbers, got {len(parts)}")
    probs = tuple(
        check_non_negative_finite(part, f"abcd[{index}]")
        for index, part in enumerate(parts)
    )
    if abs(sum(probs) - 1.0) > 1e-9:
        raise ConfigError(f"abcd must sum to 1, got {abcd}")
    return probs


# Oversampling rounds after which rmat_edges returns what it has.
_MAX_ATTEMPTS = 8


def rmat_edges(n_nodes, n_edges, *, abcd=(0.45, 0.22, 0.22, 0.11), rng=None):
    """Generate ``n_edges`` unique directed edges on ``n_nodes`` nodes.

    Parameters
    ----------
    n_nodes:
        Number of nodes; does not need to be a power of two (samples
        landing outside the range are redrawn).
    n_edges:
        Number of *unique* (src, dst) pairs requested. With very dense
        requests deduplication may converge slowly; after
        ``_MAX_ATTEMPTS`` (8) oversampling rounds the function returns
        what it has (callers treat ``n_edges`` as a target, not a
        contract).
    abcd:
        RMAT quadrant probabilities, as :func:`check_abcd` accepts them.

    Returns
    -------
    (src, dst):
        Two int64 arrays of equal length, sorted by ``(src, dst)``.
    """
    n_nodes = check_positive_int(n_nodes, "n_nodes")
    if n_edges < 0:
        raise ConfigError(f"n_edges must be >= 0, got {n_edges}")
    a, b, c, d = check_abcd(abcd)
    rng = rng_from_seed(rng)
    if n_edges == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty

    levels = max(int(np.ceil(np.log2(n_nodes))), 1)
    seen = np.zeros(0, dtype=np.int64)
    need = n_edges
    for _attempt in range(_MAX_ATTEMPTS):
        batch = int(need * 1.35) + 16
        src, dst = _rmat_batch(batch, levels, (a, b, c, d), rng)
        in_range = (src < n_nodes) & (dst < n_nodes)
        seen = np.union1d(seen, src[in_range] * n_nodes + dst[in_range])
        need = n_edges - seen.size
        if need <= 0:
            break
    if seen.size > n_edges:
        # Drop a random subset to hit the target exactly; keep the
        # selection deterministic under the provided rng.
        keep = rng.choice(seen.size, size=n_edges, replace=False)
        seen = seen[np.sort(keep)]
    return seen // n_nodes, seen % n_nodes


def _rmat_batch(count, levels, abcd, rng):
    """Draw ``count`` RMAT coordinate pairs over ``levels`` bit levels."""
    a, b, c, d = abcd
    # Quadrant encoding: 0 -> (0,0), 1 -> (0,1), 2 -> (1,0), 3 -> (1,1).
    probs = np.array([a, b, c, d])
    cdf = np.cumsum(probs)
    src = np.zeros(count, dtype=np.int64)
    dst = np.zeros(count, dtype=np.int64)
    for _level in range(levels):
        draw = rng.random(count)
        quadrant = np.searchsorted(cdf, draw, side="right")
        src = (src << 1) | (quadrant >> 1)
        dst = (dst << 1) | (quadrant & 1)
    return src, dst


def inject_hub_cluster(src, dst, n_nodes, *, hub_nodes, fraction, rng):
    """Route ``fraction`` of the edges into a small hub-node cluster.

    The paper observes that Nell's non-zeros are "quite clustered",
    over-loading one or two PEs. RMAT skew alone spreads hubs across the
    low-index region; this post-pass rewires a fraction of edge endpoints
    into a contiguous block of ``hub_nodes`` nodes, recreating the dense
    blob visible in Fig. 13. Returns new ``(src, dst)`` arrays (the
    inputs are not modified).
    """
    rng = rng_from_seed(rng)
    hub_nodes = check_positive_int(hub_nodes, "hub_nodes")
    if hub_nodes > n_nodes:
        raise ConfigError(
            f"hub_nodes ({hub_nodes}) cannot exceed n_nodes ({n_nodes})"
        )
    if not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"fraction must be in [0, 1], got {fraction}")
    src = np.array(src, dtype=np.int64, copy=True)
    dst = np.array(dst, dtype=np.int64, copy=True)
    n_edges = src.size
    n_rewire = int(round(fraction * n_edges))
    if n_rewire == 0:
        return src, dst
    # Place the hub block away from index 0 so it does not merge with the
    # RMAT hubs; one-third of the way in, like the mid-matrix blob of the
    # paper's Nell plot. Only destinations are rewired (a stripe): with
    # random sources the hub entries rarely collide, so deduplication
    # does not erode the cluster, and symmetrization makes the hub ROWS
    # heavy — exactly the row-side concentration that over-loads the PEs
    # owning those rows. Hub degrees follow a zipf-like law (weight
    # 1/(rank+1)): real NELL-style hubs are a few super-rows, not a
    # uniform block, so the heaviest row stays on one PE no matter how
    # finely rows are partitioned — this is what makes the baseline's
    # utilization *fall* as the PE count grows (paper Fig. 15).
    hub_start = n_nodes // 3
    chosen = rng.choice(n_edges, size=n_rewire, replace=False)
    weights = 1.0 / np.arange(1, hub_nodes + 1)
    weights /= weights.sum()
    dst[chosen] = hub_start + rng.choice(hub_nodes, size=n_rewire, p=weights)
    return src, dst
