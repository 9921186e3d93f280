"""Synthetic multi-graph request traffic for the serving benchmarks.

Serving workloads are dominated by *repeat* graphs: a recommendation
or knowledge-graph deployment answers many queries against the same
handful of graph snapshots. :func:`synthetic_traffic` models that with a
pool of fixed-seed RMAT graph specs sampled with skew (earlier specs are
hotter), which is exactly the regime the
:class:`~repro.serve.AutotuneCache` targets — the first request per
(graph, config) pays the auto-tuner warm-up, every repeat takes the
frozen fast path.

For the event-driven serving loop the same mixes become *streams*:
:func:`poisson_arrivals` and :func:`bursty_arrivals` generate fully
seeded arrival-time processes, and :func:`streaming_traffic` stamps
them (plus an optional latency SLO) onto a synthetic mix, producing
requests the :class:`~repro.serve.InferenceService` admits as its
simulated clock advances. :func:`mixed_traffic` builds the multi-tenant
regime the co-scheduling service targets: one arrival stream carrying
deadline-critical small queries, ordinary SLO'd batch queries and
oversized sharded jobs side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from repro.accel.config import ArchConfig, kept_eq, kept_hash, kept_state
from repro.datasets.features import dense_weight_matrix, sample_row_nnz
from repro.datasets.normalize import gcn_normalize
from repro.datasets.rmat import check_abcd, rmat_edges
from repro.datasets.synthetic import GcnDataset
from repro.errors import ConfigError
from repro.serve.request import InferenceRequest
from repro.sparse.coo import CooMatrix
from repro.utils.rng import rng_from_seed, spawn_rngs
from repro.utils.validation import (
    check_choice,
    check_fraction,
    check_instance,
    check_non_negative_finite,
    check_non_negative_int,
    check_positive_finite,
    check_positive_int,
)


@dataclass(frozen=True)
class RmatGraphSpec:
    """A fully-seeded recipe for one synthetic serving graph.

    Frozen and hashable, so it doubles as a memoization key: building
    the same spec twice returns the same (cached) dataset object, and
    its accelerator workload fingerprints identically — which is what
    turns repeat traffic into autotune-cache hits. Hashed and compared
    through one kept field tuple, with the generated methods' values
    (:func:`~repro.accel.config.kept_hash`). Every field is checked at
    construction, not at :meth:`build` mid-drain: a NaN or out-of-range
    density, a negative seed or an ``abcd`` that is not a tuple
    :func:`~repro.datasets.rmat.check_abcd` accepts raises
    :class:`~repro.errors.ConfigError` naming the field.
    """

    n_nodes: int
    avg_degree: int = 8
    f1: int = 64
    f2: int = 32
    f3: int = 8
    x1_density: float = 0.08
    x2_density: float = 0.6
    seed: int = 0
    abcd: tuple = (0.5, 0.2, 0.2, 0.1)

    def __post_init__(self):
        # Checked only, so the stored fields (and the graph cache's
        # keys) stay the caller's.
        for name in ("n_nodes", "avg_degree", "f1", "f2", "f3"):
            check_positive_int(getattr(self, name), name)
        check_fraction(self.x1_density, "x1_density")
        check_fraction(self.x2_density, "x2_density")
        check_non_negative_int(self.seed, "seed")
        check_abcd(check_instance(self.abcd, tuple, "abcd"))  # a hash key

    # The graph cache compares an equal spec from another trace on
    # every build: compare and hash through the kept field tuple.
    __hash__ = kept_hash
    __eq__ = kept_eq
    __getstate__ = kept_state

    @property
    def name(self):
        """Stable human-readable identifier."""
        return (
            f"rmat-n{self.n_nodes}-d{self.avg_degree}-s{self.seed}"
        )

    def build(self):
        """The (memoized) :class:`~repro.datasets.GcnDataset`."""
        return _build_rmat_dataset(self)


@lru_cache(maxsize=256)
def _build_rmat_dataset(spec):
    """Materialize an :class:`RmatGraphSpec` as a pattern-only dataset."""
    rng_graph, rng_x1, rng_w1, rng_w2, rng_x2 = spawn_rngs(
        int(spec.seed), 5
    )
    n_directed = max(spec.n_nodes * spec.avg_degree // 2, 1)
    src, dst = rmat_edges(
        spec.n_nodes, n_directed, abcd=spec.abcd, rng=rng_graph
    )
    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    adjacency = gcn_normalize(
        CooMatrix((spec.n_nodes, spec.n_nodes), rows, cols,
                  np.ones(rows.size))
    )
    x1_row_nnz = sample_row_nnz(
        spec.n_nodes, spec.f1, spec.x1_density, rng=rng_x1
    )
    x2_row_nnz = sample_row_nnz(
        spec.n_nodes, spec.f2, spec.x2_density, rng=rng_x2, row_skew=0.2
    )
    weights = [
        dense_weight_matrix(spec.f1, spec.f2, rng=rng_w1),
        dense_weight_matrix(spec.f2, spec.f3, rng=rng_w2),
    ]
    return GcnDataset(
        name=spec.name,
        preset="serve",
        seed=int(spec.seed),
        adjacency=adjacency,
        features=None,
        weights=weights,
        x1_row_nnz=x1_row_nnz,
        x2_row_nnz=x2_row_nnz,
    )


def clear_graph_cache():
    """Drop memoized spec-built datasets (frees memory between mixes)."""
    _build_rmat_dataset.cache_clear()


def synthetic_traffic(n_requests, *, n_graphs=4, n_nodes=2048, seed=7,
                      configs=None, avg_degree=8, zipf_skew=1.1,
                      graph_kwargs=None):
    """A repeated-graph request mix over ``n_graphs`` RMAT specs.

    Graph popularity follows a Zipf-like law with exponent ``zipf_skew``
    (1.0 = classic Zipf; higher = hotter head), mirroring production
    query distributions. Each request cycles through ``configs``
    (default: one balanced AWB design), so the scheduler has real
    config-affinity batching to do. ``graph_kwargs`` forwards extra
    :class:`RmatGraphSpec` fields (layer dims, densities). Returns a
    list of :class:`InferenceRequest` in arrival order.
    """
    check_positive_int(n_requests, "n_requests")
    check_positive_int(n_graphs, "n_graphs")
    check_non_negative_finite(zipf_skew, "zipf_skew")
    graph_kwargs = dict(graph_kwargs or {})
    if configs is None:
        configs = (ArchConfig(n_pes=64, hop=1, remote_switching=True),)
    configs = tuple(configs)
    for config in configs:
        check_instance(config, ArchConfig, "configs")
    rng = rng_from_seed(seed)
    specs = [
        RmatGraphSpec(
            n_nodes=n_nodes, avg_degree=avg_degree, seed=1000 + graph_idx,
            **graph_kwargs,
        )
        for graph_idx in range(n_graphs)
    ]
    weights = 1.0 / np.arange(1, n_graphs + 1) ** zipf_skew
    weights /= weights.sum()
    choices = rng.choice(n_graphs, size=n_requests, p=weights)
    return [
        InferenceRequest(
            graph=specs[graph_idx],
            config=configs[i % len(configs)],
        )
        for i, graph_idx in enumerate(choices)
    ]


def _check_repeat(repeat_alpha, family_size):
    """Validate the repeat-heavy traffic knobs (both may be None)."""
    if repeat_alpha is not None:
        repeat_alpha = check_non_negative_finite(repeat_alpha, "repeat_alpha")
    if family_size is not None:
        family_size = check_positive_int(family_size, "family_size")
    return repeat_alpha, family_size


def poisson_arrivals(n_requests, *, rate, seed=0, start=0.0):
    """Arrival times of a Poisson process at ``rate`` requests/second.

    Inter-arrival gaps are i.i.d. exponential with mean ``1/rate``;
    times are the running sum from ``start``. Fully seeded, so a trace
    regenerates bit-identically. Returns a non-decreasing float array
    of length ``n_requests``.
    """
    check_positive_int(n_requests, "n_requests")
    rate = check_positive_finite(rate, "rate")
    rng = rng_from_seed(seed)
    gaps = rng.exponential(1.0 / rate, size=n_requests)
    return start + np.cumsum(gaps)


def bursty_arrivals(n_requests, *, rate, burst_size=8, seed=0, start=0.0):
    """Arrival times of an on/off bursty process averaging ``rate`` req/s.

    Requests arrive in bursts of ``burst_size`` sharing one timestamp
    (think a fanned-out page render or a retry storm); burst epochs are
    Poisson at ``rate / burst_size``, so the long-run request rate
    matches :func:`poisson_arrivals` while the instantaneous load is
    far spikier — the regime that stresses deadline-aware batch
    cutting. Returns a non-decreasing float array of ``n_requests``.
    """
    check_positive_int(n_requests, "n_requests")
    check_positive_int(burst_size, "burst_size")
    rate = check_positive_finite(rate, "rate")
    rng = rng_from_seed(seed)
    n_bursts = -(-n_requests // burst_size)
    epochs = np.cumsum(rng.exponential(burst_size / rate, size=n_bursts))
    return start + np.repeat(epochs, burst_size)[:n_requests]


def streaming_traffic(n_requests, *, arrival_rate, arrival="poisson",
                      burst_size=8, slo_ms=None, n_graphs=4, n_nodes=2048,
                      seed=7, configs=None, avg_degree=8, zipf_skew=1.1,
                      repeat_alpha=None, family_size=None,
                      graph_kwargs=None):
    """A :func:`synthetic_traffic` mix stamped with an arrival process.

    ``arrival`` selects the process (``"poisson"`` or ``"bursty"`` at
    ``arrival_rate`` requests/second); ``slo_ms`` attaches the same
    end-to-end latency SLO to every request (None = no deadlines).
    ``repeat_alpha``/``family_size`` are the repeat-heavy knob the
    affinity benchmarks sweep: when set they override
    ``zipf_skew``/``n_graphs`` as the Zipf exponent and pool size of
    the graph-family popularity law (higher alpha = hotter head = more
    fingerprint reuse). Everything derives from ``seed``, so the trace
    — graphs, arrival times and deadlines — is deterministic. Returns
    requests in arrival order, ready for
    :meth:`InferenceService.submit_many`.
    """
    check_choice(arrival, ("poisson", "bursty"), "arrival")
    repeat_alpha, family_size = _check_repeat(repeat_alpha, family_size)
    if repeat_alpha is not None:
        zipf_skew = repeat_alpha
    if family_size is not None:
        n_graphs = family_size
    base = synthetic_traffic(
        n_requests, n_graphs=n_graphs, n_nodes=n_nodes, seed=seed,
        configs=configs, avg_degree=avg_degree, zipf_skew=zipf_skew,
        graph_kwargs=graph_kwargs,
    )
    if arrival == "poisson":
        times = poisson_arrivals(n_requests, rate=arrival_rate, seed=seed)
    else:
        times = bursty_arrivals(
            n_requests, rate=arrival_rate, burst_size=burst_size, seed=seed
        )
    return [
        replace(request, arrival_time=float(when), slo_ms=slo_ms)
        for request, when in zip(base, times)
    ]


def mixed_traffic(n_requests, *, arrival_rate, chip_capacity, seed=7,
                  configs=None, critical_fraction=0.2,
                  sharded_fraction=0.15, critical_slo_ms=1.0,
                  batch_slo_ms=20.0, sharded_slo_ms=None,
                  small_nodes=None, batch_nodes=None, sharded_nodes=None,
                  n_graphs=3, avg_degree=8, repeat_alpha=None,
                  family_size=None, graph_kwargs=None):
    """A multi-tenant request mix: critical, batch and sharded tenants.

    Models the co-scheduling regime of a shared pool: a Poisson stream
    at ``arrival_rate`` requests/second where each request is
    independently a *critical* small query (tight ``critical_slo_ms``,
    graphs of ``small_nodes``), an ordinary *batch* query
    (``batch_slo_ms``, ``batch_nodes``) or an oversized *sharded* job
    (``sharded_slo_ms``, ``sharded_nodes`` — sized past
    ``chip_capacity`` so the service gang-schedules it). Node counts
    default to ``chip_capacity // 4``, ``chip_capacity // 2`` and
    ``3 * chip_capacity``. Each tenant class draws from its own pool of
    ``n_graphs`` fixed-seed RMAT specs, so repeat traffic still hits
    the autotune cache. ``family_size`` overrides ``n_graphs``, and
    ``repeat_alpha`` (None = historical uniform picks) makes each
    class's pool Zipf-popular with that exponent — the repeat-heavy
    regime the cache-affinity benchmarks model. Everything derives
    from ``seed``; the trace is deterministic. Returns requests in
    arrival order.
    """
    check_positive_int(n_requests, "n_requests")
    repeat_alpha, family_size = _check_repeat(repeat_alpha, family_size)
    if family_size is not None:
        n_graphs = family_size
    check_positive_int(n_graphs, "n_graphs")
    chip_capacity = check_positive_int(chip_capacity, "chip_capacity")
    critical_fraction = check_fraction(critical_fraction, "critical_fraction")
    sharded_fraction = check_fraction(sharded_fraction, "sharded_fraction")
    if critical_fraction + sharded_fraction > 1.0:
        raise ConfigError(
            "critical_fraction + sharded_fraction must be <= 1, got "
            f"{critical_fraction} + {sharded_fraction}"
        )
    graph_kwargs = dict(graph_kwargs or {})
    if configs is None:
        configs = (ArchConfig(n_pes=64, hop=1, remote_switching=True),)
    configs = tuple(configs)
    for config in configs:
        check_instance(config, ArchConfig, "configs")
    small_nodes = small_nodes or max(chip_capacity // 4, 16)
    batch_nodes = batch_nodes or max(chip_capacity // 2, 16)
    sharded_nodes = sharded_nodes or 3 * chip_capacity
    if sharded_nodes <= chip_capacity:
        raise ConfigError(
            f"sharded_nodes ({sharded_nodes}) must exceed chip_capacity "
            f"({chip_capacity}) or the sharded tenant never shards"
        )
    classes = (
        # (spec seed base, node count, slo_ms)
        (2000, small_nodes, critical_slo_ms),
        (3000, batch_nodes, batch_slo_ms),
        (4000, sharded_nodes, sharded_slo_ms),
    )
    pools = [
        [
            RmatGraphSpec(
                n_nodes=nodes, avg_degree=avg_degree,
                seed=seed_base + graph_idx, **graph_kwargs,
            )
            for graph_idx in range(n_graphs)
        ]
        for seed_base, nodes, _slo in classes
    ]
    rng = rng_from_seed(seed)
    kinds = rng.choice(
        3, size=n_requests,
        p=[critical_fraction, 1.0 - critical_fraction - sharded_fraction,
           sharded_fraction],
    )
    if repeat_alpha is None:
        picks = rng.integers(0, n_graphs, size=n_requests)
    else:
        weights = 1.0 / np.arange(1, n_graphs + 1) ** repeat_alpha
        weights /= weights.sum()
        picks = rng.choice(n_graphs, size=n_requests, p=weights)
    times = poisson_arrivals(n_requests, rate=arrival_rate, seed=seed)
    requests = []
    for i in range(n_requests):
        cls = int(kinds[i])
        slo_ms = classes[cls][2]
        requests.append(InferenceRequest(
            graph=pools[cls][int(picks[i])],
            config=configs[i % len(configs)],
            arrival_time=float(times[i]),
            slo_ms=slo_ms,
        ))
    return requests
