"""The serving workloads the host-throughput benchmark drives.

Each workload is a fixed traffic recipe plus a service configuration.
The seed drives arrival times and graph-family picks; the graph pools
are fixed RMAT specs, so every seed exercises the same graphs. All
arrivals are open-loop Poisson on the *simulated* clock: the host
submits the whole trace, then times ``drain()``, so there is no
generator that could run late.

Every workload uses four simulated instances, 256-node RMAT graphs and
a 5 ms SLO unless its recipe says otherwise. Why each one exists is in
README.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.config import ArchConfig
from repro.serve import InferenceService
from repro.serve.bench import DEFAULT_GRAPH_KWARGS, default_serving_config
from repro.serve.traffic import mixed_traffic, streaming_traffic

N_INSTANCES = 4
N_TRACES = 4
N_REQUESTS = 500
"""Requests per trace, so one drain, at full size."""
NODES = 256
SLO_MS = 5.0


@dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    shared_cache: bool
    """Whether every instance shares one cache, so the cache can never
    steer the simulated timeline and every drain of the trace must
    repeat the warm-up drain's timeline exactly."""
    trace: object
    """``trace(n_requests, seed)`` -> requests in arrival order."""
    service: object
    """``service(tracer=None)`` -> a fresh, cold service."""

    def traces(self, seed):
        """The run's independent traces, all derived from ``seed``.

        Several short traces instead of one long one: the modeled
        metrics pool all of them, while each trace's drain stays short
        enough to be timed many times in one run.
        """
        sub_seeds = np.random.SeedSequence(seed).generate_state(N_TRACES)
        return [
            self.trace(N_REQUESTS, int(sub_seed))
            for sub_seed in sub_seeds
        ]


def _warm_repeat_trace(n_requests, seed):
    return streaming_traffic(
        n_requests, arrival_rate=20_000.0, slo_ms=SLO_MS, n_nodes=NODES,
        family_size=8, repeat_alpha=1.1, seed=seed,
        configs=(default_serving_config(32),),
        graph_kwargs=DEFAULT_GRAPH_KWARGS,
    )


def _warm_repeat_service(tracer=None):
    return InferenceService(
        n_workers=N_INSTANCES, cache=True, max_batch=8, tracer=tracer,
    )


def _affinity_churn_trace(n_requests, seed):
    return streaming_traffic(
        n_requests, arrival_rate=10_000.0, slo_ms=SLO_MS, n_nodes=NODES,
        family_size=24, repeat_alpha=1.2, seed=seed,
        configs=(default_serving_config(32),),
        graph_kwargs=DEFAULT_GRAPH_KWARGS,
    )


def _affinity_churn_service(tracer=None):
    # Shards of 8 entries hold a third of the 24 families: every drain
    # keeps evicting, re-tuning and replicating.
    return InferenceService(
        n_workers=N_INSTANCES, cache=True, max_batch=8,
        cache_mode="affinity", worker_cache_entries=8,
        replicate_threshold=3.0, tracer=tracer,
    )


CHIP_CAPACITY = 1024
CRITICAL_SLO_MS = 1.0


def _mixed_sharded_trace(n_requests, seed):
    return mixed_traffic(
        n_requests, arrival_rate=8_000.0, chip_capacity=CHIP_CAPACITY,
        seed=seed,
        configs=(ArchConfig(n_pes=64, hop=1, remote_switching=True),),
        critical_fraction=0.25, sharded_fraction=0.15,
        critical_slo_ms=CRITICAL_SLO_MS, batch_slo_ms=SLO_MS,
        small_nodes=NODES, batch_nodes=NODES, sharded_nodes=4096,
    )


def _mixed_sharded_service(tracer=None):
    return InferenceService(
        n_workers=N_INSTANCES, cache=True, max_batch=8,
        chip_capacity=CHIP_CAPACITY, coschedule=True,
        critical_slo_ms=CRITICAL_SLO_MS,
        cluster_options={"topology": "ring"}, tracer=tracer,
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        Workload("warm_repeat", True,
                 _warm_repeat_trace, _warm_repeat_service),
        Workload("affinity_churn", False,
                 _affinity_churn_trace, _affinity_churn_service),
        Workload("mixed_sharded", True,
                 _mixed_sharded_trace, _mixed_sharded_service),
    )
}
