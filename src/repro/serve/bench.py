"""The serving benchmarks' shared workload parameters.

:data:`DEFAULT_GRAPH_KWARGS` and :func:`default_serving_config` define
the repeat-graph RMAT mix and the arch config the serving benchmarks
simulate under. The host-throughput benchmark (``hostbench/``), the
cache-affinity sweep (:mod:`repro.analysis.affinity`) and the serving
tests import them from here.
"""

from __future__ import annotations

from repro.accel.config import ArchConfig

# The default mix: graphs large enough that Eq. 5 tuning dominates a
# cold request, served under a config whose damped, patient tuner takes
# realistically many rounds to converge (the regime where GNNIE-style
# decision caching pays).
DEFAULT_GRAPH_KWARGS = {"f2": 96}


def default_serving_config(n_pes=192):
    """The arch config the serving mix is simulated under."""
    return ArchConfig(
        n_pes=n_pes,
        hop=1,
        remote_switching=True,
        convergence_patience=4,
        switch_damping=0.7,
    )
