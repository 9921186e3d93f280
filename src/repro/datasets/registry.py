"""Dataset registry with in-process caching and graph fingerprinting.

Building the Reddit-scale adjacency takes seconds; benchmarks and tests
ask for the same dataset many times, so :func:`load_dataset` memoizes on
``(name, preset, seed)`` for the life of the process.

:func:`dataset_fingerprint` hashes exactly the dataset properties the
cycle models consume, giving the serving layer a content-addressed key:
two datasets with equal fingerprints produce identical accelerator
reports under any config, regardless of how they were named or built.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.datasets.specs import get_spec
from repro.datasets.synthetic import build_dataset
from repro.errors import DatasetError

_CACHE = {}


def load_dataset(name, preset="scaled", *, seed=7):
    """Return a cached :class:`~repro.datasets.synthetic.GcnDataset`.

    ``name`` must be one of the five paper datasets; ``preset`` is
    ``full``, ``scaled`` or ``tiny``. All randomness derives from
    ``seed``, so repeated calls are bit-identical. Features are
    materialized as :func:`~repro.datasets.synthetic.build_dataset`
    decides: everywhere but full-size Reddit.
    """
    spec = get_spec(name)  # raises DatasetError for unknown names
    if preset not in ("full", "scaled", "tiny"):
        raise DatasetError(
            f"unknown preset {preset!r}; expected full/scaled/tiny"
        )
    key = (spec.name, preset, int(seed))
    if key not in _CACHE:
        _CACHE[key] = build_dataset(spec.name, preset, seed=seed)
    return _CACHE[key]


def dataset_fingerprint(dataset):
    """Content hash of the workload-defining properties of a dataset.

    Covers the adjacency's per-row non-zero profile, both layer input
    profiles and the layer dimensions — the complete input surface of
    :class:`~repro.accel.GcnAccelerator`. Feature *values* are excluded
    on purpose: the cycle models are value-oblivious, so pattern-only and
    materialized builds of the same graph fingerprint identically.

    The digest is memoized on the dataset object (datasets are frozen,
    so it can never go stale).
    """
    cached = getattr(dataset, "_fingerprint", None)
    if cached is not None:
        return cached
    f1, f2, f3 = dataset.feature_dims
    digest = hashlib.blake2b(digest_size=16)
    digest.update(np.int64(dataset.n_nodes).tobytes())
    digest.update(np.array([f1, f2, f3], dtype=np.int64).tobytes())
    for arr in (
        dataset.adjacency_row_nnz(),
        np.asarray(dataset.x1_row_nnz, dtype=np.int64),
        np.asarray(dataset.x2_row_nnz, dtype=np.int64),
    ):
        digest.update(np.ascontiguousarray(arr).tobytes())
    fingerprint = digest.hexdigest()
    object.__setattr__(dataset, "_fingerprint", fingerprint)
    return fingerprint

