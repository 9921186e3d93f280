"""Synthetic dataset substrate calibrated to the paper's Table 1.

The paper evaluates on Cora, Citeseer, Pubmed, Nell and Reddit. Those
datasets are public, but this reproduction runs offline, so we generate
synthetic stand-ins whose *load-bearing properties* match Table 1 and
Figs. 1/13: node count, adjacency density, power-law row-nnz skew (with
Nell's hub cluster), feature dimensions and feature sparsity per layer.
Every experiment in the paper is driven by exactly these properties.

Three presets per dataset:

* ``full``   — the published sizes (Reddit: ~24M non-zeros);
* ``scaled`` — tractable-everywhere sizes with the same skew profile
  (default for the benchmark suite);
* ``tiny``   — a few hundred nodes, for unit tests and the detailed
  cycle-level simulator.
"""

from repro.datasets.specs import (
    DatasetSpec,
    PresetSpec,
    DATASET_SPECS,
    dataset_names,
    get_spec,
)
from repro.datasets.rmat import rmat_edges
from repro.datasets.normalize import gcn_normalize, add_self_loops
from repro.datasets.features import (
    sparse_feature_matrix,
    dense_weight_matrix,
    sample_row_nnz,
)
from repro.datasets.synthetic import GcnDataset, build_dataset
from repro.datasets.registry import dataset_fingerprint, load_dataset

__all__ = [
    "DatasetSpec",
    "PresetSpec",
    "DATASET_SPECS",
    "dataset_names",
    "get_spec",
    "rmat_edges",
    "dataset_fingerprint",
    "gcn_normalize",
    "add_self_loops",
    "sparse_feature_matrix",
    "dense_weight_matrix",
    "sample_row_nnz",
    "GcnDataset",
    "build_dataset",
    "load_dataset",
]
