"""Table 1: sparsity and dimensions of the GCN matrices per dataset.

Regenerates the paper's profiling table from the synthetic datasets:
density of A / W / X1 / X2 and the node / feature dimensions. X2's
density is measured by actually running the reference forward pass when
features are materialized, otherwise the Table 1 forecast is reported.
"""

from __future__ import annotations

from repro.analysis.report import ascii_table
from repro.datasets.registry import load_dataset
from repro.datasets.specs import dataset_names
from repro.model.gcn import build_model


def table1_profile(*, preset="scaled", seed=7, datasets=None):
    """Build the Table 1 rows; returns ``(rows, rendered_text)``.

    Each row is a dict with the dataset name, densities (fractions) and
    dimensions. The layer-2 input density is measured by running the
    reference model when the dataset's features are materialized, and
    is the spec forecast otherwise.
    """
    if datasets is None:
        datasets = dataset_names()
    rows = []
    for name in datasets:
        ds = load_dataset(name, preset, seed=seed)
        f1, f2, f3 = ds.feature_dims
        x1_density = float(ds.x1_row_nnz.sum()) / (ds.n_nodes * f1)
        if ds.has_numeric_features:
            trace = build_model(ds).forward(ds.features)
            x2_density = trace.layer_results[0].output_density
        else:
            x2_density = float(ds.x2_row_nnz.sum()) / (ds.n_nodes * f2)
        rows.append(
            {
                "dataset": ds.name,
                "preset": preset,
                "a_density": ds.adjacency.density,
                "w_density": 1.0,
                "x1_density": x1_density,
                "x2_density": x2_density,
                "nodes": ds.n_nodes,
                "f1": f1,
                "f2": f2,
                "f3": f3,
            }
        )
    text = ascii_table(
        [
            "dataset", "A dens", "W dens", "X1 dens", "X2 dens",
            "nodes", "F1", "F2", "F3",
        ],
        [
            [
                r["dataset"],
                f"{r['a_density']:.4%}",
                f"{r['w_density']:.0%}",
                f"{r['x1_density']:.3%}",
                f"{r['x2_density']:.1%}",
                r["nodes"],
                r["f1"],
                r["f2"],
                r["f3"],
            ]
            for r in rows
        ],
        title=f"Table 1 — matrix profiling ({preset} presets)",
    )
    return rows, text
