"""Dataset specifications transcribed from the paper's Table 1.

Each :class:`DatasetSpec` records the published node count, adjacency
density, GCN layer dimensions (F1, F2, F3) and feature densities, plus
the generator's skew profile chosen so that the synthetic graph's
imbalance matches what the paper reports (e.g. Nell's non-zeros are
"quite clustered", giving the baseline only 13% PE utilization, while
Reddit "by itself is already very balanced" at 92%).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import DatasetError


@dataclass(frozen=True)
class PresetSpec:
    """Size parameters for one preset (full / scaled / tiny) of a dataset."""

    nodes: int
    a_density: float
    """Target density of the normalized adjacency (A + I included)."""
    f1: int
    f2: int
    f3: int
    x1_density: float
    x2_density: float
    """Observed density of the layer-2 input features (Table 1, X2 row)."""

    @property
    def a_nnz_target(self):
        """Target non-zero count of the normalized adjacency matrix."""
        return max(int(round(self.a_density * self.nodes * self.nodes)), self.nodes)

    @property
    def mean_degree(self):
        """Average non-zeros per adjacency row (including the self-loop)."""
        return self.a_nnz_target / self.nodes


@dataclass(frozen=True)
class DatasetSpec:
    """A named dataset with its presets and generator skew profile.

    ``rmat_abcd`` are the RMAT quadrant probabilities: the farther from
    uniform (0.25 each), the heavier the power-law tail. ``hub_fraction``
    routes that share of edges into a small clustered node set, which is
    how we reproduce Nell's extreme concentration.
    """

    name: str
    full: PresetSpec
    scaled: PresetSpec
    tiny: PresetSpec
    rmat_abcd: tuple = (0.45, 0.22, 0.22, 0.11)
    hub_fraction: float = 0.0
    hub_nodes: int = 0
    shuffle_fraction: float = 0.5
    """Fraction of node ids scattered after generation. RMAT concentrates
    hubs at low indices (remote imbalance, paper Fig. 2B); shuffling a
    fraction of ids converts that into local imbalance (Fig. 2A). Lower
    values keep the graph clustered."""
    notes: str = ""

    def preset(self, preset_name):
        """Return the :class:`PresetSpec` for ``preset_name``."""
        try:
            return getattr(self, preset_name)
        except AttributeError:
            raise DatasetError(
                f"unknown preset {preset_name!r}; expected full/scaled/tiny"
            )


def _tiny(full, nodes=300, f1=64):
    """Derive a tiny preset from a full one, preserving mean degree."""
    density = min(full.mean_degree / nodes, 0.5)
    return PresetSpec(
        nodes=nodes,
        a_density=density,
        f1=f1,
        f2=full.f2,
        f3=full.f3,
        x1_density=max(full.x1_density, 4.0 / f1),
        x2_density=full.x2_density,
    )


_CORA_FULL = PresetSpec(
    nodes=2708, a_density=0.0018, f1=1433, f2=16, f3=7,
    x1_density=0.0127, x2_density=0.780,
)
_CITESEER_FULL = PresetSpec(
    nodes=3327, a_density=0.0011, f1=3703, f2=16, f3=6,
    x1_density=0.0085, x2_density=0.891,
)
_PUBMED_FULL = PresetSpec(
    nodes=19717, a_density=0.00028, f1=500, f2=16, f3=3,
    x1_density=0.100, x2_density=0.776,
)
_NELL_FULL = PresetSpec(
    nodes=65755, a_density=0.000073, f1=61278, f2=64, f3=186,
    x1_density=0.00011, x2_density=0.864,
)
_REDDIT_FULL = PresetSpec(
    nodes=232965, a_density=0.00043, f1=602, f2=64, f3=41,
    x1_density=0.516, x2_density=0.600,
)

DATASET_SPECS = {
    "cora": DatasetSpec(
        name="cora",
        full=_CORA_FULL,
        # Cora is small; the scaled preset is the full preset.
        scaled=_CORA_FULL,
        tiny=_tiny(_CORA_FULL),
        rmat_abcd=(0.52, 0.19, 0.19, 0.10),
        shuffle_fraction=0.5,
        notes="moderate power-law; baseline utilization ~53% in the paper",
    ),
    "citeseer": DatasetSpec(
        name="citeseer",
        full=_CITESEER_FULL,
        scaled=_CITESEER_FULL,
        tiny=_tiny(_CITESEER_FULL),
        rmat_abcd=(0.45, 0.22, 0.22, 0.11),
        shuffle_fraction=0.65,
        notes="mild power-law; baseline utilization ~71%",
    ),
    "pubmed": DatasetSpec(
        name="pubmed",
        full=_PUBMED_FULL,
        scaled=_PUBMED_FULL,
        tiny=_tiny(_PUBMED_FULL),
        rmat_abcd=(0.55, 0.19, 0.19, 0.07),
        shuffle_fraction=0.35,
        notes="moderate power-law; baseline utilization ~69%",
    ),
    "nell": DatasetSpec(
        name="nell",
        full=_NELL_FULL,
        # Keep the full graph (316K nnz is cheap); shrink only the very
        # wide layer-1 feature dimension, preserving non-zeros per row.
        scaled=replace(_NELL_FULL, f1=4096, x1_density=0.00164),
        tiny=_tiny(_NELL_FULL, nodes=400),
        rmat_abcd=(0.62, 0.16, 0.16, 0.06),
        hub_fraction=0.55,
        hub_nodes=200,
        shuffle_fraction=0.05,
        notes=(
            "extremely clustered (paper: baseline utilization 13%, one or "
            "two PEs extremely over-utilized); needs 2/3-hop sharing"
        ),
    ),
    "reddit": DatasetSpec(
        name="reddit",
        full=_REDDIT_FULL,
        # Preserve the ~100 nnz/row mean degree at 16K nodes.
        scaled=PresetSpec(
            nodes=16384, a_density=0.0061, f1=602, f2=64, f3=41,
            x1_density=0.516, x2_density=0.600,
        ),
        tiny=_tiny(_REDDIT_FULL, nodes=400),
        rmat_abcd=(0.35, 0.25, 0.25, 0.15),
        shuffle_fraction=0.6,
        notes="heavy but near-balanced; baseline utilization ~92%",
    ),
}


def dataset_names():
    """The five evaluated dataset names, in the paper's order."""
    return ["cora", "citeseer", "pubmed", "nell", "reddit"]


def get_spec(name):
    """Look up a :class:`DatasetSpec` by name (case-insensitive)."""
    try:
        return DATASET_SPECS[name.lower()]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; expected one of {dataset_names()}"
        )
