"""Dataset assembly: normalization, features, specs, registry."""

import numpy as np
import pytest

from repro.datasets import (
    GcnDataset,
    add_self_loops,
    build_dataset,
    dataset_names,
    dense_weight_matrix,
    gcn_normalize,
    get_spec,
    load_dataset,
    sample_row_nnz,
    sparse_feature_matrix,
)
from repro.datasets import synthetic
from repro.errors import DatasetError, ShapeError
from repro.sparse import CooMatrix


class TestNormalize:
    def test_self_loops_added(self):
        adj = CooMatrix((3, 3), [0, 1], [1, 2], [1.0, 1.0])
        with_loops = add_self_loops(adj)
        dense = with_loops.to_dense()
        assert np.all(np.diag(dense) == 1.0)

    def test_existing_loop_incremented(self):
        adj = CooMatrix((2, 2), [0], [0], [2.0])
        assert add_self_loops(adj).to_dense()[0, 0] == 3.0

    def test_normalization_formula(self):
        adj = CooMatrix((2, 2), [0, 1], [1, 0], [1.0, 1.0])
        norm = gcn_normalize(adj).to_dense()
        # A + I = [[1,1],[1,1]], D = diag(2,2) -> all entries 1/2.
        assert np.allclose(norm, np.full((2, 2), 0.5))

    def test_spectral_radius_bounded(self, tiny_cora):
        # Symmetric normalization bounds the spectral radius by 1.
        dense = tiny_cora.adjacency.to_dense()
        top = np.abs(np.linalg.eigvalsh(dense)).max()
        assert top <= 1.0 + 1e-9

    def test_non_square_raises(self):
        with pytest.raises(ShapeError):
            gcn_normalize(CooMatrix.empty((2, 3)))

    def test_symmetry_preserved(self, tiny_cora):
        dense = tiny_cora.adjacency.to_dense()
        assert np.allclose(dense, dense.T)


class TestFeatures:
    def test_density_close_to_target(self):
        feats = sparse_feature_matrix(500, 200, 0.05, rng=1)
        assert feats.density == pytest.approx(0.05, rel=0.25)

    def test_values_positive(self):
        feats = sparse_feature_matrix(100, 50, 0.1, rng=2)
        assert feats.vals.min() > 0

    def test_row_skew_zero_uniform(self):
        counts = sample_row_nnz(1000, 100, 0.1, rng=3, row_skew=0.0)
        assert counts.std() == 0

    def test_row_skew_positive_varies(self):
        counts = sample_row_nnz(1000, 100, 0.1, rng=4, row_skew=1.0)
        assert counts.std() > 0

    def test_counts_clipped_to_columns(self):
        counts = sample_row_nnz(100, 10, 0.99, rng=5, row_skew=2.0)
        assert counts.max() <= 10

    def test_weight_matrix_shape_and_scale(self):
        w = dense_weight_matrix(64, 16, rng=6)
        assert w.shape == (64, 16)
        limit = np.sqrt(6.0 / 80)
        assert np.abs(w).max() <= limit


class TestSpecs:
    def test_five_datasets(self):
        assert dataset_names() == [
            "cora", "citeseer", "pubmed", "nell", "reddit",
        ]

    def test_table1_dimensions(self):
        spec = get_spec("cora").full
        assert (spec.nodes, spec.f1, spec.f2, spec.f3) == (2708, 1433, 16, 7)
        spec = get_spec("nell").full
        assert (spec.nodes, spec.f1, spec.f2, spec.f3) == (
            65755, 61278, 64, 186,
        )
        spec = get_spec("reddit").full
        assert (spec.nodes, spec.f1) == (232965, 602)

    def test_case_insensitive(self):
        assert get_spec("CORA").name == "cora"

    def test_unknown_raises(self):
        with pytest.raises(DatasetError):
            get_spec("imagenet")

    def test_unknown_preset_raises(self):
        with pytest.raises(DatasetError):
            get_spec("cora").preset("huge")

    def test_mean_degree_preserved_in_scaled_reddit(self):
        spec = get_spec("reddit")
        full_degree = spec.full.mean_degree
        scaled_degree = spec.scaled.mean_degree
        assert scaled_degree == pytest.approx(full_degree, rel=0.35)


class TestBuildDataset:
    def test_summary_mentions_name(self, tiny_cora):
        assert "cora" in tiny_cora.summary()

    def test_deterministic(self):
        a = build_dataset("cora", "tiny", seed=11)
        b = build_dataset("cora", "tiny", seed=11)
        assert a.adjacency == b.adjacency
        assert np.array_equal(a.weights[0], b.weights[0])

    def test_seed_changes_graph(self):
        a = build_dataset("cora", "tiny", seed=11)
        b = build_dataset("cora", "tiny", seed=12)
        assert a.adjacency != b.adjacency

    def test_density_near_spec(self, tiny_cora):
        spec = get_spec("cora").tiny
        assert tiny_cora.adjacency.density == pytest.approx(
            spec.a_density, rel=0.5
        )

    def test_feature_dims(self, tiny_cora):
        f1, f2, f3 = tiny_cora.feature_dims
        spec = get_spec("cora").tiny
        assert (f1, f2, f3) == (spec.f1, spec.f2, spec.f3)

    def test_pattern_only_mode(self, monkeypatch):
        # Past the materialization limit (only full Reddit is, at the
        # real one) a dataset keeps X1's row-nnz profile, not values.
        monkeypatch.setattr(synthetic, "_MATERIALIZE_NNZ_LIMIT", 0)
        ds = build_dataset("cora", "tiny", seed=5)
        assert not ds.has_numeric_features
        assert ds.features is None
        assert ds.x1_row_nnz.sum() > 0

    def test_nell_is_most_skewed(self, tiny_cora, tiny_nell):
        from repro.sparse import distribution_stats

        cora_gini = distribution_stats(tiny_cora.adjacency.row_nnz()).gini
        nell_gini = distribution_stats(tiny_nell.adjacency.row_nnz()).gini
        assert nell_gini > cora_gini


class TestRegistry:
    def test_cache_returns_same_object(self):
        a = load_dataset("cora", "tiny", seed=99)
        b = load_dataset("cora", "tiny", seed=99)
        assert a is b

    def test_cache_key_includes_seed(self):
        a = load_dataset("cora", "tiny", seed=98)
        b = load_dataset("cora", "tiny", seed=97)
        assert a is not b

    def test_unknown_preset_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("cora", "gigantic")

    def test_unknown_name_raises(self):
        with pytest.raises(DatasetError):
            load_dataset("mnist")
