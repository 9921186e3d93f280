"""Reference GCN model: activations, layers, multi-layer forward."""

import numpy as np
import pytest

from repro.errors import ShapeError
from repro.model import GcnModel, build_model
from repro.model.activations import get_activation, identity, relu, row_softmax
from repro.model.layers import GcnLayer
from repro.sparse import CooMatrix


@pytest.fixture
def tiny_graph(rng):
    dense = (rng.random((12, 12)) < 0.25).astype(float)
    dense = np.maximum(dense, dense.T)  # symmetric
    from repro.datasets import gcn_normalize

    return gcn_normalize(CooMatrix.from_dense(dense))


@pytest.fixture
def tiny_features(rng):
    x = rng.normal(size=(12, 8))
    x[rng.random(x.shape) > 0.4] = 0.0
    return x


class TestActivations:
    def test_relu(self):
        assert np.array_equal(relu([-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])

    def test_identity(self):
        x = np.array([-1.0, 3.0])
        assert np.array_equal(identity(x), x)

    def test_softmax_rows_sum_to_one(self, rng):
        x = rng.normal(size=(5, 4)) * 10
        probs = row_softmax(x)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert probs.min() >= 0

    def test_softmax_stable_with_large_values(self):
        probs = row_softmax(np.array([[1e4, 1e4 + 1.0]]))
        assert np.isfinite(probs).all()

    def test_get_activation_unknown(self):
        with pytest.raises(KeyError):
            get_activation("swish")


class TestGcnLayer:
    def test_orders_agree_dense_features(self, tiny_graph, tiny_features, rng):
        w = rng.normal(size=(8, 4))
        layer = GcnLayer(tiny_graph, w)
        a = layer.forward(tiny_features)
        b = layer.forward_ax_w(tiny_features)
        assert np.allclose(a.output, b.output)

    def test_orders_agree_sparse_features(self, tiny_graph, tiny_features, rng):
        w = rng.normal(size=(8, 4))
        layer = GcnLayer(tiny_graph, w)
        sparse_x = CooMatrix.from_dense(tiny_features)
        a = layer.forward(sparse_x)
        b = layer.forward(tiny_features)
        assert np.allclose(a.output, b.output)

    def test_matches_direct_numpy(self, tiny_graph, tiny_features, rng):
        w = rng.normal(size=(8, 4))
        layer = GcnLayer(tiny_graph, w)
        expected = np.maximum(
            tiny_graph.to_dense() @ (tiny_features @ w), 0.0
        )
        assert np.allclose(layer.forward(tiny_features).output, expected)

    def test_relu_sparsifies(self, tiny_graph, tiny_features, rng):
        w = rng.normal(size=(8, 4))
        result = GcnLayer(tiny_graph, w).forward(tiny_features)
        assert 0.0 < result.output_density < 1.0

    def test_xw_intermediate_exposed(self, tiny_graph, tiny_features, rng):
        w = rng.normal(size=(8, 4))
        result = GcnLayer(tiny_graph, w).forward(tiny_features)
        assert np.allclose(result.xw, tiny_features @ w)

    def test_feature_dim_mismatch_raises(self, tiny_graph, rng):
        layer = GcnLayer(tiny_graph, rng.normal(size=(8, 4)))
        with pytest.raises(ShapeError):
            layer.forward(np.ones((12, 5)))

    def test_non_square_adjacency_raises(self, rng):
        adj = CooMatrix.empty((3, 4))
        with pytest.raises(ShapeError):
            GcnLayer(adj, rng.normal(size=(4, 2)))


class TestGcnModel:
    def test_two_layer_forward_shapes(self, tiny_graph, tiny_features, rng):
        model = GcnModel(
            tiny_graph,
            [rng.normal(size=(8, 6)), rng.normal(size=(6, 3))],
        )
        trace = model.forward(tiny_features)
        assert trace.probabilities.shape == (12, 3)
        assert len(trace.layer_results) == 2

    def test_orders_agree_end_to_end(self, tiny_graph, tiny_features, rng):
        model = GcnModel(
            tiny_graph,
            [rng.normal(size=(8, 6)), rng.normal(size=(6, 3))],
        )
        a = model.forward(tiny_features)
        b = model.forward_ax_w(tiny_features)
        assert np.allclose(a.probabilities, b.probabilities)

    def test_layer_input_density(self, tiny_graph, tiny_features, rng):
        model = GcnModel(
            tiny_graph,
            [rng.normal(size=(8, 6)), rng.normal(size=(6, 3))],
        )
        trace = model.forward(tiny_features)
        assert 0 <= trace.layer_input_density(1) <= 1
        with pytest.raises(ValueError):
            trace.layer_input_density(0)

    def test_mismatched_chain_raises(self, tiny_graph, rng):
        with pytest.raises(ShapeError):
            GcnModel(
                tiny_graph,
                [rng.normal(size=(8, 6)), rng.normal(size=(5, 3))],
            )

    def test_empty_weights_raises(self, tiny_graph):
        with pytest.raises(ShapeError):
            GcnModel(tiny_graph, [])

    def test_build_model_from_dataset(self, tiny_cora):
        model = build_model(tiny_cora)
        trace = model.forward(tiny_cora.features)
        assert trace.probabilities.shape == (
            tiny_cora.n_nodes,
            tiny_cora.feature_dims[2],
        )
