"""Exact-reassembly property tests for sharded execution.

The cluster's core guarantee: for every partitioner and shard count,
shard-local execution over the halo sets reassembles the single-chip
result **bit-for-bit** — ``==``, not ``allclose``. Hypothesis drives
random graphs, dense operands, partitioners and shard counts through
:func:`sharded_spmm` (bit-equal to the unsharded sparse kernels) and
the full multi-layer :func:`sharded_gcn_forward` (bit-equal to
:func:`reference_forward` under every plan; equal to
:class:`~repro.model.gcn.GcnModel` exactly on pure sparse-kernel
stages and to float64 round-off beyond the model's BLAS dense
products — see the ``sharded_oracle`` module docstring, next to this
file).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import PARTITION_STRATEGIES, make_plan
from repro.model.gcn import GcnModel
from repro.serve import RmatGraphSpec
from repro.sparse import CooMatrix, coo_to_csr, spmm_csc_dense, coo_to_csc
from sharded_oracle import (
    reference_forward,
    sharded_gcn_forward,
    sharded_spmm,
)


@st.composite
def graphs_and_plans(draw):
    n = draw(st.integers(8, 64))
    nnz = draw(st.integers(n, 4 * n))
    seed = draw(st.integers(0, 2 ** 16))
    rng = np.random.default_rng(seed)
    adj = CooMatrix(
        (n, n),
        rng.integers(0, n, size=nnz),
        rng.integers(0, n, size=nnz),
        rng.standard_normal(nnz),
    )
    n_chips = draw(st.integers(1, min(6, n)))
    strategy = draw(st.sampled_from(PARTITION_STRATEGIES))
    blocks_per_chip = draw(st.integers(1, 6))
    plan = make_plan(
        coo_to_csr(adj).row_nnz(), n_chips, strategy=strategy,
        blocks_per_chip=blocks_per_chip,
    )
    k = draw(st.integers(1, 5))
    b_dense = rng.standard_normal((n, k))
    return adj, plan, b_dense


@settings(max_examples=60, deadline=None)
@given(graphs_and_plans())
def test_sharded_spmm_bit_exact(case):
    adj, plan, b_dense = case
    full = spmm_csc_dense(coo_to_csc(adj), b_dense)
    assert np.array_equal(sharded_spmm(adj, b_dense, plan), full)


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 2 ** 16),
    st.integers(2, 5),
    st.sampled_from(PARTITION_STRATEGIES),
    st.integers(1, 3),
)
def test_sharded_gcn_forward_bit_exact(seed, n_chips, strategy, a_hops):
    spec = RmatGraphSpec(
        n_nodes=96, avg_degree=6, f1=12, f2=8, f3=4, seed=seed
    )
    dataset = spec.build()
    rng = np.random.default_rng(seed)
    # Pattern-only serve graphs carry no numeric X1; make one.
    features = CooMatrix.from_dense(
        rng.standard_normal((96, 12))
        * (rng.random((96, 12)) < 0.3)
    )
    plan = make_plan(
        dataset.adjacency_row_nnz(), n_chips, strategy=strategy
    )
    logits, probs = sharded_gcn_forward(
        dataset.adjacency, dataset.weights, features, plan, a_hops=a_hops
    )
    ref_logits, ref_probs = reference_forward(
        dataset.adjacency, dataset.weights, features, a_hops=a_hops
    )
    assert np.array_equal(logits, ref_logits)
    assert np.array_equal(probs, ref_probs)
    # Against the (BLAS-based) reference model: exact up to its dense
    # layer-2 product, round-off exact overall.
    trace = GcnModel(
        dataset.adjacency, dataset.weights, a_hops=a_hops
    ).forward(features)
    np.testing.assert_allclose(logits, trace.logits, rtol=0, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2 ** 16), st.integers(2, 5), st.integers(1, 2))
def test_single_layer_matches_model_bit_for_bit(seed, n_chips, a_hops):
    # A 1-layer GCN over sparse features touches only the sparse
    # kernels, where the sharded pipeline and the reference model are
    # bit-identical (no BLAS involved).
    rng = np.random.default_rng(seed)
    n, f_in, f_out = 64, 10, 6
    adj = CooMatrix.from_dense(
        rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.1)
    )
    features = CooMatrix.from_dense(
        rng.standard_normal((n, f_in)) * (rng.random((n, f_in)) < 0.4)
    )
    weights = [rng.standard_normal((f_in, f_out))]
    trace = GcnModel(adj, weights, a_hops=a_hops).forward(features)
    plan = make_plan(coo_to_csr(adj).row_nnz(), n_chips)
    logits, probs = sharded_gcn_forward(
        adj, weights, features, plan, a_hops=a_hops
    )
    assert np.array_equal(logits, trace.logits)
    assert np.array_equal(probs, trace.probabilities)


class TestShardedForwardOnDatasets:
    @pytest.mark.parametrize("strategy", PARTITION_STRATEGIES)
    @pytest.mark.parametrize("n_chips", [2, 3, 5])
    def test_tiny_cora_exact(self, tiny_cora, strategy, n_chips):
        ref = reference_forward(
            tiny_cora.adjacency, tiny_cora.weights, tiny_cora.features
        )
        plan = make_plan(
            tiny_cora.adjacency_row_nnz(), n_chips, strategy=strategy
        )
        logits, probs = sharded_gcn_forward(
            tiny_cora.adjacency, tiny_cora.weights, tiny_cora.features,
            plan,
        )
        assert np.array_equal(logits, ref[0])
        assert np.array_equal(probs, ref[1])

    def test_tiny_nell_clustered_exact(self, tiny_nell):
        # Nell's clustered skew is the worst case for halo sets (hub
        # columns referenced by every shard).
        ref_logits, _ = reference_forward(
            tiny_nell.adjacency, tiny_nell.weights, tiny_nell.features
        )
        plan = make_plan(tiny_nell.adjacency_row_nnz(), 4)
        logits, _probs = sharded_gcn_forward(
            tiny_nell.adjacency, tiny_nell.weights, tiny_nell.features,
            plan,
        )
        assert np.array_equal(logits, ref_logits)

    def test_matches_reference_model_to_roundoff(self, tiny_nell):
        trace = GcnModel(tiny_nell.adjacency, tiny_nell.weights).forward(
            tiny_nell.features
        )
        plan = make_plan(tiny_nell.adjacency_row_nnz(), 4)
        logits, _ = sharded_gcn_forward(
            tiny_nell.adjacency, tiny_nell.weights, tiny_nell.features,
            plan,
        )
        np.testing.assert_allclose(
            logits, trace.logits, rtol=0, atol=1e-12
        )

    def test_dense_feature_input_exact(self, tiny_cora):
        # The dense-features path (layer-2-style input) through the
        # same plan machinery.
        dense = tiny_cora.features.to_dense()
        ref_logits, _ = reference_forward(
            tiny_cora.adjacency, tiny_cora.weights, dense
        )
        plan = make_plan(tiny_cora.adjacency_row_nnz(), 3)
        logits, _ = sharded_gcn_forward(
            tiny_cora.adjacency, tiny_cora.weights, dense, plan
        )
        assert np.array_equal(logits, ref_logits)
