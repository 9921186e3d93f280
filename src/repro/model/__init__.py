"""Numpy reference implementation of spectral GCN inference (Eq. 1).

This is the *semantics* of the workload: ``X(l+1) = sigma(A X(l) W(l))``.
The accelerator simulators must produce numerically identical results
(up to accumulation-order rounding), which the test suite enforces.
The :mod:`repro.model.ordering` module reproduces the paper's Table 2
computation-order analysis, the argument for evaluating ``A (X W)``.
"""

from repro.model.activations import identity, relu, row_softmax
from repro.model.layers import GcnLayer, LayerResult
from repro.model.gcn import GcnModel, ForwardTrace, build_model
from repro.model.ordering import (
    OrderingOps,
    count_ops_a_xw,
    count_ops_ax_w,
    layer_ordering_ops,
)

__all__ = [
    "identity",
    "relu",
    "row_softmax",
    "GcnLayer",
    "LayerResult",
    "GcnModel",
    "ForwardTrace",
    "build_model",
    "OrderingOps",
    "count_ops_a_xw",
    "count_ops_ax_w",
    "layer_ordering_ops",
]
