"""Multi-layer GCN reference model.

Chains :class:`~repro.model.layers.GcnLayer` objects over a shared
normalized adjacency, with ReLU between layers and a row softmax over
the output logits, matching the 2-layer networks of Kipf & Welling that
the paper evaluates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.model.activations import row_softmax
from repro.model.layers import GcnLayer
from repro.sparse.coo import CooMatrix


@dataclass(frozen=True)
class ForwardTrace:
    """All intermediates of a full forward pass.

    ``layer_results`` holds one :class:`LayerResult` per layer;
    ``logits`` is the final pre-softmax output, ``probabilities`` the
    softmax-normalized classification output.
    """

    layer_results: list
    logits: np.ndarray
    probabilities: np.ndarray

    @property
    def output(self):
        """Alias for the classification probabilities."""
        return self.probabilities

    def layer_input_density(self, layer_index):
        """Density of the input features to ``layer_index`` (X1, X2, ...).

        Layer 0's input density is not recorded here (it is a property of
        the dataset); for deeper layers it is the previous layer's output
        density — the quantity Table 1 reports as the X2 row.
        """
        if layer_index == 0:
            raise ValueError("layer 0 input density belongs to the dataset")
        return self.layer_results[layer_index - 1].output_density


class GcnModel:
    """A multi-layer spectral GCN bound to one graph.

    Any number of layers is supported (the paper's intro motivates
    deeper GCNs, up to 152 layers); ``a_hops`` applies the paper's
    multi-hop aggregation ``A^k (X W)`` in every layer. The last layer's
    logits are row-softmaxed into the classification probabilities.
    """

    def __init__(self, adjacency, weights, *, a_hops=1):
        if not isinstance(adjacency, CooMatrix):
            raise ShapeError(
                f"adjacency must be CooMatrix, got {type(adjacency).__name__}"
            )
        if not weights:
            raise ShapeError("at least one weight matrix is required")
        self.layers = []
        for index, weight in enumerate(weights):
            is_last = index == len(weights) - 1
            activation = "identity" if is_last else "relu"
            self.layers.append(
                GcnLayer(
                    adjacency, weight, activation=activation, a_hops=a_hops
                )
            )
        for left, right in zip(self.layers, self.layers[1:]):
            if left.out_features != right.in_features:
                raise ShapeError(
                    f"layer dims do not chain: {left.out_features} -> "
                    f"{right.in_features}"
                )

    def forward(self, features):
        """Run full inference; returns a :class:`ForwardTrace`."""
        results = []
        current = features
        for layer in self.layers:
            result = layer.forward(current)
            results.append(result)
            current = result.output
        logits = results[-1].pre_activation
        return ForwardTrace(
            layer_results=results, logits=logits,
            probabilities=row_softmax(logits),
        )

    def forward_ax_w(self, features):
        """Run inference in the rejected (A X) W order (for equivalence tests)."""
        results = []
        current = features
        for layer in self.layers:
            result = layer.forward_ax_w(current)
            results.append(result)
            current = result.output
        logits = results[-1].pre_activation
        return ForwardTrace(
            layer_results=results, logits=logits,
            probabilities=row_softmax(logits),
        )


def build_model(dataset):
    """Construct a :class:`GcnModel` (softmax output) from a
    :class:`~repro.datasets.GcnDataset`."""
    return GcnModel(dataset.adjacency, dataset.weights)
