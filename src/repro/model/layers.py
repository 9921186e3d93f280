"""A single GCN layer with both computation orders.

``forward`` evaluates ``sigma(A @ (X @ W))`` — the order the paper
selects in Sec. 3.1 — while ``forward_ax_w`` evaluates the discarded
``sigma((A @ X) @ W)`` order. The two are algebraically identical, which
the test suite checks; Table 2 is about their very different costs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.model.activations import get_activation
from repro.sparse.convert import coo_to_csc, coo_to_csr
from repro.sparse.coo import CooMatrix
from repro.sparse.ops import spmm_csc_dense, spmm_csr_dense
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class LayerResult:
    """Intermediate products of one layer evaluation.

    ``xw`` is the dense product ``X @ W`` (the matrix whose columns the
    accelerator pipelines into the A-SPMM, Fig. 8); ``pre_activation`` is
    ``A @ XW``; ``output`` is ``sigma(pre_activation)``.
    """

    xw: np.ndarray
    pre_activation: np.ndarray
    output: np.ndarray

    @property
    def output_density(self):
        """Fraction of non-zeros in the activated output (X(l+1) density)."""
        return float(np.count_nonzero(self.output)) / self.output.size


class GcnLayer:
    """One spectral GCN layer bound to a normalized adjacency matrix.

    ``a_hops`` left-multiplies by A that many times — the paper's
    multi-hop aggregation: "when multi-hop neighboring information is to
    be collected, A can be multiplied twice or more (i.e., A^2, A^3)",
    giving the layer form ``sigma(A^k (X W))``.
    """

    def __init__(self, adjacency, weight, *, activation="relu", a_hops=1):
        if not isinstance(adjacency, CooMatrix):
            raise ShapeError(
                f"adjacency must be CooMatrix, got {type(adjacency).__name__}"
            )
        if adjacency.shape[0] != adjacency.shape[1]:
            raise ShapeError(f"adjacency must be square, got {adjacency.shape}")
        weight = np.asarray(weight, dtype=np.float64)
        if weight.ndim != 2:
            raise ShapeError(f"weight must be 2-D, got {weight.ndim}-D")
        self.adjacency = adjacency
        self.weight = weight
        self.a_hops = check_positive_int(a_hops, "a_hops")
        self.activation_name = activation
        self.activation = get_activation(activation)
        # The hardware keeps A resident in CSC (TDQ-2's native format).
        self._a_csc = coo_to_csc(adjacency)

    @property
    def in_features(self):
        """Input feature count (rows of W)."""
        return self.weight.shape[0]

    @property
    def out_features(self):
        """Output feature count (columns of W)."""
        return self.weight.shape[1]

    def forward(self, features):
        """Evaluate ``sigma(A^k @ (X @ W))`` and return a :class:`LayerResult`.

        ``features`` may be a dense array or a :class:`CooMatrix`; the
        sparse path mirrors the hardware's TDQ-1 engine (X sparse, W
        dense).
        """
        xw = self._times_weight(features)
        pre = xw
        for _hop in range(self.a_hops):
            pre = spmm_csc_dense(self._a_csc, pre)
        return LayerResult(xw=xw, pre_activation=pre, output=self.activation(pre))

    def forward_ax_w(self, features):
        """Evaluate the rejected order ``sigma((A^k @ X) @ W)``.

        Exists to demonstrate (and test) algebraic equivalence with
        :meth:`forward`; the op-count analysis in Table 2 shows why the
        hardware never runs this.
        """
        ax = self._to_dense(features)
        for _hop in range(self.a_hops):
            ax = spmm_csc_dense(self._a_csc, ax)
        pre = ax @ self.weight
        return LayerResult(xw=ax, pre_activation=pre, output=self.activation(pre))

    def _times_weight(self, features):
        """Compute X @ W with the sparse or dense kernel as appropriate."""
        if isinstance(features, CooMatrix):
            if features.shape[1] != self.in_features:
                raise ShapeError(
                    f"features have {features.shape[1]} columns, "
                    f"weight expects {self.in_features}"
                )
            return spmm_csr_dense(coo_to_csr(features), self.weight)
        dense = np.asarray(features, dtype=np.float64)
        if dense.ndim != 2 or dense.shape[1] != self.in_features:
            raise ShapeError(
                f"features must be (n, {self.in_features}), got {dense.shape}"
            )
        return dense @ self.weight

    def _to_dense(self, features):
        if isinstance(features, CooMatrix):
            return features.to_dense()
        return np.asarray(features, dtype=np.float64)
