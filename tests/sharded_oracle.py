"""Numerically exact sharded execution — the cluster's correctness oracle.

The cycle models in :mod:`repro.cluster.multichip` only predict *how
fast* a sharded run is; this module proves the sharding itself computes
the right answer. It is test code: the exact-reassembly property suite
(``tests/test_prop_cluster.py``) is its caller, and
``tests/test_cluster_partition.py`` checks its row gather and halo
sets. Every function executes shard-locally — a chip touches only its
own rows plus the halo rows :func:`halo_rows` derives from the plan's
row owners and the adjacency — and reassembles per-chip outputs into
the global result.

The reassembly guarantee is exact, not approximate: every kernel here
accumulates each output element's products in a fixed order that does
not depend on how many rows the call sees — the sparse kernels by the
ascending-column ordering :func:`take_rows` preserves, the dense
``X @ W`` product by using an unoptimized ``einsum`` (a sequential
per-element C reduction) instead of BLAS, whose block/SIMD strategy
shifts with the operand shape and can move a result by 1 ulp between a
50-row and a 400-row call. Sharded outputs
are therefore **bit-for-bit** equal to :func:`reference_forward` (the
same pipeline on one chip) for every partitioner and shard count, and
bit-for-bit equal to :class:`~repro.model.gcn.GcnModel` on every pure
sparse-kernel stage; stages whose *input* went through the model's
BLAS dense product agree with the model to float64 round-off. The
property suite asserts all three.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError, ShapeError
from repro.cluster.partition import ShardPlan, _as_csr
from repro.model.activations import get_activation, row_softmax
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix
from repro.sparse.ops import spmm_csr_dense


def take_rows(csr, rows):
    """Gather an arbitrary row subset of ``csr`` as a new CsrMatrix.

    ``rows`` is a 1-D array of row indices (duplicates allowed); output
    row ``i`` is input row ``rows[i]``, with per-row entry order
    preserved, so a sharded SPMM over the gathered rows accumulates
    every output element in the unsharded kernel's order.
    """
    rows = np.asarray(rows, dtype=np.int64).ravel()
    if rows.size and (rows.min() < 0 or rows.max() >= csr.shape[0]):
        raise ShapeError("row index out of range in take_rows")
    counts = csr.indptr[rows + 1] - csr.indptr[rows]
    indptr = np.concatenate(([0], np.cumsum(counts)))
    n_entries = int(indptr[-1])
    if n_entries:
        # Vectorized ragged gather: for each selected row, a ramp over
        # its entry run starting at the row's indptr offset.
        run_starts = indptr[:-1]
        offsets = np.repeat(csr.indptr[rows], counts)
        ramp = np.arange(n_entries) - np.repeat(run_starts, counts)
        flat = offsets + ramp
    else:
        flat = np.empty(0, dtype=np.int64)
    return CsrMatrix(
        (rows.size, csr.shape[1]), indptr, csr.col_ids[flat], csr.vals[flat]
    )


def halo_rows(csr, plan):
    """Per chip, the sorted rows its block of ``csr`` references but
    another chip owns under ``plan``: the rows it must receive."""
    row_owner = plan.row_owner()
    dest = row_owner[csr.expand_rows()]
    remote = dest != row_owner[csr.col_ids]
    return [np.unique(csr.col_ids[remote & (dest == chip)])
            for chip in range(plan.n_chips)]


def _compact_chip_block(csr, rows, needed):
    """The chip's adjacency block in the compacted column space.

    ``needed`` must be a sorted superset of the columns referenced by
    ``A[rows, :]`` (the chip's local + halo rows). The column remap to
    the compacted index space preserves within-row entry order, so the
    per-element accumulation order — and therefore every output bit —
    matches the unsharded kernel. Depends only on the adjacency pattern
    and the plan, so callers build it once and reuse it across layers
    and hops.
    """
    block = take_rows(csr, rows)
    local = np.searchsorted(needed, block.col_ids)
    if local.size and (
        local.max() >= needed.size or
        np.any(needed[local] != block.col_ids)
    ):
        raise ConfigError(
            "halo set does not cover the shard's referenced rows"
        )
    return CsrMatrix(
        (rows.size, needed.size), block.indptr, local, block.vals
    )


def _chip_spmm(csr, rows, needed, b_dense):
    """Rows ``rows`` of ``A @ B`` touching only ``needed`` rows of B."""
    compact = _compact_chip_block(csr, rows, needed)
    return spmm_csr_dense(compact, b_dense[needed])


def sharded_spmm(adjacency, b_dense, plan):
    """Compute ``A @ B`` shard-by-shard under ``plan``; returns dense.

    Each chip multiplies its adjacency row block against only the
    ``B`` rows it owns plus its halo rows — the access pattern of a real
    distributed SpMM — and the per-chip outputs are scattered back into
    global row order. Bit-for-bit equal to
    :func:`~repro.sparse.ops.spmm_csr_dense` on the whole matrix.
    """
    if not isinstance(plan, ShardPlan):
        raise ConfigError(
            f"plan must be ShardPlan, got {type(plan).__name__}"
        )
    csr = _as_csr(adjacency)
    b_dense = np.asarray(b_dense, dtype=np.float64)
    if b_dense.ndim != 2 or b_dense.shape[0] != csr.shape[1]:
        raise ShapeError(
            f"B must be 2-D with {csr.shape[1]} rows, got {b_dense.shape}"
        )
    if csr.shape[0] != plan.n_rows:
        raise ConfigError(
            f"plan covers {plan.n_rows} rows but A has {csr.shape[0]}"
        )
    halo = halo_rows(csr, plan)
    out = np.zeros((csr.shape[0], b_dense.shape[1]))
    for chip in range(plan.n_chips):
        rows = plan.chip_rows(chip)
        needed = np.union1d(rows, halo[chip])
        out[rows] = _chip_spmm(csr, rows, needed, b_dense)
    return out


def sharded_gcn_forward(adjacency, weights, features, plan, *, a_hops=1,
                        final_softmax=True):
    """Full sharded GCN inference; returns ``(logits, probabilities)``.

    Mirrors :meth:`repro.model.gcn.GcnModel.forward` layer by layer —
    ``sigma(A^k (X W))`` with ReLU between layers — but executes each
    layer shard-locally under ``plan``:

    1. every chip computes ``X W`` for its own rows (no communication —
       feature rows are co-located with the output rows that need them);
    2. each aggregation hop is one halo exchange (each chip gathers its
       halo rows of the current intermediate) followed by a local
       block SpMM.

    ``features`` may be a :class:`CooMatrix` (layer-1 sparse input) or a
    dense array. The returned logits/probabilities are bit-for-bit
    equal to :func:`reference_forward` for every plan (all kernels are
    row-count-independent — see the module docstring), and match
    :class:`~repro.model.gcn.GcnModel` to float64 round-off (exactly,
    wherever no BLAS dense product is involved).
    """
    if not isinstance(plan, ShardPlan):
        raise ConfigError(
            f"plan must be ShardPlan, got {type(plan).__name__}"
        )
    csr = _as_csr(adjacency)
    if csr.shape[0] != csr.shape[1] or csr.shape[0] != plan.n_rows:
        raise ConfigError(
            f"adjacency {csr.shape} does not match plan over "
            f"{plan.n_rows} rows"
        )
    if not weights:
        raise ConfigError("at least one weight matrix is required")
    halo = halo_rows(csr, plan)
    chip_rows = [plan.chip_rows(chip) for chip in range(plan.n_chips)]
    chip_needed = [
        np.union1d(rows, halo[chip])
        for chip, rows in enumerate(chip_rows)
    ]
    # The compacted blocks depend only on (adjacency, plan): build them
    # once, reuse across every layer and hop.
    chip_blocks = [
        _compact_chip_block(csr, rows, needed)
        for rows, needed in zip(chip_rows, chip_needed)
    ]

    current = features
    pre = None
    for index, weight in enumerate(weights):
        weight = np.asarray(weight, dtype=np.float64)
        xw = np.zeros((plan.n_rows, weight.shape[1]))
        for chip, rows in enumerate(chip_rows):
            xw[rows] = _shard_times_weight(current, rows, weight)
        pre = xw
        for _hop in range(a_hops):
            nxt = np.zeros_like(pre)
            for chip, rows in enumerate(chip_rows):
                nxt[rows] = spmm_csr_dense(
                    chip_blocks[chip], pre[chip_needed[chip]]
                )
            pre = nxt
        is_last = index == len(weights) - 1
        activation = get_activation("identity" if is_last else "relu")
        current = activation(pre)
    logits = pre
    probabilities = row_softmax(logits) if final_softmax else logits
    return logits, probabilities


def reference_forward(adjacency, weights, features, *, a_hops=1,
                      final_softmax=True):
    """The single-chip reference: the sharded pipeline on one shard.

    This is the baseline the acceptance guarantee is stated against:
    :func:`sharded_gcn_forward` under any plan returns bit-for-bit this
    result.
    """
    csr = _as_csr(adjacency)
    plan = ShardPlan(
        n_rows=csr.shape[0], n_chips=1,
        block_bounds=np.array([0, csr.shape[0]], dtype=np.int64),
        owner=np.zeros(1, dtype=np.int64),
    )
    return sharded_gcn_forward(
        csr, weights, features, plan, a_hops=a_hops,
        final_softmax=final_softmax,
    )


def _shard_times_weight(features, rows, weight):
    """Rows ``rows`` of ``X @ W`` using the layer kernels shard-locally.

    The dense path deliberately avoids BLAS (``@``): an unoptimized
    ``einsum`` reduces each output element sequentially over ``k``, so
    a row's result is identical whether it is computed in a 1-row or a
    whole-matrix call — the property the exact-reassembly guarantee
    rests on.
    """
    if isinstance(features, CooMatrix):
        if features.shape[1] != weight.shape[0]:
            raise ShapeError(
                f"features have {features.shape[1]} columns, weight "
                f"expects {weight.shape[0]}"
            )
        return spmm_csr_dense(take_rows(coo_to_csr(features), rows), weight)
    dense = np.asarray(features, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[1] != weight.shape[0]:
        raise ShapeError(
            f"features must be (n, {weight.shape[0]}), got {dense.shape}"
        )
    return np.einsum("ik,kj->ij", dense[rows], weight, optimize=False)
