"""Graph partitioning for sharded multi-chip execution.

A :class:`ShardPlan` splits a graph's output rows into contiguous *row
blocks* (the migration unit) and assigns each block to a chip. Blocks
are deliberately finer-grained than chips (``blocks_per_chip`` per chip
initially) so the chip-level rebalancer of
:mod:`repro.cluster.multichip` can migrate whole blocks between chips —
the paper's remote-switching idea lifted one level up the hierarchy,
with row blocks playing the role rows play inside one chip.

Two initial-assignment strategies are provided:

* ``"rows"`` — contiguous equal-row-count shards (the chip-level
  analogue of the paper's static equal-rows partition, Fig. 6); on
  power-law graphs whose hubs cluster in the index space this starves
  most chips, exactly like Fig. 2;
* ``"nnz"`` — a greedy sweep that hands consecutive blocks to a chip
  until its cumulative non-zero count reaches the equal-work target
  (GNNIE-style degree-aware partitioning), while keeping every shard a
  run of consecutive blocks.

:func:`halo_exchange` derives the inter-chip communication sets: for
every chip, which dense-operand rows (columns referenced by its
adjacency block) live on which other chip. Shard-local execution over
those sets reassembles the unpartitioned result exactly —
:mod:`repro.cluster.exec` proves it bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CeilingError, ConfigError
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import CooMatrix
from repro.sparse.csr import CsrMatrix
from repro.utils.validation import check_1d_int_array, check_positive_int

PARTITION_STRATEGIES = ("rows", "nnz")


def _read_only(values):
    """A read-only int64 copy of an integer array."""
    out = np.array(values, dtype=np.int64)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class ShardPlan:
    """A block-granular row partition of one graph across chips.

    ``block_bounds`` is the contiguous block structure (monotone,
    ``block_bounds[0] == 0``, ``block_bounds[-1] == n_rows``, no empty
    blocks); ``owner[b]`` is the chip that runs block ``b``. The plan is
    immutable — rebalancing produces a new plan via :meth:`with_owner`.
    Both arrays (and :meth:`row_owner`) are read-only copies, so a plan
    shared across the reports of many runs (see
    :class:`~repro.cluster.multichip.ShardedAccelerator`) cannot be
    rewritten through any of them.

    A chip's rows (:meth:`chip_rows`) are always enumerated in ascending
    global row order, so reassembling per-chip outputs by scattering
    into the global row index is deterministic regardless of how blocks
    migrated.
    """

    n_rows: int
    n_chips: int
    block_bounds: np.ndarray
    owner: np.ndarray

    def __post_init__(self):
        n_rows = check_positive_int(self.n_rows, "n_rows")
        n_chips = check_positive_int(self.n_chips, "n_chips")
        bounds = check_1d_int_array(self.block_bounds, "block_bounds")
        owner = check_1d_int_array(self.owner, "owner")
        if bounds.size < 2 or bounds[0] != 0 or bounds[-1] != n_rows:
            raise ConfigError(
                f"block_bounds must run 0..{n_rows}, got "
                f"{bounds[:1]}..{bounds[-1:]}"
            )
        if np.any(np.diff(bounds) <= 0):
            raise ConfigError("block_bounds must be strictly increasing")
        if owner.size != bounds.size - 1:
            raise ConfigError(
                f"owner must have one entry per block "
                f"({bounds.size - 1}), got {owner.size}"
            )
        if owner.min() < 0 or owner.max() >= n_chips:
            raise ConfigError("owner chip ids out of range")
        if np.unique(owner).size != n_chips:
            raise ConfigError(
                f"every one of the {n_chips} chips must own at least "
                f"one block"
            )
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_chips", n_chips)
        object.__setattr__(self, "block_bounds", _read_only(bounds))
        object.__setattr__(self, "owner", _read_only(owner))

    @property
    def n_blocks(self):
        """Number of migration-unit row blocks."""
        return self.owner.size

    @property
    def block_sizes(self):
        """Rows per block (length ``n_blocks``)."""
        return np.diff(self.block_bounds)

    def row_owner(self):
        """Chip id of every row (length ``n_rows``), memoized."""
        cached = self.__dict__.get("_row_owner")
        if cached is None:
            cached = np.repeat(self.owner, self.block_sizes)
            cached.setflags(write=False)
            object.__setattr__(self, "_row_owner", cached)
        return cached

    def chip_rows(self, chip):
        """Global row indices chip ``chip`` owns, ascending."""
        return np.flatnonzero(self.row_owner() == chip)

    def chip_row_counts(self):
        """Rows per chip (length ``n_chips``)."""
        return np.bincount(
            self.owner, weights=self.block_sizes, minlength=self.n_chips
        ).astype(np.int64)

    def block_weights(self, row_nnz):
        """Per-block total weight (e.g. nnz) from a per-row profile."""
        row_nnz = check_1d_int_array(row_nnz, "row_nnz")
        if row_nnz.size != self.n_rows:
            raise ConfigError(
                f"row_nnz must have length {self.n_rows}, got {row_nnz.size}"
            )
        return np.add.reduceat(row_nnz, self.block_bounds[:-1])

    def chip_loads(self, row_nnz):
        """Per-chip total weight under this plan (length ``n_chips``)."""
        return np.bincount(
            self.owner, weights=self.block_weights(row_nnz),
            minlength=self.n_chips,
        ).astype(np.int64)

    def with_owner(self, owner):
        """A new plan with the same blocks under a new block->chip map."""
        return ShardPlan(
            n_rows=self.n_rows,
            n_chips=self.n_chips,
            block_bounds=self.block_bounds,
            owner=owner,
        )

    def __repr__(self):
        return (
            f"ShardPlan(n_rows={self.n_rows}, n_chips={self.n_chips}, "
            f"n_blocks={self.n_blocks})"
        )


def check_capacities(capacities, n_chips):
    """Validate a per-chip relative-capacity vector; None -> all ones.

    Capacities are relative compute throughputs (work per unit time);
    only their ratios matter. A uniform vector is normalized to exact
    ones so the capacity-aware paths reduce bit-for-bit to the
    homogeneous arithmetic.
    """
    if capacities is None:
        return np.ones(n_chips, dtype=np.float64)
    capacities = np.asarray(capacities, dtype=np.float64)
    if capacities.shape != (n_chips,):
        raise ConfigError(
            f"capacities must have one entry per chip ({n_chips}), "
            f"got shape {capacities.shape}"
        )
    if not np.all(np.isfinite(capacities)) or np.any(capacities <= 0):
        raise ConfigError(
            f"capacities must be finite and > 0, got {capacities}"
        )
    if np.all(capacities == capacities[0]):
        return np.ones(n_chips, dtype=np.float64)
    return capacities


def check_row_ceilings(row_ceilings, n_chips, n_rows=None):
    """Validate a per-chip hard row-ceiling vector; None passes through.

    Ceilings are absolute row counts (not relative shares): chip ``c``
    may never own more than ``row_ceilings[c]`` rows, neither in the
    initial plan nor after any migration. When ``n_rows`` is given the
    aggregate feasibility check runs here: ceilings summing to fewer
    rows than the graph has raise :class:`CeilingError` immediately.
    """
    if row_ceilings is None:
        return None
    ceilings = np.asarray(row_ceilings, dtype=np.int64)
    if ceilings.shape != (n_chips,):
        raise ConfigError(
            f"row_ceilings must have one entry per chip ({n_chips}), "
            f"got shape {ceilings.shape}"
        )
    if np.any(ceilings <= 0):
        raise ConfigError(
            f"row_ceilings must be > 0, got {ceilings}"
        )
    if n_rows is not None and int(ceilings.sum()) < n_rows:
        raise CeilingError(
            f"row_ceilings sum to {int(ceilings.sum())} rows but the "
            f"graph has {n_rows}: no feasible plan exists"
        )
    return ceilings


def _ceiling_reach(bounds, start, ceiling):
    """Last block index ``e`` with ``bounds[e] - bounds[start] <= ceiling``.

    I.e. the largest stop boundary a chip starting at block ``start``
    can afford under its row ceiling. Blocks are near-equal size (they
    differ by at most one row), so the reachable stop is monotone in
    ``start`` — the interval logic of the constrained sweep relies on
    that.
    """
    limit = bounds[start] + ceiling
    return int(np.searchsorted(bounds, limit, side="right")) - 1


def _suffix_need(bounds, ceilings, n_chips):
    """Earliest start block from which chips ``c..n-1`` can cover the rest.

    ``need[c]`` is the minimal block index where chip ``c``'s shard may
    begin such that chips ``c``, ``c+1``, … together can still reach the
    final boundary without any of them exceeding its ceiling.
    ``need[n_chips]`` anchors the recursion at the last boundary.
    Raises :class:`CeilingError` when even starting at block 0 the
    suffix cannot cover the graph (infeasible granularity or ceilings).
    """
    n_blocks = bounds.size - 1
    smallest_block = int(np.diff(bounds).min())
    need = np.empty(n_chips + 1, dtype=np.int64)
    need[n_chips] = n_blocks
    for chip in range(n_chips - 1, -1, -1):
        if int(ceilings[chip]) < smallest_block:
            raise CeilingError(
                f"chip {chip} row ceiling {int(ceilings[chip])} is below "
                f"the block granularity ({smallest_block} rows): raise "
                "blocks_per_chip or the ceiling"
            )
        # Chip ``chip`` must start early enough that its farthest
        # affordable stop still reaches need[chip + 1]; scan starts in
        # ascending order so the first feasible start is the minimal one.
        found = -1
        for b in range(n_blocks - (n_chips - chip) + 1):
            reach = _ceiling_reach(bounds, b, ceilings[chip])
            hi = min(reach, n_blocks - (n_chips - chip - 1))
            if max(b + 1, int(need[chip + 1])) <= hi:
                found = b
                break
        if found < 0:
            raise CeilingError(
                f"row_ceilings {ceilings.tolist()} admit no contiguous "
                f"plan over {n_blocks} blocks: chips {chip}..{n_chips - 1} "
                "cannot cover the remaining rows"
            )
        need[chip] = found
    if need[0] > 0:
        raise CeilingError(
            f"row_ceilings {ceilings.tolist()} admit no contiguous plan: "
            f"chip 0 would need to start at block {int(need[0])}"
        )
    return need


def _constrained_owner(bounds, weights, n_chips, strategy, capacities,
                       ceilings):
    """Block->chip assignment honouring hard per-chip row ceilings.

    Runs the same target-driven sweep as the unconstrained strategies
    but clamps every chip's stop boundary into its feasible interval:
    at least far enough that the remaining chips can still cover the
    suffix (``need``), at most as far as the chip's own ceiling and the
    one-block-per-remaining-chip reserve allow. Spilled work cascades
    to later chips by construction.
    """
    n_blocks = bounds.size - 1
    need = _suffix_need(bounds, ceilings, n_chips)
    owner = np.empty(n_blocks, dtype=np.int64)
    if strategy == "nnz":
        total = float(weights.sum())
        cum_cap = np.cumsum(capacities)
        cap_total = float(cum_cap[-1])
        cum_weights = np.concatenate(([0.0], np.cumsum(weights)))
    block = 0
    for chip in range(n_chips):
        start = block
        e_lo = max(start + 1, int(need[chip + 1]))
        e_hi = min(
            _ceiling_reach(bounds, start, ceilings[chip]),
            n_blocks - (n_chips - chip - 1),
        )
        if e_lo > e_hi:
            raise CeilingError(
                f"chip {chip} cannot take a feasible shard: needs to "
                f"stop in [{e_lo}, {e_hi}] under ceiling "
                f"{int(ceilings[chip])}"
            )
        if strategy == "rows":
            desired = -(-(chip + 1) * n_blocks // n_chips)
        else:
            target = total * float(cum_cap[chip]) / cap_total
            desired = int(
                np.searchsorted(cum_weights, target, side="left")
            )
        block = min(max(desired, e_lo), e_hi)
        owner[start:block] = chip
    owner[block:] = n_chips - 1
    return owner


def make_plan(row_nnz, n_chips, *, strategy="nnz", blocks_per_chip=8,
              capacities=None, row_ceilings=None):
    """Partition ``n_rows`` rows across ``n_chips`` chips.

    ``row_nnz`` is the per-row work profile (the adjacency row-nnz for
    GCN aggregation). Blocks are equal-row-count (the finest migration
    granularity, ``min(n_chips * blocks_per_chip, n_rows)`` of them);
    ``strategy`` picks the initial block->chip assignment:

    * ``"rows"`` — each chip takes an equal count of consecutive blocks;
    * ``"nnz"``  — a greedy sweep assigns consecutive blocks until the
      chip's cumulative nnz reaches its *capacity share* of the total
      (equal shares when chips are identical), always leaving enough
      blocks for the remaining chips.

    ``capacities`` are the chips' relative compute throughputs (see
    :func:`check_capacities`); the ``"nnz"`` strategy targets equal
    *time* — a chip twice as fast takes twice the non-zeros — while
    ``"rows"`` stays the capacity-blind naive baseline. Both strategies
    produce identical block boundaries, so their cycle outcomes differ
    only through the assignment — which is what the shard-bench
    comparison isolates.

    ``row_ceilings`` are *hard* per-chip row budgets (see
    :func:`check_row_ceilings`): with them set, both strategies run a
    constrained sweep that stops taking blocks at a chip's ceiling and
    spills the excess to later chips, raising :class:`CeilingError`
    when no contiguous assignment can satisfy every ceiling. With
    ``row_ceilings=None`` (the default) the unconstrained code path is
    untouched and bit-identical to earlier releases.
    """
    row_nnz = check_1d_int_array(row_nnz, "row_nnz")
    n_chips = check_positive_int(n_chips, "n_chips")
    check_positive_int(blocks_per_chip, "blocks_per_chip")
    capacities = check_capacities(capacities, n_chips)
    n_rows = row_nnz.size
    if n_rows < n_chips:
        raise ConfigError(
            f"cannot split {n_rows} rows across {n_chips} chips"
        )
    if strategy not in PARTITION_STRATEGIES:
        raise ConfigError(
            f"strategy must be one of {PARTITION_STRATEGIES}, "
            f"got {strategy!r}"
        )
    n_blocks = min(n_chips * blocks_per_chip, n_rows)
    if n_blocks < n_chips:
        raise ConfigError(
            f"shard count {n_chips} exceeds the block count {n_blocks}: "
            "every chip needs at least one block"
        )
    bounds = np.floor(
        np.arange(n_blocks + 1) * (n_rows / n_blocks)
    ).astype(np.int64)
    bounds[-1] = n_rows

    ceilings = check_row_ceilings(row_ceilings, n_chips, n_rows=n_rows)
    if ceilings is not None:
        weights = np.add.reduceat(row_nnz, bounds[:-1]).astype(np.float64)
        owner = _constrained_owner(
            bounds, weights, n_chips, strategy, capacities, ceilings
        )
    elif strategy == "rows":
        owner = np.arange(n_blocks, dtype=np.int64) * n_chips // n_blocks
    else:
        weights = np.add.reduceat(row_nnz, bounds[:-1]).astype(np.float64)
        total = float(weights.sum())
        # Cumulative capacity shares: uniform capacities give the exact
        # (chip + 1) / n_chips fractions of the homogeneous sweep.
        cum_cap = np.cumsum(capacities)
        cap_total = float(cum_cap[-1])
        owner = np.empty(n_blocks, dtype=np.int64)
        cum = 0.0
        block = 0
        for chip in range(n_chips):
            target = total * float(cum_cap[chip]) / cap_total
            start = block
            # Leave one block per remaining chip; take at least one.
            ceiling = n_blocks - (n_chips - chip - 1)
            while block < ceiling and (block == start or cum < target):
                cum += weights[block]
                block += 1
            owner[start:block] = chip
        # Weightless trailing blocks never push ``cum`` past the final
        # target; sweep them onto the last chip so every block is owned
        # and the plan stays contiguous.
        owner[block:] = n_chips - 1
    return ShardPlan(
        n_rows=n_rows, n_chips=n_chips, block_bounds=bounds, owner=owner
    )


@dataclass(frozen=True)
class HaloExchange:
    """Per-layer inter-chip feature-row exchange sets of one plan.

    ``words[d, s]`` counts the distinct dense-operand rows chip ``d``
    must receive from chip ``s`` before an aggregation stage (one word
    per row per dense column — multiply by the stage's round count for
    the transfer volume). ``rows[d]`` is the sorted global index array
    of chip ``d``'s halo rows (rows it references but does not own).
    Both are read-only copies: one exchange serves every run of its
    plan.
    """

    n_chips: int
    words: np.ndarray
    rows: tuple

    def __post_init__(self):
        object.__setattr__(self, "words", _read_only(self.words))
        object.__setattr__(
            self, "rows", tuple(_read_only(rows) for rows in self.rows)
        )

    @property
    def in_rows(self):
        """Halo rows each chip receives (length ``n_chips``)."""
        return self.words.sum(axis=1)

    @property
    def out_rows(self):
        """Halo rows each chip sends (length ``n_chips``)."""
        return self.words.sum(axis=0)

    @property
    def total_rows(self):
        """Total halo rows exchanged per dense column."""
        return int(self.words.sum())


def _as_csr(adjacency):
    """Accept a CooMatrix or CsrMatrix adjacency; return CSR."""
    if isinstance(adjacency, CsrMatrix):
        return adjacency
    if isinstance(adjacency, CooMatrix):
        return coo_to_csr(adjacency)
    raise ConfigError(
        "adjacency must be CooMatrix or CsrMatrix, got "
        f"{type(adjacency).__name__}"
    )


def halo_exchange(adjacency, plan):
    """Compute the :class:`HaloExchange` of ``plan`` over ``adjacency``.

    A chip computing output rows ``R`` of ``A @ B`` reads the ``B`` rows
    named by the columns of ``A[R, :]``; those owned elsewhere are its
    halo. The sets depend only on the adjacency pattern and the plan —
    they are recomputed after rebalancing migrates blocks.
    """
    csr = _as_csr(adjacency)
    if csr.shape[0] != csr.shape[1]:
        raise ConfigError(
            f"adjacency must be square, got {csr.shape}"
        )
    if csr.shape[0] != plan.n_rows:
        raise ConfigError(
            f"plan covers {plan.n_rows} rows but adjacency has "
            f"{csr.shape[0]}"
        )
    row_owner = plan.row_owner()
    dest = row_owner[csr.expand_rows()]
    src = row_owner[csr.col_ids]
    remote = dest != src
    n = plan.n_rows
    # Unique (destination chip, referenced row) pairs: the same halo row
    # is transferred once per destination chip, however many local
    # non-zeros reference it.
    keys = np.unique(dest[remote] * np.int64(n) + csr.col_ids[remote])
    halo_dest = keys // n
    halo_row = keys % n
    words = np.zeros((plan.n_chips, plan.n_chips), dtype=np.int64)
    np.add.at(words, (halo_dest, row_owner[halo_row]), 1)
    rows = tuple(
        halo_row[halo_dest == chip] for chip in range(plan.n_chips)
    )
    return HaloExchange(n_chips=plan.n_chips, words=words, rows=rows)
