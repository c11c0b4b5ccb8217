"""Ulam discretization of the first-return transfer operator on Y = [1/2, 1].

The first-return map of Y decomposes into one smooth expanding branch per
return time n, with domain [y_n, y_{n-1}] shrinking to the left endpoint.
Each branch's transfer operator (pullback weighted by the inverse branch
derivative) is discretized by cell averaging, which preserves positivity
and Lebesgue mass exactly: the weight from source cell i to target cell t
is the length of the inverse image of t inside i, divided by the cell
width.  All weights come from the branch inverse evaluated at the grid
edges, i.e. from the pullback ladder.

The block sum over all return times is completed beyond the tabulated
ladder by an integral-tail estimate, so its Ulam matrix conserves mass to
machine precision and its fixed point is a clean invariant density.  The
blocks also feed the renewal recursion as a stacked sparse matrix for
short return times and per-source-cell convolution kernels for long ones.

Every consumer walks the ladder a block of up to 128 branches at a time:
one vectorized pass extracts the block's Ulam entries in branch order, and
assembly scatters them straight into the dense block sum and hands them
to the renewal engine's ``FastLayout``, which owns the window's columns,
the kernel bands and their pieces; this module does not know that layout.
The scatter adds the entries one by one in branch order, so the sum
rounds exactly as a branch-by-branch pass would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, NumericalError
from .grid import Grid, GridObservable
from .ladder import BranchLadder
from .maps import MapSpec
from .renewal_engine import _FAST_LIMIT, FastLayout, KernelGroup

__all__ = [
    "InducedOperator",
    "assemble_operator",
    "invariant_density",
]


def _branch_entries(edges: np.ndarray, G: np.ndarray, m: int, delta: float):
    """COO entries (block row, target cell, source cell, weight) of a block.

    Row r of ``G`` is a branch inverse at the edges; the preimage of target
    cell t is [G[r, t], G[r, t+1]] and its overlaps with the source cells
    give the Ulam weights.  Entries are ordered by block row, then target,
    then source cell.
    """
    a = G[:, :-1]
    b = G[:, 1:]
    live = b > a
    r_idx, t_idx = live.nonzero()
    a = a[live]
    b = b[live]
    k0 = np.minimum(np.maximum(edges.searchsorted(a, side="right") - 1, 0), m - 1)
    k1 = np.maximum(k0, np.minimum(edges.searchsorted(b, side="left") - 1, m - 1))
    counts = k1 - k0 + 1
    total = int(counts.sum())
    brow = r_idx.repeat(counts)
    rows = t_idx.repeat(counts)
    # source cells k0, k0 + 1, ..., k1 of each target, laid end to end
    cols = (k0 - (counts.cumsum() - counts)).repeat(counts) + np.arange(total)
    cell_lo = edges[0] + cols * delta
    ov = np.minimum(b.repeat(counts), cell_lo + delta) - np.maximum(a.repeat(counts), cell_lo)
    w = np.maximum(ov, 0.0) / delta
    keep = w > 0.0
    return brow[keep], rows[keep], cols[keep], w[keep]


def _block_csr(entries, n_rows: int, m: int) -> list[sp.csr_matrix]:
    """One CSR matrix per block row, straight from ``_branch_entries`` output."""
    brow, rows, cols, w = entries
    starts = brow.searchsorted(np.arange(n_rows + 1))
    indptr = np.zeros((n_rows, m + 1), np.int64)
    counts = np.bincount(brow * m + rows, minlength=n_rows * m).reshape(n_rows, m)
    indptr[:, 1:] = counts.cumsum(axis=1)
    return [
        sp.csr_matrix((w[lo:hi], cols[lo:hi], indptr[r]), shape=(m, m))
        for r, (lo, hi) in enumerate(zip(starts[:-1], starts[1:]))
    ]


@dataclass
class InducedOperator:
    """Assembled branch blocks of the first-return transfer operator.

    ``stacked`` applies all blocks with return time < ``j_direct`` to the
    columns ``window`` of a rolling history window; ``groups`` hold the
    longer return times as per-source-cell band pieces of convolution
    kernels (all as ``FastLayout`` lays them out); ``r1`` is
    the dense Ulam matrix of the full block sum (completed beyond the
    truncation), whose fixed point is the invariant density.
    ``mass_deficit`` is the invariant mass of return times beyond
    ``n_trunc``.
    """

    spec: MapSpec | None
    grid: Grid
    n_trunc: int
    j_direct: int
    stacked: sp.csr_matrix | None
    window: np.ndarray | None
    groups: list[KernelGroup]
    r1: np.ndarray
    ladder: BranchLadder | None = None
    _density: np.ndarray | None = None
    _density_residual: float | None = None

    # -- density ---------------------------------------------------------

    @property
    def density_values(self) -> np.ndarray:
        if self._density is None:
            self._density, self._density_residual = _power_density(self.r1, self.grid.width)
        return self._density

    @property
    def density_residual(self) -> float:
        _ = self.density_values
        return float(self._density_residual)

    @property
    def mass_deficit(self) -> float:
        """Invariant mass of {return time > n_trunc}."""
        if self.ladder is None:
            return 0.0
        h = self.density_observable()
        return float(h.cumulative_at(self.ladder.y_n(self.n_trunc))[0])

    def density_observable(self) -> GridObservable:
        return GridObservable(self.grid, self.density_values)

    def branch_mass(self) -> np.ndarray:
        """Invariant measure of {return time = j}, j = 1..n_trunc."""
        if self.ladder is None:
            raise DomainError("synthetic operator carries no branch geometry")
        h = self.density_observable()
        ys = np.concatenate([[1.0], 0.5 * (self.ladder.x_tail[: self.n_trunc] + 1.0)])
        cums = h.cumulative_at(ys)
        return cums[:-1] - cums[1:]

    # -- branch access ----------------------------------------------------

    def branch_matrices(self) -> list[sp.csr_matrix]:
        """R_1..R_{n_trunc} as sparse matrices, built anew by one ladder sweep.

        The renewal recursion never reads them: they are the input of the
        tests' exact reference recursion, and the benchmark's tracer
        (``bench/spans.py``) wraps this method to count their products.
        """
        if self.ladder is None:
            raise DomainError("synthetic operator carries no branch geometry")
        m = self.grid.m
        mats = []
        for _, G in self.ladder.sweep(1, self.n_trunc + 1):
            entries = _branch_entries(self.grid.edges, G, m, self.grid.width)
            mats += _block_csr(entries, G.shape[0], m)
        return mats


def assemble_operator(
    spec: MapSpec,
    grid: Grid,
    n_trunc: int,
    j_direct: int | None = None,
    k_ladder: int | None = None,
    deficit_bound: float | None = None,
) -> InducedOperator:
    """Assemble the branch family of the first-return operator on Y.

    ``n_trunc`` bounds the return times carried by the renewal machinery;
    ``k_ladder`` extends the pullback ladder further so the density solve
    sees an (integral-tail completed) operator with essentially no missing
    mass.  Raises before building the ladder when the dense block sum and
    the ladder's orbit would take more than the engine's ``_FAST_LIMIT``
    bytes.  Raises after assembly when the invariant mass beyond ``n_trunc``
    exceeds ``deficit_bound``, advising a larger truncation.  The default
    bound is 0.15 for the polynomial family; for the log family the deficit
    is structurally near 1 at any desk-scale truncation (the invariant
    density is supported on [1/2, sup of the left branch], where all short
    return times carry no mass), so no bound is enforced by default.
    """
    if deficit_bound is None:
        deficit_bound = 0.15 if spec.family == "lsv" else 1.0
    if (grid.lo, grid.hi) != (0.5, 1.0):
        raise DomainError("induced operator lives on the grid over [1/2, 1]")
    if n_trunc < 1:
        raise DomainError("n_trunc must be >= 1")
    if k_ladder is None:
        k_ladder = 2 * n_trunc if spec.family == "lsv" else 10 * n_trunc
    k_ladder = max(k_ladder, n_trunc)

    m, delta = grid.m, grid.width
    need = 8 * m * m + 8 * (k_ladder + 1)
    if need > _FAST_LIMIT:
        raise NumericalError(
            f"assembly needs {need / 2**30:.3g} GiB for the dense block sum on {m} cells "
            f"and a {k_ladder}-rung ladder, above the {_FAST_LIMIT / 2**30:.3g} GiB limit; "
            "lower grid or ntrunc"
        )
    edges = grid.edges
    ladder = BranchLadder(spec, edges, n_rungs=k_ladder)

    sup = min(spec.left_image_sup, 1.0)
    row_hi = min(m, grid.cell_of(sup * (1 - 1e-12)) + 2)
    layout = FastLayout(m, n_trunc, j_direct, row_hi)
    r1 = np.zeros((m, m))
    for j0, G in ladder.sweep(1, k_ladder + 2):
        brow, rows, cols, w = _branch_entries(edges, G, m, delta)
        np.add.at(r1.ravel(), rows * m + cols, w)
        layout.add(j0, brow, rows, cols, w)

    tail = _tail_completion(ladder, edges, delta)
    if tail is not None:
        r1 += tail

    stacked, window = layout.stacked()
    op = InducedOperator(
        spec=spec, grid=grid, n_trunc=n_trunc, j_direct=layout.j_direct,
        stacked=stacked, window=window, groups=layout.groups(), r1=r1, ladder=ladder,
    )
    deficit = op.mass_deficit
    if deficit > deficit_bound:
        raise NumericalError(
            f"mass deficit {deficit:.3g} exceeds {deficit_bound}; increase n_trunc"
        )
    return op


def _tail_completion(ladder: BranchLadder, edges: np.ndarray, delta: float) -> np.ndarray | None:
    """Integral-tail estimate of the block sum beyond the ladder (rank one).

    Mass entering the read region [1/2, 1/2 + width] leaves along the
    profile of the last tabulated rung, scaled to the region's width;
    ``None`` when the ladder leaves no tail to complete.
    """
    tt_cum, width = ladder.top_tail_cumulative()
    if not width > 0:
        return None
    profile = np.diff(tt_cum) / delta
    total = profile.sum() * delta
    if not total > 0:
        return None
    profile *= width / total
    hi_edge = min(0.5 + width, 1.0)
    read = np.maximum(np.minimum(edges[1:], hi_edge) - edges[:-1], 0.0) / width
    return np.outer(profile, read)


def _power_density(r1: np.ndarray, delta: float):
    """Fixed point of the completed block sum, normalized to unit mass.

    Power iteration until successive iterates differ by less than 1e-12 in
    L1; raises after 20000 iterations.
    """
    m = r1.shape[0]
    v = np.ones(m)
    v /= v.sum() * delta
    res = np.inf
    for _ in range(20000):
        w = r1 @ v
        w /= w.sum() * delta
        res = float(np.abs(w - v).sum() * delta)
        v = w
        if res < 1e-12:
            break
    else:
        raise NumericalError(f"density power iteration stalled at residual {res:.3e}")
    final = float(np.abs(r1 @ v - v).sum() * delta)
    return v, final


def invariant_density(op: InducedOperator) -> GridObservable:
    """Invariant density of the first-return map, unit mass on Y."""
    return op.density_observable()
