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
machine precision and its fixed point is a clean invariant density, which
assembly solves before it drops the sum.  The blocks also feed the renewal
recursion as a stacked sparse matrix for short return times and
per-source-cell convolution kernels for long ones.

Every consumer walks the ladder a block of up to 128 branches at a time:
one vectorized pass extracts the block's Ulam entries in branch order, with
one source-cell lookup per branch row, and assembly scatters them straight
into the dense block sum and hands them to the renewal engine's
``FastLayout``, which owns the window's columns, the kernel bands and their
pieces; this module does not know that layout.  The scatter adds the
entries one by one in branch order, so the sum rounds exactly as a
branch-by-branch pass would.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, NumericalError
from .grid import Grid, GridObservable
from .ladder import BranchLadder
from .maps import MapSpec, return_time_tail
from .renewal_engine import _FAST_LIMIT, FastLayout, KernelGroup

__all__ = [
    "InducedOperator",
    "assemble_operator",
    "invariant_density",
]


def _branch_entries(edges: np.ndarray, G: np.ndarray, m: int, delta: float):
    """COO entries (block row, target cell, source cell, weight) of a block.

    Row r of ``G`` is a branch inverse at the edges; the preimage [a, b] of
    target cell t weighs (min(b, lo + delta) - max(a, lo)) / delta, where
    positive, in source cell [lo, lo + delta], lo = edges[0] + cell·delta.
    A row whose least and largest value share a cell gets these weights, bit
    for bit, as the differences of the row clipped to that cell; only rows
    that cross a source edge look up cells per target.  Entries are ordered
    by block row, then target, then source cell.
    """
    k0 = np.minimum(np.maximum(edges.searchsorted(G.min(axis=1), side="right") - 1, 0), m - 1)
    cross = np.flatnonzero(np.minimum(edges.searchsorted(G.max(axis=1)) - 1, m - 1) > k0)
    lo = (edges[0] + k0 * delta)[:, None]
    ov = np.diff(np.clip(G, lo, lo + delta), axis=1)
    ov[cross] = 0.0
    keep = ov > 0.0
    n_kept = np.count_nonzero(keep, axis=1)
    brow = np.arange(G.shape[0]).repeat(n_kept)
    out = brow, np.flatnonzero(keep) - brow * ov.shape[1], k0.repeat(n_kept), ov[keep] / delta
    if not cross.size:
        return out
    r_idx, t_idx = (G[cross, 1:] > G[cross, :-1]).nonzero()
    a, b = G[cross[r_idx], t_idx], G[cross[r_idx], t_idx + 1]
    k0 = np.minimum(np.maximum(edges.searchsorted(a, side="right") - 1, 0), m - 1)
    counts = np.maximum(np.minimum(edges.searchsorted(b) - 1, m - 1) - k0, 0) + 1
    # source cells k0 .. k0 + counts - 1 of each target, laid end to end
    cols = (k0 - (counts.cumsum() - counts)).repeat(counts) + np.arange(counts.sum())
    lo = edges[0] + cols * delta
    w = np.maximum(np.minimum(b.repeat(counts), lo + delta)
                   - np.maximum(a.repeat(counts), lo), 0.0) / delta
    keep = w > 0.0
    crossing = cross[r_idx].repeat(counts)[keep], t_idx.repeat(counts)[keep], cols[keep], w[keep]
    # a crossing row's entries go before the one-cell entries of later rows
    at = out[0].searchsorted(crossing[0])
    return tuple(np.insert(x, at, y) for x, y in zip(out, crossing))


@dataclass
class InducedOperator:
    """Assembled branch blocks of the first-return transfer operator.

    ``stacked`` applies all blocks with return time < ``j_direct`` to the
    columns ``window`` of a rolling history window; ``groups`` hold the
    longer return times as per-source-cell band pieces of convolution
    kernels (all as ``FastLayout`` lays them out).  ``density`` is the fixed
    point of the full block sum (completed beyond the truncation), which is
    not kept, and ``density_residual`` its L1 residual.  ``mass_deficit``
    is the invariant mass of return times beyond ``n_trunc``.
    """

    spec: MapSpec | None
    grid: Grid
    n_trunc: int
    j_direct: int
    stacked: sp.csr_matrix | None
    window: np.ndarray | None
    groups: list[KernelGroup]
    density: np.ndarray
    density_residual: float
    ladder: BranchLadder | None = None

    # -- density ---------------------------------------------------------

    @property
    def density_values(self) -> np.ndarray:
        """``density``; the name callers read and the bench's tracer wraps."""
        return self.density

    @property
    def mass_deficit(self) -> float:
        """Invariant mass of {return time > n_trunc}."""
        if self.ladder is None:
            return 0.0
        return return_time_tail(self.ladder, self.density_observable(), self.n_trunc)

    def density_observable(self) -> GridObservable:
        return GridObservable(self.grid, self.density_values)

    def branch_mass(self) -> np.ndarray:
        """Invariant measure of {return time = j}, j = 1..n_trunc."""
        if self.ladder is None:
            raise DomainError("synthetic operator carries no branch geometry")
        tails = return_time_tail(self.ladder, self.density_observable(),
                                 np.arange(self.n_trunc + 1))
        return -np.diff(tails)

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
            brow, rows, cols, w = _branch_entries(self.grid.edges, G, m, self.grid.width)
            ends = brow.searchsorted(np.arange(G.shape[0] + 1))
            mats += [sp.csr_matrix((w[lo:hi], (rows[lo:hi], cols[lo:hi])), shape=(m, m))
                     for lo, hi in zip(ends[:-1], ends[1:])]
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
    mass.  Raises before building the ladder when the dense block sum, the
    ladder's orbit and the least bytes of the kernel bands would take more
    than the engine's ``_FAST_LIMIT`` bytes.  Raises after assembly when
    the invariant mass beyond ``n_trunc`` exceeds ``deficit_bound``,
    advising a larger truncation.  The default bound is 0.15 for the
    polynomial family; for the log family the deficit is structurally near
    1 at any desk-scale truncation (the invariant density is supported on
    [1/2, sup of the left branch], where all short return times carry no
    mass), so no bound is enforced by default.
    """
    if deficit_bound is None:
        deficit_bound = 0.15 if spec.family == "lsv" else 1.0
    if n_trunc < 1:
        raise DomainError("n_trunc must be >= 1")
    if k_ladder is None:
        k_ladder = 2 * n_trunc if spec.family == "lsv" else 10 * n_trunc
    k_ladder = max(k_ladder, n_trunc)

    m, delta = grid.m, grid.width
    sup = min(spec.left_image_sup, 1.0)
    row_hi = min(m, grid.cell_of(sup * (1 - 1e-12)) + 2)
    layout = FastLayout(m, n_trunc, j_direct, row_hi)
    need = 8 * m * m + 8 * (k_ladder + 1) + layout.kernel_floor
    if need > _FAST_LIMIT:
        raise NumericalError(
            f"assembly needs {need / 2**30:.3g} GiB for the dense block sum and kernel bands "
            f"on {m} cells and a {k_ladder}-rung ladder, above the "
            f"{_FAST_LIMIT / 2**30:.3g} GiB limit; lower grid or ntrunc"
        )
    ladder = BranchLadder(spec, grid.edges, n_rungs=k_ladder)
    density, residual = _power_density(_swept_block_sum(ladder, grid, layout), delta)
    stacked, window = layout.stacked()
    op = InducedOperator(
        spec=spec, grid=grid, n_trunc=n_trunc, j_direct=layout.j_direct,
        stacked=stacked, window=window, groups=layout.groups(),
        density=density, density_residual=residual, ladder=ladder,
    )
    deficit = op.mass_deficit
    if deficit > deficit_bound:
        raise NumericalError(
            f"mass deficit {deficit:.3g} exceeds {deficit_bound}; increase n_trunc"
        )
    return op


def _swept_block_sum(ladder: BranchLadder, grid: Grid, layout) -> np.ndarray:
    """Block sum of all ladder branches plus the integral tail; entries go to ``layout.add``.

    The tail is added on the columns it reads only: elsewhere it is +0.0.
    """
    m, delta, edges = grid.m, grid.width, grid.edges
    r1 = np.zeros((m, m))
    for j0, G in ladder.sweep(1, ladder.n_rungs + 2):
        brow, rows, cols, w = _branch_entries(edges, G, m, delta)
        np.add.at(r1.ravel(), rows * m + cols, w)
        layout.add(j0, brow, rows, cols, w)
    tail = _tail_completion(ladder, edges, delta)
    if tail is not None:
        profile, read = tail
        cols = np.flatnonzero(read)
        r1[:, cols] += np.outer(profile, read[cols])
    return r1


def _tail_completion(ladder: BranchLadder, edges: np.ndarray, delta: float):
    """Integral-tail estimate of the block sum beyond the ladder (rank one).

    Mass entering the read region [1/2, 1/2 + width] leaves along the
    profile of the last tabulated rung, scaled to the region's width.
    Returns its factors (profile, read), or ``None`` when there is no tail.
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
    return profile, read


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
