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
assembly solves, then integrates once up to the ladder's orbit for the
return-time tails, before it drops the sum.  The blocks also feed the
renewal recursion as a stacked sparse matrix for short return times and
per-source-cell convolution kernels for long ones.

Every consumer walks the ladder a block of up to 128 branches at a time:
one vectorized pass extracts the block's Ulam entries in branch order, with
one source-cell lookup per branch row, and assembly scatters them straight
into the block sum and hands them to the renewal engine's ``FastLayout``,
which owns the window's columns, the kernel bands and their pieces; this
module does not know that layout.  The scatter adds the entries one by one
in branch order, so the sum rounds exactly as a branch-by-branch pass would.

The block sum is held banded.  Every branch but the first maps into
[1/2, sup of the left branch], so only branch 1 reaches the rows from
``row_hi`` on, with at most two entries a row: those rows are a CSR, and
the rows below ``row_hi`` a dense band.  For lsv the sup is 1, the band is
the whole m x m sum and the CSR has no rows; for lsv0 at grid 1024 the band
is 71 rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, NumericalError, check_bytes
from .grid import Grid, GridObservable
from .ladder import BranchLadder
from .maps import MapSpec, return_time_tail
from .renewal_engine import FastLayout, KernelGroup

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
    columns ``window`` of a rolling history window (no columns when that
    window holds no entry); ``groups`` hold the longer return times as
    per-source-cell band pieces of convolution kernels (all as
    ``FastLayout`` lays them out), each piece as its band until a renewal
    run reaches it and as the band's spectrum from then on.  ``density``
    is the fixed point of the full block sum (completed beyond the
    truncation), which is not kept, and ``density_residual`` its L1
    residual.  ``tails[n]`` is its mass of
    {return time > n}, n = 0..n_trunc, which every tail consumer reads.
    ``spec`` and ``ladder`` are the map and the pullback ladder the blocks
    were swept from; only ``branch_matrices`` reads the ladder.
    """

    spec: MapSpec
    grid: Grid
    n_trunc: int
    j_direct: int
    stacked: sp.csr_matrix
    window: np.ndarray
    groups: list[KernelGroup]
    density: np.ndarray
    density_residual: float
    tails: np.ndarray
    ladder: BranchLadder

    # -- density ---------------------------------------------------------

    @property
    def density_values(self) -> np.ndarray:
        """``density``; the name callers read and the bench's tracer wraps."""
        return self.density

    @property
    def mass_deficit(self) -> float:
        """Invariant mass of {return time > n_trunc}."""
        return float(self.tails[-1])

    # -- branch access ----------------------------------------------------

    def branch_matrices(self) -> list[sp.csr_matrix]:
        """R_1..R_{n_trunc} as sparse matrices, built anew by one ladder sweep.

        The renewal recursion never reads them: they are the input of the
        tests' exact reference recursion, and the benchmark's tracer
        (``bench/spans.py``) wraps this method to count their products.
        """
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
    mass.  Raises before building the ladder when the banded block sum, the
    ladder's orbit and the least bytes of the kernel bands would take more
    than ``errors.BYTE_LIMIT``.  Raises after assembly when the invariant
    mass beyond ``n_trunc`` exceeds ``deficit_bound``.  Both messages end in
    advice naming the truncation ``ntrunc``, a token the CLI replaces with
    the flag that set it.  The default bound is 0.15 for the polynomial
    family; for the log family the deficit is structurally near
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
    row_hi = _image_rows(spec, grid)
    layout = FastLayout(m, n_trunc, j_direct, row_hi)
    # the block sum: a dense band of row_hi rows, and at most two entries
    # (8-byte value and index) and a row pointer on each row from row_hi on
    check_bytes(8 * row_hi * m + 40 * (m - row_hi) + 8 * (k_ladder + 1) + layout.kernel_floor,
                f"assembly on {m} cells with a {k_ladder}-rung ladder (block sum, "
                f"orbit and kernel bands)", "lower grid or ntrunc")
    ladder = BranchLadder(spec, grid.edges, n_rungs=k_ladder)
    density, residual = _power_density(*_swept_block_sum(ladder, grid, layout), delta)
    tails = return_time_tail(ladder, GridObservable(grid, density), np.arange(n_trunc + 1))
    if tails[-1] > deficit_bound:
        raise NumericalError(
            f"mass deficit {tails[-1]:.3g} exceeds {deficit_bound}; raise ntrunc"
        )
    stacked, window = layout.stacked()
    return InducedOperator(
        spec=spec, grid=grid, n_trunc=n_trunc, j_direct=layout.j_direct,
        stacked=stacked, window=window, groups=layout.groups(),
        density=density, density_residual=residual, tails=tails, ladder=ladder,
    )


def _image_rows(spec: MapSpec, grid: Grid) -> int:
    """Rows below the first cell past [1/2, sup of the left branch], with one cell of margin.

    Every branch but the first, and the integral tail, writes only these.
    """
    sup = min(spec.left_image_sup, 1.0)
    return min(grid.m, grid.cell_of(sup * (1 - 1e-12)) + 2)


def _swept_block_sum(ladder: BranchLadder, grid: Grid, layout):
    """Block sum of all ladder branches plus the integral tail; entries go to ``layout.add``.

    Returns the sum as its dense rows below ``layout.row_hi`` and a CSR of
    the rows from there on, which only branch 1 reaches (at most two
    entries a row): every later branch, and the tail, maps into [1/2, sup
    of the left branch].  The tail is added on the columns it reads and the
    rows where its profile is nonzero only: elsewhere it is +0.0.
    """
    m, delta, edges, row_hi = grid.m, grid.width, grid.edges, layout.row_hi
    band = np.zeros((row_hi, m))
    beyond = []
    for j0, G in ladder.sweep(1, ladder.n_rungs + 2):
        brow, rows, cols, w = _branch_entries(edges, G, m, delta)
        inside = rows < row_hi
        np.add.at(band.ravel(), rows[inside] * m + cols[inside], w[inside])
        beyond.append((rows[~inside] - row_hi, cols[~inside], w[~inside]))
        layout.add(j0, brow, rows, cols, w)
        del brow, rows, cols, w, inside  # free before the next block's entries exist
    tail = _tail_completion(ladder, edges, delta)
    if tail is not None:
        profile, read = tail
        rows, cols = np.flatnonzero(profile), np.flatnonzero(read)
        band[np.ix_(rows, cols)] += np.outer(profile[rows], read[cols])
    rows, cols, w = (np.concatenate(x) for x in zip(*beyond))
    return band, sp.csr_matrix((w, (rows, cols)), shape=(m - row_hi, m))


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


def _power_density(band: np.ndarray, beyond: sp.csr_matrix, delta: float):
    """Fixed point of the completed block sum, normalized to unit mass.

    The sum is given as its dense leading rows ``band`` and the CSR
    ``beyond`` of the rows after them.  Power iteration until successive
    iterates differ by less than 1e-12 in L1; raises after 20000 iterations.
    """
    def apply(v):
        return np.concatenate((band @ v, beyond @ v))

    v = np.ones(band.shape[1])
    v /= v.sum() * delta
    res = np.inf
    for _ in range(20000):
        w = apply(v)
        w /= w.sum() * delta
        res = float(np.abs(w - v).sum() * delta)
        v = w
        if res < 1e-12:
            break
    else:
        raise NumericalError(f"density power iteration stalled at residual {res:.3e}")
    final = float(np.abs(apply(v) - v).sum() * delta)
    return v, final


def invariant_density(op: InducedOperator) -> GridObservable:
    """Invariant density of the first-return map, unit mass on Y."""
    return GridObservable(op.grid, op.density_values)
