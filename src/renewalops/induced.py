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
blocks feed three consumers: the renewal recursion (stacked sparse matrix
for short return times, per-source-cell convolution kernels for long
ones), the generating-function matrices R(z) = sum_n R_n z^n, and the
spectral data (leading eigenvalue, eigenfunction, rank-one projection)
near z = 1.

Every consumer walks the ladder a block of up to 128 branches at a time:
one vectorized pass extracts the block's Ulam entries in branch order, and
assembly splits them between the dense block sum, the stacked window and
the kernel groups.  Dense sums close their batches at branch boundaries,
so they round exactly as a branch-by-branch pass would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, NumericalError
from .grid import Grid, GridObservable
from .ladder import BranchLadder
from .maps import MapSpec
from .renewal_engine import KernelGroup, plan_groups

__all__ = [
    "InducedOperator",
    "assemble_operator",
    "invariant_density",
    "block_series",
    "SpectralData",
    "spectral_data",
]

_BINCOUNT_BATCH = 1 << 22
# cap on grid rows held by the exact renewal path: K blocks of m rows
# materialized plus a history ring of 2K rows of m cells
_MATERIALIZE_LIMIT = 1 << 24


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


def _fill_kernels(g: KernelGroup, j: np.ndarray, rows, cols, w):
    """Scatter entries of branches j (ascending) into g's per-source-cell kernels.

    New kernels are created in order of first branch, then source cell, as a
    branch-by-branch pass would; the engine sums their products in that order.
    """
    order = cols.argsort(kind="stable")
    j, rows, cols, w = j[order], rows[order], cols[order], w[order]
    starts = np.flatnonzero(np.diff(cols, prepend=-1))
    ends = np.append(starts[1:], cols.size)
    for k in np.lexsort((cols[starts], j[starts])):
        lo, hi, i = starts[k], ends[k], int(cols[starts[k]])
        kern = g.kernels.get(i)
        if kern is None:
            kern = g.kernels[i] = np.zeros((g.row_hi, g.span))
        kern[rows[lo:hi], j[lo:hi] - g.glo] += w[lo:hi]


class _DenseAccumulator:
    """Batched scatter-add of COO entries into a dense matrix."""

    def __init__(self, m: int):
        self.m = m
        self.mat = np.zeros((m, m))
        self._idx: list[np.ndarray] = []
        self._w: list[np.ndarray] = []
        self._count = 0

    def add(self, brow, rows, cols, w):
        """Queue a block's entries (``brow`` ascending: the branch of each).

        A batch closes at the first branch boundary where it holds
        ``_BINCOUNT_BATCH`` entries, wherever the blocks begin, so the sums
        round the same whatever the block size.
        """
        lo = 0
        while self._count + w.size - lo >= _BINCOUNT_BATCH:
            last = brow[lo + _BINCOUNT_BATCH - self._count - 1]
            hi = int(brow.searchsorted(last, side="right"))
            self._queue(rows[lo:hi], cols[lo:hi], w[lo:hi])
            self.flush()
            lo = hi
        if lo < w.size:
            self._queue(rows[lo:], cols[lo:], w[lo:])

    def _queue(self, rows, cols, w):
        self._idx.append(rows * self.m + cols)
        self._w.append(w)
        self._count += w.size

    def flush(self):
        if not self._idx:
            return
        idx = np.concatenate(self._idx)
        w = np.concatenate(self._w)
        self.mat.ravel()[:] += np.bincount(idx, weights=w, minlength=self.m * self.m)
        self._idx, self._w, self._count = [], [], 0


@dataclass
class InducedOperator:
    """Assembled branch blocks of the first-return transfer operator.

    ``stacked`` applies all blocks with return time < ``j_direct`` against a
    rolling history window; ``groups`` hold the longer return times as
    convolution kernels; ``r1`` is the dense Ulam matrix of the full block
    sum (completed beyond the truncation), whose fixed point is the
    invariant density.  ``mass_deficit`` is the invariant mass of return
    times beyond ``n_trunc``.
    """

    spec: MapSpec | None
    grid: Grid
    n_trunc: int
    j_direct: int
    stacked: sp.csr_matrix | None
    groups: list[KernelGroup]
    read_cells: np.ndarray
    r1: np.ndarray
    ladder: BranchLadder | None = None
    _density: np.ndarray | None = None
    _density_residual: float | None = None
    _branch_cache: list[sp.csr_matrix] = field(default_factory=list)
    _series_cache: dict = field(default_factory=dict)

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
        return GridObservable(self.grid, self.density_values, regularity="BV")

    def branch_mass(self) -> np.ndarray:
        """Invariant measure of {return time = j}, j = 1..n_trunc."""
        if self.ladder is None:
            raise DomainError("synthetic operator carries no branch geometry")
        h = self.density_observable()
        ys = np.concatenate([[1.0], 0.5 * (self.ladder.x_tail[: self.n_trunc] + 1.0)])
        cums = h.cumulative_at(ys)
        return cums[:-1] - cums[1:]

    # -- branch access ----------------------------------------------------

    def branch_matrix(self, j: int) -> sp.csr_matrix:
        if self.ladder is None:
            return self._branch_cache[j - 1]
        if not 1 <= j <= self.n_trunc:
            raise DomainError(f"branch {j} outside 1..{self.n_trunc}")
        _, G = next(self.ladder.sweep(j, j + 1))
        m = self.grid.m
        return _block_csr(_branch_entries(self.grid.edges, G, m, self.grid.width), 1, m)[0]

    def leading_branches(self, k: int) -> list[sp.csr_matrix]:
        """Blocks R_1..R_k as sparse matrices, for 0 <= k <= n_trunc.

        The longest prefix built so far is cached, so a shorter request is a
        slice of it and a longer one sweeps only the missing branches.
        Raises before building anything when the k·m rows of the blocks
        plus a 2k·m history exceed ``_MATERIALIZE_LIMIT``.
        """
        if not 0 <= k <= self.n_trunc:
            raise DomainError(f"branch count {k} outside 0..{self.n_trunc}")
        m = self.grid.m
        if 3 * k * m > _MATERIALIZE_LIMIT:
            raise NumericalError(
                f"{k} branches on {m} cells too large to materialize; use path='fast'"
            )
        mats = self._branch_cache
        if len(mats) < k:
            for _, G in self.ladder.sweep(len(mats) + 1, k + 1):
                entries = _branch_entries(self.grid.edges, G, m, self.grid.width)
                mats += _block_csr(entries, G.shape[0], m)
        return mats[:k]

    def branch_matrices(self) -> list[sp.csr_matrix]:
        """All n_trunc blocks as sparse matrices: ``leading_branches(n_trunc)``."""
        return self.leading_branches(self.n_trunc)

    def mu_form(self, mat: np.ndarray) -> np.ndarray:
        """Conjugate a Lebesgue-form matrix into measure-normalized form."""
        h = self.density_values
        return (mat * h[None, :]) / h[:, None]

    @classmethod
    def synthetic(cls, grid: Grid, branch_mats: Sequence[sp.spmatrix]) -> "InducedOperator":
        """Operator from explicitly given branch blocks (test fixtures)."""
        mats = [sp.csr_matrix(b) for b in branch_mats]
        n = len(mats)
        m = grid.m
        jd = n + 1
        blocks = [mats[jd - 1 - k - 1] if 1 <= jd - 1 - k <= n else None for k in range(jd - 1)]
        stacked = sp.hstack(
            [b if b is not None else sp.csr_matrix((m, m)) for b in blocks], format="csr"
        )
        r1 = np.zeros((m, m))
        for b in mats:
            r1 += b.toarray()
        return cls(
            spec=None, grid=grid, n_trunc=n, j_direct=jd, stacked=stacked,
            groups=[], read_cells=np.empty(0, np.int64), r1=r1,
            ladder=None, _branch_cache=mats,
        )


def assemble_operator(
    spec: MapSpec,
    grid: Grid,
    n_trunc: int,
    j_direct: int | None = None,
    k_ladder: int | None = None,
    span_cap: int = 1024,
    deficit_bound: float | None = None,
) -> InducedOperator:
    """Assemble the branch family of the first-return operator on Y.

    ``n_trunc`` bounds the return times carried by the renewal machinery;
    ``k_ladder`` extends the pullback ladder further so the density solve
    sees an (integral-tail completed) operator with essentially no missing
    mass.  Raises when the invariant mass beyond ``n_trunc`` exceeds
    ``deficit_bound``, advising a larger truncation.  The default bound is
    0.15 for the polynomial family; for the log family the deficit is
    structurally near 1 at any desk-scale truncation (the invariant density
    is supported on [1/2, sup of the left branch], where all short return
    times carry no mass), so no bound is enforced by default.
    """
    if deficit_bound is None:
        deficit_bound = 0.15 if spec.family == "lsv" else 1.0
    if (grid.lo, grid.hi) != (0.5, 1.0):
        raise DomainError("induced operator lives on the grid over [1/2, 1]")
    if n_trunc < 1:
        raise DomainError("n_trunc must be >= 1")
    if j_direct is None:
        j_direct = min(n_trunc + 1, 512)
    j_direct = max(2, min(j_direct, n_trunc + 1))
    if k_ladder is None:
        k_ladder = 2 * n_trunc if spec.family == "lsv" else 10 * n_trunc
    k_ladder = max(k_ladder, n_trunc)

    m, delta = grid.m, grid.width
    edges = grid.edges
    ladder = BranchLadder(spec, edges, n_rungs=k_ladder)

    sup = min(spec.left_image_sup, 1.0)
    row_hi = min(m, grid.cell_of(sup * (1 - 1e-12)) + 2)
    groups = [KernelGroup(glo, ghi, row_hi=row_hi) for glo, ghi in
              plan_groups(j_direct, n_trunc, span_cap)]

    st_rows: list[np.ndarray] = []
    st_cols: list[np.ndarray] = []
    st_w: list[np.ndarray] = []
    acc = _DenseAccumulator(m)
    jd = j_direct - 1
    gi = 0

    for j0, G in ladder.sweep(1, k_ladder + 2):
        brow, rows, cols, w = _branch_entries(edges, G, m, delta)
        acc.add(brow, rows, cols, w)
        if j0 > n_trunc:
            continue
        # entries of branches j < j_direct go to the stacked window, the
        # rest up to n_trunc to the kernel groups
        n_direct, n_kept = brow.searchsorted([j_direct - j0, n_trunc + 1 - j0])
        if n_direct:
            st_rows.append(rows[:n_direct])
            st_cols.append((jd - j0 - brow[:n_direct]) * m + cols[:n_direct])
            st_w.append(w[:n_direct])
        lo = n_direct
        while lo < n_kept:
            while j0 + brow[lo] >= groups[gi].ghi:
                gi += 1
            g = groups[gi]
            hi = brow.searchsorted(g.ghi - j0)
            _fill_kernels(g, j0 + brow[lo:hi], rows[lo:hi], cols[lo:hi], w[lo:hi])
            lo = hi

    acc.flush()
    r1 = acc.mat

    tail = _tail_completion(ladder, edges, delta)
    if tail is not None:
        r1 += tail

    if st_rows:
        stacked = sp.csr_matrix(
            (np.concatenate(st_w), (np.concatenate(st_rows), np.concatenate(st_cols))),
            shape=(m, jd * m),
        )
    else:
        stacked = None
    read_cells = np.array(sorted({i for g in groups for i in g.kernels}), dtype=np.int64)

    op = InducedOperator(
        spec=spec, grid=grid, n_trunc=n_trunc, j_direct=j_direct,
        stacked=stacked, groups=groups, read_cells=read_cells, r1=r1, ladder=ladder,
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


def _power_density(r1: np.ndarray, delta: float, tol: float = 1e-12, max_iter: int = 20000):
    """Fixed point of the completed block sum, normalized to unit mass."""
    m = r1.shape[0]
    v = np.ones(m)
    v /= v.sum() * delta
    res = np.inf
    for _ in range(max_iter):
        w = r1 @ v
        w /= w.sum() * delta
        res = float(np.abs(w - v).sum() * delta)
        v = w
        if res < tol:
            break
    else:
        raise NumericalError(f"density power iteration stalled at residual {res:.3e}")
    final = float(np.abs(r1 @ v - v).sum() * delta)
    return v, final


def invariant_density(op: InducedOperator) -> GridObservable:
    """Invariant density of the first-return map, unit mass on Y."""
    return op.density_observable()


def block_series(op: InducedOperator, z: complex, extended: bool = False) -> np.ndarray:
    """Dense matrix of sum_n R_n z**n (Lebesgue form).

    The truncated sum runs to ``n_trunc``; with ``extended`` the ladder
    continuation and the integral-tail completion are included (used by the
    spectral routines near z = 1, where the truncated series would shed
    visible mass).
    """
    if op.ladder is None:
        raise DomainError("synthetic operator has no ladder to resweep")
    key = (complex(z), extended)
    if key in op._series_cache:
        return op._series_cache[key]
    m, delta = op.grid.m, op.grid.width
    edges = op.grid.edges
    j_hi = (op.ladder.n_rungs + 2) if extended else (op.n_trunc + 1)
    az = abs(z)
    out_r = _DenseAccumulator(m)
    out_i = _DenseAccumulator(m)
    for j0, G in op.ladder.sweep(1, j_hi):
        zjs = [z ** j for j in range(j0, j0 + G.shape[0])]
        # the series stops at the first negligible power
        stop = next((i for i, zj in enumerate(zjs) if az < 1.0 and abs(zj) < 1e-20), None)
        if stop is not None:
            G, zjs = G[:stop], zjs[:stop]
        brow, rows, cols, w = _branch_entries(edges, G, m, delta)
        out_r.add(brow, rows, cols, w * np.array([zj.real for zj in zjs])[brow])
        out_i.add(brow, rows, cols, w * np.array([zj.imag for zj in zjs])[brow])
        if stop is not None:
            break
    out_r.flush()
    out_i.flush()
    mat = out_r.mat + 1j * out_i.mat
    if extended:
        tail = _tail_completion(op.ladder, edges, delta)
        if tail is not None:
            mat += (z ** (op.ladder.n_rungs + 2)) * tail
    # cache a handful of matrices, fewer when the grid is large
    cache_cap = max(2, (1 << 26) // (m * m))
    if len(op._series_cache) >= cache_cap:
        op._series_cache.clear()
    op._series_cache[key] = mat
    return mat


@dataclass
class SpectralData:
    """Leading eigendata of R(z) in measure-normalized form.

    ``v`` is the right eigenfunction with unit measure integral, ``psi``
    the left functional with psi . v = 1; the spectral projection acts as
    w -> v * (psi . w).
    """

    z: complex
    lam: complex
    gap: float
    v: np.ndarray
    psi: np.ndarray
    residual: float

    def project(self, w: np.ndarray) -> np.ndarray:
        return self.v * np.dot(self.psi, w)

    def projection_matrix(self) -> np.ndarray:
        return np.outer(self.v, self.psi)


def _dominant_pair(mat: np.ndarray, v0: np.ndarray, tol: float = 1e-13,
                   max_iter: int = 5000) -> tuple[complex, np.ndarray]:
    """Dominant eigenpair by power iteration with a Rayleigh-quotient read-off.

    Plain and deterministic; preferred over general-purpose dense solvers,
    whose eigenvector back-substitution degrades badly on these strongly
    non-normal block-convolution matrices.
    """
    v = v0.astype(complex)
    v /= np.linalg.norm(v)
    lam = 0.0 + 0.0j
    for _ in range(max_iter):
        w = mat @ v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0 + 0.0j, v
        w /= nw
        lam = np.vdot(w, mat @ w) / np.vdot(w, w)
        resid = np.linalg.norm(mat @ w - lam * w)
        v = w
        if resid <= tol * max(1.0, abs(lam)):
            return complex(lam), v
    raise NumericalError(
        f"power iteration stalled at residual {resid:.3e}; "
        "spectral separation too weak at this z"
    )


def spectral_data(op: InducedOperator, z: complex, gap_min: float = 0.02) -> SpectralData:
    """Leading eigenvalue, eigenfunction and projection of R(z) near z = 1.

    Raises when the spectral gap estimate falls below ``gap_min`` (the
    rank-one splitting is then outside its perturbative regime).
    """
    a_mu = op.mu_form(block_series(op, z, extended=True))
    m = op.grid.m
    h = op.density_values
    delta = op.grid.width
    lam, v = _dominant_pair(a_mu, np.ones(m))
    lam_l, psi = _dominant_pair(a_mu.T, h.astype(complex))
    if abs(lam - lam_l) > 1e-8 * max(1.0, abs(lam)):
        raise NumericalError("left/right dominant eigenvalues disagree")
    # deflate and estimate the modulus of the subdominant eigenvalue (a
    # growth-rate read-off, robust to equal-modulus conjugate pairs)
    denom = complex(np.dot(psi, v))
    if abs(denom) < 1e-14:
        raise NumericalError("dominant left/right eigenvectors nearly orthogonal")
    deflated = a_mu - np.outer(v, psi) * (lam / denom)
    w2 = np.cos(np.arange(m)).astype(complex)
    w2 /= np.linalg.norm(w2)
    rate = 0.0
    for _ in range(300):
        w_new = deflated @ w2
        rate = float(np.linalg.norm(w_new))
        if rate == 0.0:
            break
        w2 = w_new / rate
    gap = float(abs(lam) - rate)
    if gap < gap_min:
        raise NumericalError(f"spectral gap {gap:.3g} below {gap_min}; z too far from 1")
    # normalize: unit measure integral for v, psi . v = 1
    scale = np.dot(v, h) * delta
    if abs(scale) < 1e-14:
        raise NumericalError("leading eigenfunction nearly orthogonal to the measure")
    v = v / scale
    psi = psi / np.dot(psi, v)
    if abs(lam.imag) < 1e-13 and abs(v.imag).max() < 1e-10:
        v = v.real.astype(complex)
    residual = float(np.max(np.abs(a_mu @ v - lam * v)))
    return SpectralData(z=complex(z), lam=complex(lam), gap=gap, v=v, psi=psi, residual=residual)
