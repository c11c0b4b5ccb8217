"""Operator renewal recursion: actions of the return-block convolution.

With R_j the transfer-operator block of the branch with return time j, the
renewal family satisfies T_0 = I and T_n = sum_{j=1}^{n} R_j T_{n-j}.  The
engine computes the actions s_n = T_n s_0 for all n up to ``n_max``.
Branches with small return time are stacked into a single sparse matrix
over the distinct columns it reads of a rolling history window; branches
with large return time enter through per-source-cell kernels convolved
with the scalar traces s_m[cell] by blocked FFT (overlap-add, scheduled so
a block's inputs are complete before its first output is needed).  Each
cell's kernel is stored only over its band of lags, cut into dyadic pieces
whose transforms are sized to the piece; pieces of equal block length
share their launches and one inverse transform per launch (the relaxed
multiplication of van der Hoeven, *Relax, but don't be too lazy*, 2002).
The result is the literal sum_j R_j s_{n-j} up to floating-point ordering.

This module alone owns the fast path's layout.  ``FastLayout`` takes the
Ulam entries of the branches in order and decides the ``j_direct`` split,
the window's columns and the kernel bands and pieces; ``_fast_steps``
launches the blocks from a schedule keyed by step and holds each piece's
spectrum only from its first block to its group's last.  ``renewal_action``
checks the fast path's size before it allocates.  Operator assembly just
feeds the layout entries.

Everything here acts in Lebesgue form (fixed point of the block sum is the
invariant density).  Conversion to the measure-normalized form used in the
dual ergodic statements is a diagonal conjugation by the density, applied
by the callers at entry and exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, NumericalError

__all__ = ["FastLayout", "KernelGroup", "RenewalAccumulator", "renewal_action"]


# cap on a kernel piece's lag span, so a block's FFT stays short
_SPAN_CAP = 1024

# floor on a group's block length where the first lag allows it, so short
# pieces do not launch a transform pair every few steps
_BLOCK_MIN = 16

# cap on the bytes one fast-path run allocates: kernel spectra, output ring,
# window history and the source-cell traces
_FAST_LIMIT = 1 << 31


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


@dataclass
class KernelGroup:
    """Kernel pieces convolved in blocks of ``block`` steps by FFTs of 2·block.

    ``kernels[(i, p)]`` holds the columns of R_p, ..., R_{p+span-1} that
    read source cell i, shape (row_hi, span) with span <= block <= p; rows
    above ``row_hi`` are identically zero (the branch image is
    [1/2, sup of the left branch]).  All pieces share launches at the
    multiples t of ``block`` and one inverse transform per launch: launched
    after step t - 1, piece (i, p) convolves the traces s_{t-p}[i], ...,
    s_{t-p+block-1}[i], complete since block <= p, into outputs t, ...,
    t + 2·block - 2.
    """

    block: int
    row_hi: int
    kernels: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)


class _Piece:
    """A kernel piece being filled: lags p .. p + full - 1 of one source cell."""

    def __init__(self, p: int, full: int, row_hi: int):
        self.p, self.full, self.used = p, full, 0
        self.kern = np.zeros((row_hi, 0))

    def put(self, d: np.ndarray, rows: np.ndarray, w: np.ndarray):
        """Add weights at lags p + d, growing the columns by doubling."""
        need = int(d[-1]) + 1
        if need > self.kern.shape[1]:
            grown = np.zeros((self.kern.shape[0], min(self.full, max(need, 2 * self.kern.shape[1]))))
            grown[:, : self.used] = self.kern[:, : self.used]
            self.kern = grown
        self.kern[rows, d] += w
        self.used = max(self.used, need)


class FastLayout:
    """Lays out the fast path's operands from Ulam entries, in branch order.

    Branches j < ``j_direct`` go to the stacked window, the rest up to
    ``n_trunc`` to per-source-cell kernels; later branches are ignored.  The
    default ``j_direct`` is min(n_trunc + 1, 512), and any value is clamped
    to [2, n_trunc + 1].  Each source cell stores only its band of lags,
    filled block by block as entries arrive, in dyadic pieces: a piece
    starting at lag p spans at most min(p rounded down to a power of two,
    ``_SPAN_CAP``) lags.  Its block length is the span rounded up to a power
    of two, raised to ``_BLOCK_MIN`` where p allows, so it never exceeds p.
    Pieces of equal block length form one ``KernelGroup``.  Rows at or above
    ``row_hi`` must be zero in every kernel branch.
    """

    def __init__(self, m: int, n_trunc: int, j_direct: int | None, row_hi: int):
        if j_direct is None:
            j_direct = min(n_trunc + 1, 512)
        self.m = m
        self.n_trunc = n_trunc
        self.j_direct = max(2, min(j_direct, n_trunc + 1))
        self.row_hi = row_hi
        # pieces per source cell, cells in order of first branch, then cell
        self._bands: dict[int, list[_Piece]] = {}
        self._rows: list[np.ndarray] = []
        self._cols: list[np.ndarray] = []
        self._w: list[np.ndarray] = []

    def add(self, j0: int, brow, rows, cols, w):
        """Take the entries (branch j0 + brow, target row, source col, weight).

        ``brow`` is ascending, and successive calls continue in branch order.
        """
        n_direct, n_kept = brow.searchsorted([self.j_direct - j0, self.n_trunc + 1 - j0])
        if n_direct:
            # window column block jd - j holds lag j, matching the history
            # ring of ``_fast_steps``, which reads s_{n-jd}, ..., s_{n-1}
            jd = self.j_direct - 1
            self._rows.append(rows[:n_direct])
            self._cols.append((jd - j0 - brow[:n_direct]) * self.m + cols[:n_direct])
            self._w.append(w[:n_direct])
        if n_kept > n_direct:
            k = slice(n_direct, n_kept)
            self._fill(j0 + brow[k], rows[k], cols[k], w[k])

    def _fill(self, j: np.ndarray, rows, cols, w):
        """Scatter entries of branches j (ascending) into their cells' band pieces."""
        order = cols.argsort(kind="stable")
        j, rows, cols, w = j[order], rows[order], cols[order], w[order]
        starts = np.flatnonzero(np.diff(cols, prepend=-1))
        ends = np.append(starts[1:], cols.size)
        for k in np.lexsort((cols[starts], j[starts])):
            lo, hi = starts[k], ends[k]
            pieces = self._bands.setdefault(int(cols[lo]), [])
            while lo < hi:
                if not pieces or j[lo] >= pieces[-1].p + pieces[-1].full:
                    p = int(j[lo])
                    span = min(1 << (p.bit_length() - 1), _SPAN_CAP)
                    pieces.append(_Piece(p, span, self.row_hi))
                piece = pieces[-1]
                cut = lo + int(j[lo:hi].searchsorted(piece.p + piece.full))
                piece.put(j[lo:cut] - piece.p, rows[lo:cut], w[lo:cut])
                lo = cut

    def groups(self) -> list[KernelGroup]:
        """The filled pieces, trimmed to their bands, grouped by block length.

        Call it once, after the last ``add``: the layout lets go of them.
        """
        by_block: dict[int, KernelGroup] = {}
        for i, pieces in self._bands.items():
            for piece in pieces:
                floor = 1 << (piece.p.bit_length() - 1)
                block = min(max(_next_pow2(piece.used), _BLOCK_MIN), floor)
                g = by_block.setdefault(block, KernelGroup(block, self.row_hi))
                g.kernels[i, piece.p] = np.ascontiguousarray(piece.kern[:, : piece.used])
                piece.kern = None
        self._bands = {}
        return [by_block[b] for b in sorted(by_block)]

    def stacked(self) -> tuple[sp.csr_matrix | None, np.ndarray | None]:
        """The window [R_{jd}, ..., R_1] (jd = j_direct - 1) on its distinct columns.

        Returns the matrix over those columns, renumbered in ascending
        order, and their indices into the flattened history window (or
        None twice if the window is empty).  Renumbering keeps every row's
        entry order, so a product rounds as with the full-width window.
        """
        if not self._w:
            return None, None
        cols, compact = np.unique(np.concatenate(self._cols), return_inverse=True)
        mat = sp.csr_matrix((np.concatenate(self._w), (np.concatenate(self._rows), compact)),
                            shape=(self.m, cols.size))
        return mat, cols


@dataclass
class RenewalAccumulator:
    """Actions T_n applied to one observable, with running partial sums.

    ``tn_integral[n]`` is the measure integral of T_n v over Y (exactly the
    Lebesgue integral of the internal state).  ``snapshots[n]`` holds the
    measure-normalized partial sum S_n = sum_{j<=n} T_j v on the grid.
    """

    n_max: int
    tn_integral: np.ndarray
    snapshots: dict[int, np.ndarray]


def _live_pieces(groups: list[KernelGroup], n_max: int):
    """(group, source cell, first lag, kernel) of the pieces with first lag <= n_max."""
    return [(g, i, p, k) for g in groups for (i, p), k in g.kernels.items() if p <= n_max]


def _fast_bytes(j_direct: int, groups: list[KernelGroup], m: int, n_max: int) -> int:
    """Bytes ``_fast_steps`` allocates: spectra, output ring, window history, traces."""
    live = _live_pieces(groups, n_max)
    block = max((g.block for g, *_ in live), default=0)
    spectra = sum(16 * g.row_hi * (g.block + 1) for g, *_ in live)
    ring = 8 * 2 * block * (groups[0].row_hi if groups else 0)
    hist = 8 * 2 * (j_direct - 1) * m
    traces = 8 * (block + n_max + 1) * len({i for _, i, _, _ in live})
    return spectra + ring + hist + traces


class _GroupRun:
    """A kernel group during one fast run: pieces join at their first block.

    The first block of a piece at lag p is the one whose inputs reach
    time 0, launched for t = block * (p // block); traces before time 0
    are the zero rows of the trace history's ``pad``.
    """

    def __init__(self, g: KernelGroup, pieces, pad: int):
        self.block = g.block
        # (first launch, trace row of time t - p at t = 0, trace column, kernel)
        self.queue = sorted(((g.block * (p // g.block), pad - p, col, k) for col, p, k in pieces),
                            key=lambda e: e[0])
        self.joined = 0
        self.spectra: list[np.ndarray] = []

    def launch(self, t: int, traces: np.ndarray) -> np.ndarray:
        """Outputs t .. t + 2·block - 2 of the joined pieces, shape (2·block - 1, row_hi)."""
        L, f, q = self.block, 2 * self.block, self.queue
        joined = self.joined
        while self.joined < len(q) and q[self.joined][0] == t:
            self.spectra.append(np.fft.rfft(q[self.joined][3], n=f, axis=1))
            self.joined += 1
        if self.joined > joined:
            self._rows = np.array([e[1] for e in q[: self.joined]])[:, None] + np.arange(L)
            self._cols = np.array([e[2] for e in q[: self.joined]])[:, None]
        a_hat = np.fft.rfft(traces[self._rows + t, self._cols], n=f, axis=1)
        acc = self.spectra[0] * a_hat[0]
        for k_hat, a in zip(self.spectra[1:], a_hat[1:]):
            acc += k_hat * a
        return np.fft.irfft(acc, n=f, axis=1)[:, : f - 1].T


def _fast_steps(
    stacked: sp.csr_matrix | None,
    window: np.ndarray | None,
    j_direct: int,
    groups: list[KernelGroup],
    s0: np.ndarray,
    n_max: int,
):
    """Generator of s_n via stacked window + blocked FFT convolutions.

    ``stacked`` multiplies the columns ``window`` of the history [s_{n-jd},
    ..., s_{n-1}] (jd = j_direct - 1), as ``FastLayout`` lays them out.
    Launches are scheduled by step: a group launches after each step t - 1
    with t a multiple of its block, from its earliest piece's first block
    while t <= n_max.  Spectra are taken as pieces join and dropped after
    the group's last launch.  A launch after step n writes outputs n + 1 ..
    n + 2·block - 1, only in the rows below ``row_hi``, so the pending
    outputs fit a ring of twice the largest block times by ``row_hi`` cells.
    """
    m = s0.shape[0]
    jd = j_direct - 1
    hist2 = np.zeros((2 * jd, m))
    flat = hist2.ravel()
    live = _live_pieces(groups, n_max)
    pad = max((g.block for g, *_ in live), default=0)
    ring_len = max(2 * pad, 1)
    row_hi = groups[0].row_hi if groups else 0
    ring = np.zeros((ring_len, row_hi))
    read_cells = sorted({i for _, i, _, _ in live})
    col = {c: k for k, c in enumerate(read_cells)}
    traces = np.zeros((pad + n_max + 1, len(read_cells)))  # row pad + n holds time n
    launches: dict[int, list[_GroupRun]] = {}
    for g in groups:
        pieces = [(col[i], p, k) for (i, p), k in g.kernels.items() if p <= n_max]
        if pieces:
            run = _GroupRun(g, pieces, pad)
            launches.setdefault(run.queue[0][0] - 1, []).append(run)
    read_cells = np.array(read_cells, dtype=np.int64)

    for n in range(0, n_max + 1):
        if n == 0:
            s = s0.copy()
        else:
            slot = n % ring_len
            s = np.zeros(m)
            s[:row_hi] = ring[slot]
            ring[slot] = 0.0
            if stacked is not None:
                lo = n % jd
                s += stacked @ flat[lo * m:].take(window)
        # record history for the stacked window and the kernel traces
        r = n % jd
        hist2[r] = s
        hist2[jd + r] = s
        traces[pad + n] = s[read_cells]
        yield n, s

        # blocks whose first output is t = n + 1
        t = n + 1
        for run in launches.pop(n, ()):
            out_t = run.launch(t, traces)
            start = t % ring_len
            first = min(len(out_t), ring_len - start)
            ring[start: start + first] += out_t[:first]
            ring[: len(out_t) - first] += out_t[first:]
            if t + run.block <= n_max:
                launches.setdefault(n + run.block, []).append(run)
            else:
                run.spectra = None  # the group's last launch


def renewal_action(
    op,
    v: np.ndarray,
    n_max: int,
    snapshot_ns: list[int] | None = None,
) -> RenewalAccumulator:
    """Run the renewal recursion on the measure-normalized observable v.

    ``op`` is an assembled induced operator; v lives on its grid.  Snapshots
    are taken of the partial sums S_n at the requested indices, which must
    lie in [0, n_max] (n_max is always included).
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    snap_set = set(snapshot_ns or []) | {n_max}
    if min(snap_set) < 0 or max(snap_set) > n_max:
        raise DomainError(f"snapshot indices must lie in [0, {n_max}]")
    grid = op.grid
    h = op.density_values
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.m,):
        raise DomainError("observable shape does not match the operator grid")

    s0 = h * v
    delta = grid.width
    tn = np.zeros(n_max + 1)
    snaps: dict[int, np.ndarray] = {}
    s_sum = np.zeros(grid.m)

    need = _fast_bytes(op.j_direct, op.groups, grid.m, n_max)
    if need > _FAST_LIMIT:
        raise NumericalError(
            f"fast path needs {need / 2**30:.3g} GiB for {n_max} steps on {grid.m} cells, "
            f"above its {_FAST_LIMIT / 2**30:.3g} GiB limit; lower nmax, ntrunc or grid"
        )

    for n, s in _fast_steps(op.stacked, op.window, op.j_direct, op.groups, s0, n_max):
        tn[n] = s.sum() * delta
        s_sum += s
        if n in snap_set:
            snaps[n] = s_sum / h  # back to measure-normalized form
    return RenewalAccumulator(n_max=n_max, tn_integral=tn, snapshots=snaps)
