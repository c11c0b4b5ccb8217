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
A launch runs over ranges of the kernels' rows, so its products, sum and
inverse transform take about ``_LAUNCH_BYTES`` at a time however tall the
kernels are; each row's arithmetic is the same in any range.  The result
is the literal sum_j R_j s_{n-j} up to floating-point ordering.

This module alone owns the fast path's layout.  ``FastLayout`` takes the
Ulam entries of the branches in order and decides the ``j_direct`` split,
the window's columns and the kernel bands and pieces.  ``_FastRun`` plans
one run from them and sizes it, so ``renewal_action`` checks the size
before anything is allocated.  Its ``steps`` replaces each piece it
reaches by the band's spectrum before the first step (the spectrum stays
on the operator for later runs, the band is freed), keeps each read cell's
trace in a ring as deep as that cell's largest first lag, and launches the
blocks from a schedule keyed by step.  Operator assembly just feeds the
layout entries.

Everything here acts in Lebesgue form (fixed point of the block sum is the
invariant density).  Conversion to the measure-normalized form used in the
dual ergodic statements is a diagonal conjugation by the density, applied
by the callers at entry and exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DomainError, check_bytes

__all__ = ["FastLayout", "KernelGroup", "RenewalAccumulator", "renewal_action"]


# cap on a kernel piece's lag span, so a block's FFT stays short
_SPAN_CAP = 1024

# bytes of one row range's spectra in a launch: a launch multiplies, sums and
# inverts its group's spectra one range of kernel rows at a time, so its
# temporaries stay near this size however tall the kernels.  A range's
# product, sum and inverse transform then fit a 2 MiB L2 cache together: at
# criterion 7 the engine took 0.86 of the all-rows time at 512 KiB and 0.94
# at 3 MiB (2-vCPU x86, one BLAS thread).  lsv0's launches at grid 1024
# (71 rows, blocks up to 256) stay one range.
_LAUNCH_BYTES = 1 << 19

# floor on a group's block length where the first lag allows it, so short
# pieces do not launch a transform pair every few steps
_BLOCK_MIN = 16


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


@dataclass
class KernelGroup:
    """Kernel pieces convolved in blocks of ``block`` steps by FFTs of 2·block.

    ``kernels[(i, p)]`` holds the columns of R_p, ..., R_{p+span-1} that
    read source cell i, shape (row_hi, span) with span <= block <= p; rows
    above the layout's ``row_hi`` are identically zero (the branch image is
    [1/2, sup of the left branch]).  The first run that reaches a piece
    replaces its band by the band's rfft at length 2·block, complex of
    shape (row_hi, block + 1), in place, so the operator never holds both
    and later runs take no transform.  That spectrum stays on the operator
    and is larger than the band: at criterion 7 the spectra take 365.4 MiB
    against 154.9 MiB of bands, and no size check after the run's own
    counts them.  The pieces come in launch order, by p // block, and a
    launch sums them in that order.  All pieces share launches at the
    multiples t of ``block`` and one inverse transform per launch: launched
    after step t - 1, piece (i, p) convolves the traces s_{t-p}[i], ...,
    s_{t-p+block-1}[i], complete since block <= p, into outputs t, ...,
    t + 2·block - 2.
    """

    block: int
    kernels: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)


class _Piece:
    """A kernel piece being filled: lags p .. p + full - 1 of one source cell."""

    def __init__(self, p: int, full: int, row_hi: int):
        self.p, self.full = p, full
        self.kern = np.zeros((row_hi, 0))

    def put(self, d: np.ndarray, rows: np.ndarray, w: np.ndarray):
        """Set weights at lags p + d (d ascending), growing the columns to lag p + d[-1]."""
        have, need = self.kern.shape[1], int(d[-1]) + 1
        if need > have:
            grown = np.zeros((self.kern.shape[0], need))
            grown[:, :have] = self.kern
            self.kern = grown
        self.kern[rows, d] = w  # each (row, lag) once: a branch's entries are distinct


class FastLayout:
    """Lays out the fast path's operands from Ulam entries, in branch order.

    Branches j < ``j_direct`` go to the stacked window, the rest up to
    ``n_trunc`` to per-source-cell kernels; later branches are ignored.  The
    default ``j_direct`` is min(n_trunc + 1, 128), and any value is clamped
    to [2, n_trunc + 1].  Each source cell stores only its band of lags,
    filled block by block as entries arrive, in dyadic pieces: a piece
    starting at lag p spans at most min(p rounded down to a power of two,
    ``_SPAN_CAP``) lags.  Its block length is the span rounded up to a power
    of two, raised to ``_BLOCK_MIN`` where p allows, so it never exceeds p.
    Pieces of equal block length form one ``KernelGroup``, in order of first
    launch, ties by the cell's first lag, then cell, then lag.  Rows at or
    above ``row_hi`` must be zero in every kernel branch.

    Why 128: from lag 51 on, every branch reads at most two source cells
    (lsv alpha = 5/3 and lsv0 at grid 1024, alpha = 2 and 2.5 at grid 512),
    so those lags are cheap as kernel pieces and costly as window entries.
    On lsv0 at grid 1024 with ``n_trunc`` 2500, 2,500 steps took the engine
    0.29 s at 512, 0.20 s at 256, 0.19 s at 128, 0.20 s at 64 and 0.22 s
    at 32 (2-vCPU x86, one BLAS thread): below ~64 the launches of the many
    short pieces cost more than the smaller window saves.
    """

    def __init__(self, m: int, n_trunc: int, j_direct: int | None, row_hi: int):
        if j_direct is None:
            j_direct = min(n_trunc + 1, 128)
        self.m = m
        self.n_trunc = n_trunc
        self.j_direct = max(2, min(j_direct, n_trunc + 1))
        self.row_hi = row_hi
        # pieces per source cell, cells in order of first branch, then cell
        self._bands: dict[int, list[_Piece]] = {}
        # window entries; the empty first arrays keep an empty window a matrix
        self._rows: list[np.ndarray] = [np.empty(0, np.int64)]
        self._cols: list[np.ndarray] = [np.empty(0, np.int64)]
        self._w: list[np.ndarray] = [np.empty(0)]

    @property
    def kernel_floor(self) -> int:
        """Bytes the kernel bands take at least: every kernel branch reads some
        source cell, whose band then holds a column of ``row_hi`` at its lag."""
        return 8 * self.row_hi * (self.n_trunc + 1 - self.j_direct)

    def add(self, j0: int, brow, rows, cols, w):
        """Take the entries (branch j0 + brow, target row, source col, weight).

        ``brow`` is ascending, and successive calls continue in branch order.
        """
        n_direct, n_kept = brow.searchsorted([self.j_direct - j0, self.n_trunc + 1 - j0])
        if n_direct:
            # window column block jd - j holds lag j, matching the history
            # ring of ``_FastRun.steps``, which reads s_{n-jd}, ..., s_{n-1}
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
        """The filled pieces, grouped by block length, each group stably sorted by p // block.

        Call it once, after the last ``add``: the layout lets go of them.
        """
        by_block: dict[int, KernelGroup] = {}
        for i, pieces in self._bands.items():
            for piece in pieces:
                floor = 1 << (piece.p.bit_length() - 1)
                block = min(max(_next_pow2(piece.kern.shape[1]), _BLOCK_MIN), floor)
                g = by_block.setdefault(block, KernelGroup(block))
                g.kernels[i, piece.p] = piece.kern
                piece.kern = None
        self._bands = {}
        groups = [by_block[b] for b in sorted(by_block)]
        for g in groups:
            g.kernels = dict(sorted(g.kernels.items(), key=lambda kv, L=g.block: kv[0][1] // L))
        return groups

    def stacked(self) -> tuple[sp.csr_matrix, np.ndarray]:
        """The window [R_{jd}, ..., R_1] (jd = j_direct - 1) on its distinct columns.

        Returns the matrix over those columns, renumbered in ascending
        order, and their indices into the flattened history window; with
        no window entry, an m x 0 matrix and no indices.  Renumbering keeps
        every row's entry order, so a product rounds as with the full-width
        window.
        """
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

    tn_integral: np.ndarray
    snapshots: dict[int, np.ndarray]


class _FastRun:
    """One fast-path run to ``n_max``: planned and sized when built, allocated by ``steps``.

    A group's live pieces are those with first lag <= ``n_max``, held as
    spectrum or band, in the group's order: the order of first launch,
    which replacing a band by its spectrum keeps, so a launch sums them as
    on a fresh operator.  The first block of a piece at lag p is the one
    whose inputs reach time 0, launched for t = block * (p // block), so a
    launch convolves a prefix of them.
    ``cells`` are the source cells whose traces are read; cell c keeps its
    trace in a ring of ``depth[c]`` steps, the largest first lag of its
    live pieces, at ``offset[c]`` of one flat array.  ``row_hi`` is the
    kernels' rows (0 when no piece is live).  ``nbytes`` counts what the
    run holds throughout: the spectra it still has to take (not those an
    earlier run stored on the operator), the trace rings, the output ring
    and the window history's jd x m ring in ``steps``, and the per-step
    integrals of ``renewal_action``.  The run frees each live band as it
    replaces it by its spectrum.  A launch's temporaries, one row range of
    ``_LAUNCH_BYTES`` or so each, come and go and are not counted.
    """

    def __init__(self, op, n_max: int):
        self.op, self.n_max = op, n_max
        live = [(g, [e for e in g.kernels if e[1] <= n_max]) for g in op.groups]
        live = [(g, keys) for g, keys in live if keys]
        self.row_hi = next((g.kernels[keys[0]].shape[0] for g, keys in live), 0)
        # each read cell's largest live lag: of the sorted (cell, lag) pairs, the last
        depth = dict(sorted(e for _, keys in live for e in keys))
        self.cells = np.array(list(depth), dtype=np.int64)
        self.depth = np.array(list(depth.values()), dtype=np.int64)
        self.offset = np.cumsum(self.depth) - self.depth
        # per group: the group, its live pieces, and per piece its first
        # launch, its lag and its cell's trace ring (offset and depth)
        self._groups = []
        for g, keys in live:
            at = self.cells.searchsorted([i for i, _ in keys])[:, None]
            self._groups.append((g, keys, np.array([g.block * (p // g.block) for _, p in keys]),
                                 np.array([p for _, p in keys])[:, None],
                                 self.offset[at], self.depth[at]))
        self.ring_len = max(2 * max((g.block for g, _ in live), default=0), 1)
        to_take = sum((g.block + 1) * sum(g.kernels[e].dtype == float for e in keys)
                      for g, keys in live)
        self.nbytes = (16 * self.row_hi * to_take  # spectra still to take
                       + 8 * int(self.depth.sum())  # trace rings
                       + 8 * self.ring_len * self.row_hi  # output ring
                       + 8 * (op.j_direct - 1) * op.grid.m  # window history
                       + 8 * (n_max + 1))  # per-step integrals

    def steps(self, s0: np.ndarray):
        """Generator of s_n: the stacked window plus blocked FFT convolutions.

        ``op.stacked`` multiplies the columns ``op.window`` of the history
        [s_{n-jd}, ..., s_{n-1}] (jd = j_direct - 1), gathered from a ring
        of jd rows that holds s_k in row k % jd.  Before the first step,
        every live band is replaced by its spectrum in place; spectra an
        earlier run stored are reused.  Step n writes s_n[c] into slot
        n % depth[c] of cell c's trace ring.  A group launches after each
        step t - 1 with t a multiple of its block, from its first piece's
        first block while t <= n_max; piece (c, p) gathers times t - p + i,
        i < block, from slots (t - p + i) % depth[c].  A time below 0 reads
        0: depth[c] >= p >= block, so its slot is next written at a time >= t.
        A launch after step n writes outputs n + 1 .. n + 2·block - 1, only
        in the rows below ``row_hi``, so the pending outputs fit a ring of
        2·(largest block) rows.  It runs over ranges of those rows whose
        spectra take at most ``_LAUNCH_BYTES`` (at least one row); each
        row's arithmetic does not depend on the range it falls in.
        """
        op, n_max, row_hi, ring_len = self.op, self.n_max, self.row_hi, self.ring_len
        stacked, window = op.stacked, op.window
        m = s0.shape[0]
        jd = op.j_direct - 1
        hist = np.zeros((jd, m))
        flat = hist.ravel()
        ring = np.zeros((ring_len, row_hi))
        cells, offset, depth = self.cells, self.offset, self.depth
        traces = np.zeros(int(depth.sum()))
        # one rfft output per piece, which reuses heap the freed bands leave:
        # copying the spectra into one preallocated array raised criterion
        # 7's fresh-process peak RSS by about 2% (770 -> 785 MB), and one
        # array per group lost most of the handoff's gain on lsv0 at grid
        # 1024 (62.71-62.75 against 61.9-62.0 MB; 2-vCPU x86)
        launches: dict[int, list[tuple]] = {}
        for g, keys, first, lag, base, period in self._groups:
            L = g.block
            for e in keys:
                if g.kernels[e].dtype == float:
                    g.kernels[e] = np.fft.rfft(g.kernels[e], n=2 * L, axis=1)
            spectra = [g.kernels[e] for e in keys]
            launches.setdefault(int(first[0]) - 1, []).append(
                (L, first, lag, base, period, spectra))

        for n in range(0, n_max + 1):
            if n == 0:
                s = s0.copy()
            else:
                slot = n % ring_len
                s = np.zeros(m)
                s[:row_hi] = ring[slot]
                ring[slot] = 0.0
                s += stacked @ flat.take(window + (n % jd) * m, mode="wrap")
            # record history for the stacked window and the kernel traces
            hist[n % jd] = s
            traces[offset + n % depth] = s[cells]
            yield n, s

            # blocks whose first output is t = n + 1: outputs t .. t + 2·L - 2
            # of the started pieces
            t = n + 1
            for run in launches.pop(n, ()):
                L, first, lag, base, period, spectra = run
                f = 2 * L
                k = int(first.searchsorted(t, "right"))
                times = np.arange(t, t + L) - lag[:k]
                a_hat = np.fft.rfft(traces[base[:k] + times % period[:k]], n=f, axis=1)
                start = t % ring_len
                head = min(f - 1, ring_len - start)
                height = max(1, _LAUNCH_BYTES // (16 * (L + 1)))
                for r0 in range(0, row_hi, height):
                    rs = slice(r0, r0 + height)
                    acc = spectra[0][rs] * a_hat[0]
                    for k_hat, a in zip(spectra[1:k], a_hat[1:]):
                        acc += k_hat[rs] * a
                    out_t = np.fft.irfft(acc, n=f, axis=1)[:, : f - 1].T
                    ring[start: start + head, rs] += out_t[:head]
                    ring[: f - 1 - head, rs] += out_t[head:]
                if t + L <= n_max:
                    launches.setdefault(n + L, []).append(run)


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

    run = _FastRun(op, n_max)
    check_bytes(run.nbytes, f"the renewal recursion of {n_max} steps on {grid.m} cells",
                "lower nmax, ntrunc or grid")
    s0 = h * v
    delta = grid.width
    tn = np.zeros(n_max + 1)
    snaps: dict[int, np.ndarray] = {}
    s_sum = np.zeros(grid.m)

    for n, s in run.steps(s0):
        tn[n] = s.sum() * delta
        s_sum += s
        if n in snap_set:
            snaps[n] = s_sum / h  # back to measure-normalized form
    return RenewalAccumulator(tn_integral=tn, snapshots=snaps)
