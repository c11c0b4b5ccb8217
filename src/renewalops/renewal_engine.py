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
A group keeps its pieces' spectra in one frequency-major array, so a
launch multiplies the started pieces into it with one batched BLAS product
and inverts along time straight into the output ring.  It runs over
ranges of the kernels' rows, so its product and inverse transform take
about ``_LAUNCH_BYTES`` at a time however tall the kernels are; each row's
arithmetic is the same in any range and at any BLAS thread count.  The
result is the literal sum_j R_j s_{n-j} up to floating-point ordering, with
each s_m[cell] below the smallest normal float read as 0.

This module alone owns the fast path's layout.  ``FastLayout`` takes the
Ulam entries of the branches in order and decides the ``j_direct`` split,
the window's columns and the kernel bands and pieces.  ``_FastRun`` plans
one run from them and sizes it, so ``renewal_action`` checks the size
before anything is allocated.  Its ``steps`` fills each group's spectra
array for the pieces it reaches before the first step (the spectra stay on
the operator for later runs, the bands are freed), keeps each cell it reads,
through the window or a kernel, in a trace ring as deep as the largest lag
it is read at (values below the smallest normal float stored as 0), and
launches the blocks from a schedule keyed by step.
Operator assembly just feeds the layout entries.

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

# bytes of one row range's product in a launch: a launch multiplies and
# inverts its group's spectra one range of kernel rows at a time, and the
# handoff transforms bands the same way, so their temporaries stay near this
# size however tall the kernels (ranges are whole ``_ROW_BLOCK``s, so blocks
# of 512 and up take 1 to 2 MiB).  A range's product and inverse transform
# then fit a 2 MiB L2 cache together: at criterion 7 the engine took 0.86 of
# the all-rows time at 512 KiB and 0.94 at 3 MiB (2-vCPU x86, one BLAS
# thread).  lsv0's launches at grid 1024 (71 rows, blocks up to 256) stay
# one range.
_LAUNCH_BYTES = 1 << 19

# rows per BLAS product in a launch: a launch's rows go through complex
# matrix-vector products of this many rows each (``_product``), so a row's
# arithmetic does not depend on the range of rows it falls in
_ROW_BLOCK = 64

# elements (pieces x rows) from which OpenBLAS splits a complex
# matrix-vector product over its threads; the split moves the bits of the
# rows near its cut (seen at 2 threads from 2 x 2049 on), so ``_product``
# keeps each product below it
_SERIAL_PRODUCT = 4096

# smallest normal float: a trace below it in size is stored as 0.  On lsv0
# at grid 1024 the cells off the density's support decay through the
# subnormal range near n = 1000, and x86 takes a slow path for arithmetic on
# subnormal operands: the window products there averaged 24.7 us a step
# against 11.6 us on normal inputs, and the flush took the engine from about
# 0.15 to 0.10 s (2-vCPU x86, one BLAS thread).  What it drops is below
# 1e-308, far under the rounding of every output: t_n and the snapshots came
# out bit-identical there
_NORMAL = np.finfo(float).tiny

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
    [1/2, sup of the left branch]).  The pieces come in launch order, by
    their first lag p, so every launch and every run reads a prefix of
    them.  ``spectra`` holds the rfft at length 2·block of the first pieces'
    bands, complex of shape (block + 1, pieces, row_hi), frequency-major;
    the first run that reaches a piece fills its slice there and replaces
    the band in ``kernels`` by that slice, transposed to (row_hi, block + 1),
    so the operator never holds both and later runs take no transform.  The
    spectra stay on the operator and are larger than the bands: at
    criterion 7 they take 365.4 MiB against 154.9 MiB of bands, and no
    size check after the run's own counts them.  All pieces share launches
    at the multiples t of ``block`` and one inverse transform per launch:
    launched after step t - 1, piece (i, p) convolves the traces
    s_{t-p}[i], ..., s_{t-p+block-1}[i], complete since block <= p, into
    outputs t, ..., t + 2·block - 2.
    """

    block: int
    kernels: dict[tuple[int, int], np.ndarray] = field(default_factory=dict)
    spectra: np.ndarray | None = None


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
    lag (so of first launch), ties by the cell's first lag, then cell.  Rows at or
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
        """The filled pieces, grouped by block length, each group stably sorted by lag p.

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
            g.kernels = dict(sorted(g.kernels.items(), key=lambda kv: kv[0][1]))
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

    A group's live pieces are those with first lag <= ``n_max``: a prefix
    of the group's pieces, which come by first lag.  The first block of a
    piece at lag p is the one whose inputs reach time 0, launched for
    t = block * (p // block), so a launch convolves a prefix of them too.
    ``cells`` are the source cells whose past the run reads, through the
    window's columns (lag j < j_direct, cell c) or through live pieces;
    cell c keeps its trace in a ring of ``depth[c]`` steps, the largest
    lag it is read at, at ``offset[c]`` of one flat array.
    ``row_hi`` is the kernels' rows (0 when no piece is live).  ``nbytes``
    counts what the run holds throughout: the group spectra arrays it
    still has to fill (whole, where an earlier run stored fewer pieces),
    the trace rings, the output ring, the slot and value buffers of
    ``steps``, s_0 and the current s_n, and the per-step integrals of
    ``renewal_action``.  The run frees each live band as it fills the
    band's spectrum.  A launch's temporaries, one row range of
    ``_LAUNCH_BYTES`` or so each, come and go and are not counted.
    """

    def __init__(self, op, n_max: int):
        self.op, self.n_max = op, n_max
        live = [(g, [e for e in g.kernels if e[1] <= n_max]) for g in op.groups]
        live = [(g, keys) for g, keys in live if keys]
        self.row_hi = next((g.kernels[keys[0]].shape[0] for g, keys in live), 0)
        # (cell, lag) of the window's columns, then of the live pieces
        m, jd = op.grid.m, op.j_direct - 1
        pieces = np.array([e for _, keys in live for e in keys], dtype=np.int64).reshape(-1, 2)
        cell = np.concatenate([op.window % m, pieces[:, 0]])
        lag = np.concatenate([jd - op.window // m, pieces[:, 1]])
        self.cells, at = np.unique(cell, return_inverse=True)
        self.depth = np.zeros(self.cells.size, dtype=np.int64)
        np.maximum.at(self.depth, at, lag)
        self.offset = np.cumsum(self.depth) - self.depth
        # the slots a step writes (per cell, lag 0) and reads (per window
        # column): where they are at step 0, where their rings end, and the
        # rings' depths
        w, c = op.window.size, self.cells.size
        ring = np.concatenate([np.arange(c), at[:w]])
        start, depth = self.offset[ring], self.depth[ring]
        lags = np.concatenate([np.zeros(c, dtype=np.int64), lag[:w]])
        self._slots = start + (-lags) % depth, start + depth, depth
        # per group: the group, its live pieces, and per piece its first
        # launch, its lag and its cell's trace ring (offset and depth)
        self._groups = []
        for g, keys in live:
            k = slice(w, w + len(keys))
            self._groups.append((g, keys, g.block * (lag[k] // g.block), lag[k],
                                 self.offset[at[k]], self.depth[at[k]]))
            w = k.stop
        self.ring_len = max(2 * max((g.block for g, _ in live), default=0), 1)
        to_fill = sum((g.block + 1) * len(keys) for g, keys in live
                      if g.spectra is None or g.spectra.shape[1] < len(keys))
        self.nbytes = (16 * self.row_hi * to_fill  # group spectra still to fill
                       + 8 * int(self.depth.sum())  # trace rings
                       + 8 * self.ring_len * self.row_hi  # output ring
                       + 17 * (op.window.size + c)  # step slots and values
                       + 9 * c  # the trace flush's sizes and mask
                       + 16 * m  # s_0 and the current s_n
                       + 8 * (n_max + 1))  # per-step integrals

    def _handoff(self):
        """Fill each group's spectra array for its live pieces, longer blocks first.

        A group whose stored array covers its live pieces keeps it.  Otherwise
        a new array copies the stored spectra, then takes each further piece's
        rfft into its slice, one launch row range at a time, and frees the
        band as it goes.  Longer blocks go first, so the shorter groups'
        arrays can take the heap the longer groups' bands leave.  At
        criterion 7 (2-vCPU x86) this peaks at 515-528 MB in a fresh process,
        against 517-552 for one spectrum array per piece; a whole piece's
        rfft as one temporary peaked at 547-560, shorter blocks first at 562,
        and an rfft written straight into the slice held the peak but took
        twice as long through its strided output.
        """
        for g, keys, *_ in sorted(self._groups, key=lambda run: -run[0].block):
            have = 0 if g.spectra is None else g.spectra.shape[1]
            if len(keys) <= have:
                continue
            spectra = np.empty((g.block + 1, len(keys), self.row_hi), complex)
            if have:
                spectra[:, :have] = g.spectra
            for k, e in enumerate(keys):
                if k >= have:
                    for rs in _row_ranges(g.block, self.row_hi):
                        spectra[:, k, rs] = np.fft.rfft(g.kernels[e][rs], n=2 * g.block, axis=1).T
                g.kernels[e] = spectra[:, k].T  # frees the band
            g.spectra = spectra

    def steps(self, s0: np.ndarray):
        """Generator of s_n: the stacked window plus blocked FFT convolutions.

        ``op.stacked`` multiplies the columns ``op.window`` of the history
        [s_{n-jd}, ..., s_{n-1}] (jd = j_direct - 1), each column (lag j,
        cell c) read from slot (n - j) mod depth[c] of c's trace ring, and the
        output ring's slot of step n adds to its rows below ``row_hi``.
        Before the first step, ``_handoff`` fills each group's spectra array
        for its live pieces; arrays an earlier run stored are reused.  Step
        n writes s_n[c], or 0 where it is subnormal (``_NORMAL``), into slot
        n mod depth[c] of cell c's trace ring.  A
        group launches after each step t - 1 with t a multiple of its block,
        from its first piece's first block while t <= n_max; piece (c, p)
        gathers times t - p + i, i < block, from slots (t - p + i) mod
        depth[c].  A time below 0 reads 0: depth[c] is at least the lag it
        is read at, so its slot is next written no earlier than the read,
        and after it.  A launch after step n
        writes outputs n + 1 .. n + 2·block - 1, only in the rows below
        ``row_hi``, so the pending outputs fit a ring of 2·(largest block)
        rows.  It transforms the traces of its k started pieces once,
        multiplies them into the first k spectra (``_product``) and inverts
        along time, over ranges of whole ``_ROW_BLOCK``s of rows whose
        product takes about ``_LAUNCH_BYTES``.
        """
        op, n_max, row_hi, ring_len = self.op, self.n_max, self.row_hi, self.ring_len
        self._handoff()
        stacked = op.stacked
        ring = np.zeros((ring_len, row_hi))
        cells = self.cells
        traces = np.zeros(int(self.depth.sum()))
        at0, end, slot_depth = self._slots
        at, wrap = at0.copy(), np.empty(at0.size, dtype=bool)
        writes, reads = at[: cells.size], at[cells.size:]
        written, gathered = np.empty(cells.size), np.empty(reads.size)
        size, subnormal = np.empty(cells.size), np.empty(cells.size, dtype=bool)
        launches: dict[int, list[tuple]] = {}
        for g, keys, first, lag, base, period in self._groups:
            launches.setdefault(int(first[0]) - 1, []).append(
                (g.block, first, lag, base, period, g.spectra))

        for n in range(0, n_max + 1):
            if n == 0:
                s = s0.copy()
            else:
                # every slot moves on by one step, back to its ring's start at its end
                at += 1
                np.greater_equal(at, end, out=wrap)
                np.subtract(at, slot_depth, out=at, where=wrap)
                s = stacked @ traces.take(reads, out=gathered)
                slot = n % ring_len
                s[:row_hi] += ring[slot]
                ring[slot] = 0.0
            s.take(cells, out=written)
            np.less(np.abs(written, out=size), _NORMAL, out=subnormal)
            written[subnormal] = 0.0
            traces[writes] = written
            yield n, s

            # blocks whose first output is t = n + 1: outputs t .. t + 2·L - 2
            # of the started pieces
            t = n + 1
            for run in launches.pop(n, ()):
                L, first, lag, base, period, spectra = run
                f = 2 * L
                k = int(first.searchsorted(t, "right"))
                times = np.arange(t, t + L)[:, None] - lag[:k]
                a_hat = np.fft.rfft(traces[base[:k] + times % period[:k]], n=f, axis=0)
                start = t % ring_len
                head = min(f - 1, ring_len - start)
                for rs in _row_ranges(L, row_hi):
                    out = np.fft.irfft(_product(a_hat, spectra[:, :k, rs]), n=f, axis=0)
                    ring[start: start + head, rs] += out[:head]
                    ring[: f - 1 - head, rs] += out[head: f - 1]
                if t + L <= n_max:
                    launches.setdefault(n + L, []).append(run)


def _row_ranges(block: int, rows: int) -> list[slice]:
    """Ranges of whole ``_ROW_BLOCK``s of rows whose spectra at ``block`` take about ``_LAUNCH_BYTES``."""
    height = max(1, _LAUNCH_BYTES // (16 * (block + 1) * _ROW_BLOCK)) * _ROW_BLOCK
    return [slice(r0, r0 + height) for r0 in range(0, rows, height)]


def _product(a_hat: np.ndarray, spectra: np.ndarray) -> np.ndarray:
    """sum_k a_hat[:, k] spectra[:, k]: (F, k) times (F, k, rows) into (F, rows).

    One ``np.matmul`` runs the frequencies and the whole blocks of w rows,
    each a product of the same shape, and one more the rows left over.  w
    is ``_ROW_BLOCK``, halved while k·w reaches ``_SERIAL_PRODUCT``, so a
    row's arithmetic depends only on k and its place in its block: not on
    the range of rows a launch passes (a multiple of ``_ROW_BLOCK`` rows
    from a multiple of it), and, below 4096 pieces, not on the BLAS thread
    count.
    """
    F, k, rows = spectra.shape
    w = _ROW_BLOCK
    while w > 1 and k * w >= _SERIAL_PRODUCT:
        w //= 2
    out = np.empty((F, rows), complex)
    c, cut = rows // w, rows - rows % w
    a = a_hat[:, None, :]
    if c:
        np.matmul(a, spectra[:, :, :cut].reshape(F, k, c, w).transpose(2, 0, 1, 3),
                  out=out[:, :cut].reshape(F, c, w).transpose(1, 0, 2)[:, :, None])
    if cut < rows:
        np.matmul(a, spectra[:, :, cut:], out=out[:, None, cut:])
    return out


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
