"""Operator renewal recursion: actions of the return-block convolution.

With R_j the transfer-operator block of the branch with return time j, the
renewal family satisfies T_0 = I and T_n = sum_{j=1}^{n} R_j T_{n-j}.  The
engine computes the actions s_n = T_n s_0 for all n up to ``n_max``:

* exact path: the recursion with R_1..R_K (K = min(n_max, n_trunc)) laid
  out as one block-diagonal sparse matrix.  Step n is one product of its
  leading k = min(n, K) blocks with the contiguous history [s_{n-1}, ...,
  s_{n-k}], and the k block products are summed in branch order.  Each
  product row is formed exactly as a per-branch product forms it, so s_n
  is bit-identical to the literal sum_j R_j s_{n-j}; O(n_max^2) block
  applications, the reference for tests and small runs.
* fast path: branches with small return time are stacked into a single
  sparse matrix applied against a rolling history window; branches with
  large return time enter through per-source-cell kernels convolved with
  the scalar traces s_m[cell] by blocked FFT (overlap-add, scheduled so a
  block's inputs are complete before its first output is needed).  Both
  paths compute the same convolution; they differ only in floating-point
  ordering.

This module alone owns the fast path's layout.  ``FastLayout`` takes the
Ulam entries of the branches in order and decides the ``j_direct`` split,
the window's column order and the kernel group plan; ``_fast_steps``
derives the source cells it reads and takes the kernel spectra for one
run only.  Operator assembly just feeds it entries.

Everything here acts in Lebesgue form (fixed point of the block sum is the
invariant density).  Conversion to the measure-normalized form used in the
dual ergodic statements is a diagonal conjugation by the density, applied
by the callers at entry and exit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import DomainError

__all__ = ["FastLayout", "KernelGroup", "RenewalAccumulator", "renewal_action"]


# cap on a kernel group's branch span, so a block's FFT stays short
_SPAN_CAP = 1024


def _next_pow2(n: int) -> int:
    return 1 << max(0, int(n - 1).bit_length())


@dataclass
class KernelGroup:
    """Branches j in [glo, ghi) convolved by blocked FFT.

    ``kernels[i]`` holds the columns of R_j belonging to source cell i,
    shape (row_hi, ghi - glo); rows above ``row_hi`` are identically zero
    (the branch image is [1/2, sup of the left branch]).
    """

    glo: int
    ghi: int
    row_hi: int
    kernels: dict[int, np.ndarray] = field(default_factory=dict)

    @property
    def span(self) -> int:
        return self.ghi - self.glo

    @property
    def fft_len(self) -> int:
        return _next_pow2(2 * self.span)


class FastLayout:
    """Lays out the fast path's operands from Ulam entries, in branch order.

    Branches j < ``j_direct`` go to the stacked window, the rest up to
    ``n_trunc`` to the kernel groups; later branches are ignored.  The
    default ``j_direct`` is min(n_trunc + 1, 512), and any value is clamped
    to [2, n_trunc + 1].  Groups are dyadic branch ranges starting at
    ``j_direct``, each at most ``_SPAN_CAP`` branches and never longer than
    its first branch, so a block's inputs are complete before its first
    output is needed.  Rows at or above ``row_hi`` must be zero in every
    grouped branch.
    """

    def __init__(self, m: int, n_trunc: int, j_direct: int | None, row_hi: int):
        if j_direct is None:
            j_direct = min(n_trunc + 1, 512)
        self.m = m
        self.n_trunc = n_trunc
        self.j_direct = max(2, min(j_direct, n_trunc + 1))
        self.groups: list[KernelGroup] = []
        glo = self.j_direct
        while glo <= n_trunc:
            span = min(glo, _SPAN_CAP, n_trunc - glo + 1)
            self.groups.append(KernelGroup(glo, glo + span, row_hi))
            glo += span
        self._gi = 0
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
        lo = n_direct
        while lo < n_kept:
            while j0 + brow[lo] >= self.groups[self._gi].ghi:
                self._gi += 1
            g = self.groups[self._gi]
            hi = brow.searchsorted(g.ghi - j0)
            self._fill(g, j0 + brow[lo:hi], rows[lo:hi], cols[lo:hi], w[lo:hi])
            lo = hi

    @staticmethod
    def _fill(g: KernelGroup, j: np.ndarray, rows, cols, w):
        """Scatter entries of branches j (ascending) into g's per-source-cell kernels.

        New kernels are created in order of first branch, then source cell,
        as a branch-by-branch pass would; the engine sums their products in
        that order.
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

    def stacked(self) -> sp.csr_matrix | None:
        """The window [R_{jd}, ..., R_1] (jd = j_direct - 1), or None if empty."""
        if not self._w:
            return None
        m = self.m
        return sp.csr_matrix(
            (np.concatenate(self._w), (np.concatenate(self._rows), np.concatenate(self._cols))),
            shape=(m, (self.j_direct - 1) * m),
        )


@dataclass
class RenewalAccumulator:
    """Actions T_n applied to one observable, with running partial sums.

    ``tn_integral[n]`` is the measure integral of T_n v over Y (exactly the
    Lebesgue integral of the internal state).  ``snapshots[n]`` holds the
    measure-normalized partial sum S_n = sum_{j<=n} T_j v on the grid.
    """

    n_max: int
    path: str
    tn_integral: np.ndarray
    snapshots: dict[int, np.ndarray]
    s_all: np.ndarray | None = None


def _block_diagonal(branches: list[sp.csr_matrix], m: int) -> sp.csr_matrix:
    """diag(R_1, ..., R_K) with each block's rows stored exactly as in R_j.

    Joined directly rather than through ``sp.block_diag``, whose COO round
    trip may reorder a row's entries and with them the rounding.
    """
    nnz = np.cumsum([0] + [b.nnz for b in branches])
    data = np.concatenate([b.data for b in branches])
    indices = np.concatenate([b.indices + k * m for k, b in enumerate(branches)])
    indptr = np.concatenate([[0]] + [b.indptr[1:] + nnz[k] for k, b in enumerate(branches)])
    km = len(branches) * m
    return sp.csr_matrix((data, indices, indptr), shape=(km, km))


def _exact_steps(branches: list[sp.csr_matrix], s0: np.ndarray, n_max: int):
    """Generator of s_n = sum_{j<=min(n, K)} R_j s_{n-j}, K = len(branches).

    History lives in a doubled ring of 2K rows, newest first, so [s_{n-1},
    ..., s_{n-k}] is one contiguous slice.  Step n multiplies it by the
    leading k = min(n, K) blocks of diag(R_1, ..., R_K) in one product and
    sums the k block products along axis 0, from 0.0 and in branch order.
    Product rows start from 0 and add their entries in stored order, as a
    product with R_j alone does, so every s_n is bit-identical to the
    literal ``s = 0; s += R_j @ s_{n-j}`` for j = 1..k.
    """
    yield 0, s0
    if n_max == 0:
        return
    m = s0.shape[0]
    K = len(branches)
    diag = _block_diagonal(branches, m)
    data, indices, indptr = diag.data, diag.indices, diag.indptr
    ring = np.zeros((2 * K, m))
    ring[0] = ring[K] = s0
    for n in range(1, n_max + 1):
        k = min(n, K)
        p = -(n - 1) % K  # ring row of s_{n-1}
        end = indptr[k * m]
        lead = sp.csr_matrix((data[:end], indices[:end], indptr[: k * m + 1]),
                             shape=(k * m, k * m))
        s = (lead @ ring[p: p + k].ravel()).reshape(k, m).sum(axis=0, initial=0.0)
        p = -n % K
        ring[p] = ring[p + K] = s
        yield n, s


def _fast_steps(
    stacked: sp.csr_matrix | None,
    j_direct: int,
    groups: list[KernelGroup],
    s0: np.ndarray,
    n_max: int,
):
    """Generator of s_n via stacked window + blocked FFT convolutions.

    The window's column block jd - j (jd = j_direct - 1) holds R_j, as
    ``FastLayout`` lays it out.  Kernel spectra are taken at a group's
    first block and live as long as the generator.  A block launched after
    step n writes outputs n + 1 .. n + fft_len, only in the rows below
    ``row_hi``, so the pending outputs fit a ring of max fft_len + 1 times
    by ``row_hi`` cells.
    """
    m = s0.shape[0]
    jd = j_direct - 1
    hist2 = np.zeros((2 * jd, m))
    ring_len = max((g.fft_len for g in groups), default=0) + 1
    row_hi = max((g.row_hi for g in groups), default=0)
    ring = np.zeros((ring_len, row_hi))
    read_cells = np.array(sorted({i for g in groups for i in g.kernels}), dtype=np.int64)
    n_cells = len(read_cells)
    a_hist = np.zeros((n_max + 1, n_cells))
    cell_slot = {c: k for k, c in enumerate(read_cells)}
    next_m0 = [0] * len(groups)
    spectra: list[dict[int, np.ndarray] | None] = [None] * len(groups)

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
                window = hist2[lo: lo + jd]
                s += stacked @ window.ravel()
        # record history for the stacked window and the kernel traces
        r = n % jd
        hist2[r] = s
        hist2[jd + r] = s
        if n_cells:
            a_hist[n] = s[read_cells]
        yield n, s

        # blocked convolutions whose first affected output is n + 1
        for gi, g in enumerate(groups):
            while next_m0[gi] + g.glo == n + 1 and next_m0[gi] + g.glo <= n_max:
                m0 = next_m0[gi]
                c = g.span
                f = g.fft_len
                acc = None
                if spectra[gi] is None:
                    spectra[gi] = {i: np.fft.rfft(k, n=f, axis=1) for i, k in g.kernels.items()}
                for i, k_hat in spectra[gi].items():
                    a_chunk = a_hist[m0: m0 + c, cell_slot[i]]
                    if not np.any(a_chunk):
                        continue
                    a_hat = np.fft.rfft(a_chunk, n=f)
                    if acc is None:
                        acc = k_hat * a_hat
                    else:
                        acc += k_hat * a_hat
                next_m0[gi] += c
                if acc is None:
                    continue
                out_t = np.fft.irfft(acc, n=f, axis=1).T  # (f, row_hi)
                start = (m0 + g.glo) % ring_len
                first = min(f, ring_len - start)
                ring[start: start + first, : g.row_hi] += out_t[:first]
                if first < f:
                    ring[: f - first, : g.row_hi] += out_t[first:]


def renewal_action(
    op,
    v: np.ndarray,
    n_max: int,
    snapshot_ns: list[int] | None = None,
    path: str = "auto",
    keep_history: bool = False,
) -> RenewalAccumulator:
    """Run the renewal recursion on the measure-normalized observable v.

    ``op`` is an assembled induced operator; v lives on its grid.  Snapshots
    are taken of the partial sums S_n at the requested indices (n_max is
    always included).
    """
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    grid = op.grid
    h = op.density_values
    v = np.asarray(v, dtype=float)
    if v.shape != (grid.m,):
        raise DomainError("observable shape does not match the operator grid")
    if path == "auto":
        path = "fast" if (n_max + 1) * grid.m > 1 << 22 or n_max > 4 * op.j_direct else "exact"

    snapshot_ns = sorted(set((snapshot_ns or [])) | {n_max})
    s0 = h * v
    delta = grid.width
    tn = np.zeros(n_max + 1)
    snaps: dict[int, np.ndarray] = {}
    s_sum = np.zeros(grid.m)
    s_all = np.zeros((n_max + 1, grid.m)) if keep_history else None

    if path == "exact":
        steps = _exact_steps(op.leading_branches(min(n_max, op.n_trunc)), s0, n_max)
    elif path == "fast":
        steps = _fast_steps(op.stacked, op.j_direct, op.groups, s0, n_max)
    else:
        raise DomainError(f"unknown path {path!r}")

    snap_set = set(snapshot_ns)
    for n, s in steps:
        tn[n] = s.sum() * delta
        s_sum += s
        if s_all is not None:
            s_all[n] = s
        if n in snap_set:
            snaps[n] = s_sum / h  # back to measure-normalized form
    return RenewalAccumulator(n_max=n_max, path=path, tn_integral=tn, snapshots=snaps, s_all=s_all)
