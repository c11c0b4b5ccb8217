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

__all__ = ["KernelGroup", "RenewalAccumulator", "renewal_action"]


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

    def spectra(self) -> dict[int, np.ndarray]:
        if not hasattr(self, "_spectra"):
            self._spectra = {
                i: np.fft.rfft(k, n=self.fft_len, axis=1) for i, k in self.kernels.items()
            }
        return self._spectra

    def drop_spectra(self):
        if hasattr(self, "_spectra"):
            del self._spectra


def plan_groups(j_direct: int, n_trunc: int, span_cap: int = 1024) -> list[tuple[int, int]]:
    """Dyadic branch ranges, span capped so chunks precede their outputs."""
    out = []
    glo = j_direct
    while glo <= n_trunc:
        span = min(glo, span_cap, n_trunc - glo + 1)
        out.append((glo, glo + span))
        glo += span
    return out


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

    def partial_integral(self, n: int) -> float:
        """Integral of S_n over Y against the invariant measure."""
        return float(self.tn_integral[: n + 1].sum())


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
    read_cells: np.ndarray,
    s0: np.ndarray,
    n_max: int,
):
    """Generator of s_n via stacked window + blocked FFT convolutions."""
    m = s0.shape[0]
    jd = max(j_direct - 1, 1)
    hist2 = np.zeros((2 * jd, m))
    max_f = max((g.fft_len for g in groups), default=2)
    ring_len = _next_pow2(max_f + 2)
    ring = np.zeros((ring_len, m))
    n_cells = len(read_cells)
    a_hist = np.zeros((n_max + 1, n_cells))
    cell_slot = {c: k for k, c in enumerate(read_cells)}
    next_m0 = [0] * len(groups)

    for n in range(0, n_max + 1):
        if n == 0:
            s = s0.copy()
        else:
            slot = n % ring_len
            s = ring[slot].copy()
            ring[slot] = 0.0
            if stacked is not None:
                lo = n % jd if n >= 1 else 0
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
                for i, k_hat in g.spectra().items():
                    a_chunk = a_hist[m0: m0 + c, cell_slot[i]]
                    if not np.any(a_chunk):
                        continue
                    a_hat = np.fft.rfft(a_chunk, n=f)
                    contrib = k_hat * a_hat
                    acc = contrib if acc is None else acc + contrib
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
        steps = _fast_steps(
            op.stacked, op.j_direct, op.groups, op.read_cells, s0, n_max
        )
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
    for g in op.groups:
        g.drop_spectra()
    return RenewalAccumulator(n_max=n_max, path=path, tn_integral=tn, snapshots=snaps, s_all=s_all)
