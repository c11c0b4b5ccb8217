"""Backward-orbit ladders of the left branch, evaluated on whole edge arrays.

The first-return map of Y = [1/2, 1] has one smooth branch per return time
n: a right-branch step followed by n-1 left-branch steps.  Its inverse at a
point e in Y is obtained by pulling e back n-1 times through the left
branch and then through the right branch.  Assembling the discretized
branch family therefore reduces to iterating the left-branch inverse on the
array of grid edges: rung k of the ladder holds the k-fold pullback of
every edge, and branch n's geometry is rung n-1 mapped through
(w + 1) / 2.

Each rung is pulled back once.  The ladder advances a frontier on demand:
the first sweep past it computes the new rungs, recording the scalar orbit
and a checkpoint row every ``checkpoint_stride`` rungs in one preallocated
array, and later sweeps restart from the nearest checkpoint.  Edges at or
above the left-branch image sup share one clamped value, so only the
distinct columns are pulled back (71 of 1025 for lsv0 at grid 1024); the
swept rows stop at the shared column, and ``rung`` pads back to full width.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .maps import MapSpec

__all__ = ["BranchLadder"]

_TOL = 1e-15
_MAX_ITER = 60


def _pullback_row(spec: MapSpec, targets: np.ndarray, w0: np.ndarray) -> np.ndarray:
    """Solve left(w) = target elementwise by monotone Newton from above.

    Requires left(w0) >= target; convexity of the left branch keeps the
    iterates above the root and decreasing.
    """
    w = w0.copy()
    fw = spec.left_np(w)
    for _ in range(_MAX_ITER):
        err = fw - targets
        if np.abs(err).max() <= _TOL:
            return w
        w -= err / spec.left_deriv_np(w)
        np.maximum(w, 1e-300, out=w)
        fw = spec.left_np(w)
    if np.abs(fw - targets).max() > 1e-12:
        raise NumericalError("vectorized left-branch pullback stalled")
    return w


@dataclass
class BranchLadder:
    """Left-branch pullback ladder over a fixed edge array.

    ``x_tail[k]`` is the scalar backward orbit (x_1 = 1/2 at index 0) and is
    tabulated to ``n_rungs + 1`` entries so branch domains [y_n, y_{n-1}]
    are available for every swept branch.
    """

    spec: MapSpec
    edges: np.ndarray
    n_rungs: int
    checkpoint_stride: int = 128

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)
        if self.edges[0] != 0.5:
            raise NumericalError("ladder edge array must start at 1/2")
        # Edges at or above the left-branch image sup are pinned just below it:
        # branches n >= 2 carry no mass there and their pullbacks plateau.
        cap = self.spec.left_image_sup * (1.0 - 1e-14)
        n_live = int(np.searchsorted(self.edges, cap, side="left"))
        row = np.minimum(self.edges[: n_live + 1], cap)
        self._checkpoints = np.empty((self.n_rungs // self.checkpoint_stride + 1, row.size))
        self._checkpoints[0] = row
        self._x = np.empty(self.n_rungs + 1)
        self._x[0] = 0.5
        self._frontier = 0  # highest rung computed so far
        self._row = row  # the frontier rung

    def _pull(self, k: int, row: np.ndarray) -> np.ndarray:
        """Rung k + 1 from rung k, recorded when it lies past the frontier."""
        row = _pullback_row(self.spec, row, row)
        k += 1
        if k > self._frontier:
            self._x[k] = row[0]  # the 1/2-edge column is the scalar backward orbit
            if k % self.checkpoint_stride == 0:
                self._checkpoints[k // self.checkpoint_stride] = row
            self._frontier, self._row = k, row
        return row

    def _rungs(self, k_lo: int, k_hi: int):
        """Yield (k, distinct-column row of rung k) for k in [k_lo, k_hi)."""
        if k_lo >= k_hi:
            return
        if k_lo >= self._frontier:
            k, row = self._frontier, self._row
        else:
            base = k_lo // self.checkpoint_stride
            k, row = base * self.checkpoint_stride, self._checkpoints[base]
        while k < k_lo:
            row = self._pull(k, row)
            k += 1
        yield k, row
        for k in range(k_lo + 1, k_hi):
            row = self._pull(k - 1, row)
            yield k, row

    def _full_width(self, row: np.ndarray) -> np.ndarray:
        return np.pad(row, (0, self.edges.size - row.size), mode="edge")

    @property
    def x_tail(self) -> np.ndarray:
        """x_tail[k] = x_{k+1}; completes the ladder on first use."""
        if self._frontier < self.n_rungs:
            next(self._rungs(self.n_rungs, self.n_rungs + 1))
        return self._x

    def x_n(self, n: int) -> float:
        """n-th element of the backward orbit, x_1 = 1/2."""
        return float(self.x_tail[n - 1])

    def y_n(self, n: int) -> float:
        if n == 0:
            return 1.0
        return 0.5 * (self.x_n(n) + 1.0)

    def rung(self, k: int) -> np.ndarray:
        """Pullback row W^(k) at every edge (k = 0 is the clamped edge array)."""
        _, row = next(self._rungs(k, k + 1))
        return self._full_width(row)

    def sweep(self, j_lo: int, j_hi: int):
        """Yield (j, g_row) for branches j in [j_lo, j_hi).

        ``g_row`` holds the branch inverse at the edges; for branch 1 this is
        the right-branch inverse of the raw edges, for n >= 2 the ladder rung
        n - 1 lifted, over the distinct columns only (the edges beyond them
        share the last column's value).
        """
        if j_lo < 1 or j_hi > self.n_rungs + 2:
            raise NumericalError("branch range outside tabulated ladder")
        if j_lo == 1 and j_hi > 1:
            yield 1, 0.5 * (self.edges + 1.0)
        for k, row in self._rungs(max(j_lo, 2) - 1, j_hi - 1):
            yield k + 1, 0.5 * (row + 1.0)

    def top_tail_cumulative(self) -> tuple[np.ndarray, float]:
        """Cumulative geometry of all branches beyond the ladder.

        Returns (per-edge cumulative sum_{j>n_rungs+1} (g_j(e) - y_j), total
        read-region width x_{n_rungs+1}/2).  The per-branch terms decay like
        j**-(beta+1) (power family) or 1/(j log^2 j) (log family); the sum is
        estimated from the last tabulated rung by the corresponding integral
        tail factor.
        """
        x_last = self.x_tail[-1]  # completes the ladder: the frontier is the last rung
        K = self.n_rungs + 1  # last branch with tabulated geometry
        t_last = 0.5 * (self._full_width(self._row) - x_last)
        if self.spec.family == "lsv":
            factor = K / self.spec.beta
        else:
            factor = K * np.log(K)
        return t_last * factor, 0.5 * float(x_last)
