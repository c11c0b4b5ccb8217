"""Backward-orbit ladders of the left branch, evaluated on whole edge arrays.

The first-return map of Y = [1/2, 1] has one smooth branch per return time
n: a right-branch step followed by n-1 left-branch steps.  Its inverse at a
point e in Y is obtained by pulling e back n-1 times through the left
branch and then through the right branch.  Assembling the discretized
branch family therefore reduces to iterating the left-branch inverse on the
array of grid edges: rung k of the ladder holds the k-fold pullback of
every edge, and branch n's geometry is rung n-1 mapped through
(w + 1) / 2.

The ladder advances a frontier on demand: the first sweep past it computes
the new rungs and records the scalar orbit in one preallocated array, and
a sweep that starts below the frontier pulls back again from rung 0.
Edges at or above the left-branch image sup share one clamped value, so
only the distinct columns are pulled back (71 of 1025 for lsv0 at grid
1024); the swept rows stop at the shared column.

Sweeps hand out branches in blocks of up to ``sweep_block`` rows that end
at multiples of ``sweep_block`` rungs.  One ``pullback_rows`` call writes a
block's rungs straight into a block buffer and each block is lifted in one
operation, so the consumers in ``induced`` extract a whole block's Ulam
entries at once.

The distinct columns are few (71 above), so numpy's per-call overhead, not
the arithmetic, sets the Newton's cost.  Its values live in scratch that a
sweep allocates once and passes from rung to rung: each rung's Newton
starts at its target with the left(w) that the previous rung's last check
left there, f'(w) is evaluated only when an update follows, and the
convergence check tests the whole row only once its last column passes.
Every ufunc that runs, runs in the order of the allocating Newton that the
tests keep as their reference, so each rung and ``x_tail`` match it bit
for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import NumericalError
from .maps import MapSpec

__all__ = ["BranchLadder", "pullback_rows", "integral_tail_factor"]

_TOL = 1e-15
_MAX_ITER = 60
_FLOOR = np.array(1e-300)  # keeps iterates positive; 0-d, like maps' constants


def pullback_rows(spec: MapSpec, prev: np.ndarray, rows: np.ndarray,
                  work: tuple[np.ndarray, ...]) -> np.ndarray:
    """Fill rows[i] = left^-1(rows[i-1]), reading rows[-1] as ``prev``; return ``rows``.

    This is the package's one left-branch inverse: each row is solved by
    monotone Newton from w = target, elementwise.  Requires
    0 < target < ``spec.left_image_sup`` (callers clamp targets at or above
    the sup to ``sup * (1 - 1e-14)``); convexity of the left branch keeps
    the iterates above the root and decreasing.  ``prev`` must not overlap
    ``rows``.  ``work`` is four scratch arrays of a row's shape and must
    come in holding left(prev) in ``work[2]`` and its share in ``work[0]``,
    as ``spec.left_np(prev, *work[:3])`` leaves them; the call leaves them
    so for the last row, so a chain of pullbacks evaluates each point once.

    The convergence test max|err| <= tol reads err[-1] first: while
    |err[-1]| > tol the maximum exceeds tol too, so the row-wide abs and
    reduce are skipped without changing any decision or iterate (a NaN
    falls through to them).  left(x) - x increases on (0, 1/2) in both
    families, so the last column, the largest target, converges last.
    """
    left, deriv = spec.left_np, spec.left_deriv_np
    share, a, b, c = work
    targets = prev
    for w in rows:
        w[...] = targets
        for _ in range(_MAX_ITER):
            err = np.subtract(b, targets, c)
            if abs(err.item(-1)) <= _TOL and np.maximum.reduce(np.abs(err, a), axis=None) <= _TOL:
                break
            step = np.divide(err, deriv(w, share, a, b), a)
            np.maximum(np.subtract(w, step, b), _FLOOR, out=w)
            left(w, share, a, b)
        else:
            if np.maximum.reduce(np.abs(np.subtract(b, targets, c), a), axis=None) > 1e-12:
                raise NumericalError("vectorized left-branch pullback stalled")
        targets = w
    return rows


def integral_tail_factor(spec: MapSpec, k: int) -> float:
    """Factor F with sum_{j>k} t_j ~ t_k * F for terms decaying like the tail.

    The terms decay like j**-(beta+1) (power family, F = k / beta) or like
    1/(j log^2 j) (log family, F = k log k); the estimate is the integral
    of that decay from k on.
    """
    if spec.family == "lsv":
        return k / spec.beta
    return k * float(np.log(max(k, 2)))


@dataclass
class BranchLadder:
    """Left-branch pullback ladder over a fixed edge array.

    ``x_tail[k]`` is the scalar backward orbit (x_1 = 1/2 at index 0) and is
    tabulated to ``n_rungs + 1`` entries, so the branch domains, whose ends
    are ``0.5 * (x_tail + 1)``, are available for every swept branch.  A
    ladder over the single edge 1/2 is just that orbit (``maps.tail_sequence``).
    """

    spec: MapSpec
    edges: np.ndarray
    n_rungs: int
    sweep_block: ClassVar[int] = 128  # rungs per swept block

    def __post_init__(self):
        self.edges = np.asarray(self.edges, dtype=float)
        if self.edges[0] != 0.5:
            raise NumericalError("ladder edge array must start at 1/2")
        # Edges at or above the left-branch image sup are pinned just below it:
        # branches n >= 2 carry no mass there and their pullbacks plateau.
        cap = self.spec.left_image_sup * (1.0 - 1e-14)
        n_live = int(np.searchsorted(self.edges, cap, side="left"))
        self._row0 = np.minimum(self.edges[: n_live + 1], cap)
        self._x = np.empty(self.n_rungs + 1)
        self._x[0] = 0.5
        self._frontier = 0  # highest rung computed so far
        self._row = self._row0  # the frontier rung

    def _rungs(self, k_lo: int, k_hi: int):
        """Yield (k0, rows): rows[i] is distinct-column rung k0 + i.

        The blocks cover [k_lo, k_hi) and end at multiples of
        ``sweep_block``; ``rows`` is a view of a buffer that the next block
        reuses.  Below the frontier the pullbacks restart from rung 0.
        """
        if k_lo >= k_hi:
            return
        stride = self.sweep_block
        k, prev = (self._frontier, self._row) if k_lo >= self._frontier else (0, self._row0)
        buf = np.empty((min(stride, k_hi - k), prev.size))
        work = tuple(np.empty((4, prev.size)))  # Newton scratch, passed from rung to rung
        self.spec.left_np(prev, work[0], work[1], work[2])
        k0 = k  # the first block starts on the known rung k, later ones after it
        while k0 < k_hi:
            k1 = min(k_hi, (k0 // stride + 1) * stride)
            rows = buf[: k1 - k0]
            if k0 == k:
                rows[0] = prev
            pullback_rows(self.spec, prev, rows[int(k0 == k):], work)
            # the 1/2-edge column is the scalar backward orbit
            self._x[k0:k1] = rows[:, 0]
            prev = rows[-1].copy()
            if k1 - 1 > self._frontier:
                self._frontier, self._row = k1 - 1, prev
            if k1 > k_lo:
                yield max(k0, k_lo), rows[max(0, k_lo - k0):]
            k0 = k1

    def _full_width(self, row: np.ndarray) -> np.ndarray:
        return np.pad(row, (0, self.edges.size - row.size), mode="edge")

    @property
    def x_tail(self) -> np.ndarray:
        """x_tail[k] = x_{k+1}; completes the ladder on first use."""
        if self._frontier < self.n_rungs:
            next(self._rungs(self.n_rungs, self.n_rungs + 1))
        return self._x

    def sweep(self, j_lo: int, j_hi: int):
        """Yield blocks (j0, G) covering branches j in [j_lo, j_hi).

        ``G[i]`` holds the inverse of branch j0 + i at the edges.  Branch 1,
        the right-branch inverse of the raw edges, is a full-width block of
        its own; for j >= 2 the rows are ladder rungs j - 1 lifted, over the
        distinct columns only (the edges beyond them share the last
        column's value), up to ``sweep_block`` rows per block.
        """
        if j_lo < 1 or j_hi > self.n_rungs + 2:
            raise NumericalError("branch range outside tabulated ladder")
        if j_lo == 1 and j_hi > 1:
            yield 1, (0.5 * (self.edges + 1.0))[None]
        for k0, rows in self._rungs(max(j_lo, 2) - 1, j_hi - 1):
            yield k0 + 1, 0.5 * (rows + 1.0)

    def top_tail_cumulative(self) -> tuple[np.ndarray, float]:
        """Cumulative geometry of all branches beyond the ladder.

        Returns (per-edge cumulative sum_{j>n_rungs+1} (g_j(e) - y_j), total
        read-region width x_{n_rungs+1}/2).  The sum is estimated from the
        last tabulated rung by ``integral_tail_factor``.
        """
        x_last = self.x_tail[-1]  # completes the ladder: the frontier is the last rung
        K = self.n_rungs + 1  # last branch with tabulated geometry
        t_last = 0.5 * (self._full_width(self._row) - x_last)
        return t_last * integral_tail_factor(self.spec, K), 0.5 * float(x_last)
