"""Interval maps with an indifferent fixed point at 0 and their first-return data.

Two concrete families are implemented on [0, 1], each with the full right
branch 2x - 1 on (1/2, 1):

* ``lsv``  -- left branch x * (1 + (2x)**alpha), alpha >= 1.  The tail of the
  first-return time to Y = [1/2, 1] is regularly varying with index
  beta = 1/alpha.
* ``lsv0`` -- left branch x * (1 + x * exp(-1/x)).  The return-time tail is
  slowly varying (proportional to 1/log n), the beta = 0 regime.

The backward orbit x_1 = 1/2, f(x_{n+1}) = x_n of the left branch encodes
the return-time level sets: the return time equals n exactly on
[y_n, y_{n-1}] with y_n = (x_n + 1)/2.  The orbit is the one-edge
pullback ladder of ``ladder.BranchLadder``, whose monotone Newton iteration
is safe because both left branches are increasing and convex on (0, 1/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError
from .grid import GridObservable
from .specfun import SlowlyVarying

if TYPE_CHECKING:
    from .ladder import BranchLadder

__all__ = [
    "MapSpec",
    "TailModel",
    "tail_sequence",
    "return_time_tail",
]

# operands of the left-branch evaluations, as 0-d arrays: numpy converts a
# Python float operand on every call
_ONE, _TWO, _MINUS_ONE = np.array(1.0), np.array(2.0), np.array(-1.0)


@dataclass(frozen=True)
class MapSpec:
    """Which map family, plus derived constants."""

    family: str = "lsv"
    alpha: float = 2.0

    def __post_init__(self):
        if self.family not in ("lsv", "lsv0"):
            raise DomainError(f"unknown family {self.family!r}")
        if self.family == "lsv" and self.alpha < 1.0:
            raise DomainError("alpha >= 1 required for the infinite-measure regime")

    @property
    def beta(self) -> float:
        """Regular-variation index of the return-time tail (0 for lsv0)."""
        return 1.0 / self.alpha if self.family == "lsv" else 0.0

    def left(self, x: float) -> float:
        """Left branch on (0, 1/2)."""
        if self.family == "lsv":
            return x * (1.0 + (2.0 * x) ** self.alpha)
        return x * (1.0 + x * math.exp(-1.0 / x))

    def left_np(self, x: np.ndarray, share: np.ndarray, tmp: np.ndarray,
                out: np.ndarray) -> np.ndarray:
        """Left branch of the array x, written into ``out``.

        ``share`` receives the power (2x)**alpha or exp(-1/x) that
        ``left_deriv_np`` reuses; ``tmp`` is scratch.  The four arrays have
        x's shape and do not overlap.  Only the power and exp run in place,
        where numpy takes the same SIMD loop as on a fresh output; any other
        output that is also an input would cost numpy an overlap check,
        which dominates on a one-cell row.
        """
        if self.family == "lsv":
            np.multiply(_TWO, x, share)
            share **= self.alpha
            np.add(_ONE, share, tmp)
        else:
            np.divide(_MINUS_ONE, x, share)
            np.exp(share, share)
            np.multiply(x, share, out)
            np.add(out, _ONE, tmp)
        return np.multiply(x, tmp, out)

    def left_deriv_np(self, x: np.ndarray, share: np.ndarray, tmp: np.ndarray,
                      out: np.ndarray) -> np.ndarray:
        """Derivative of the left branch at x into ``out``, from ``left_np``'s ``share``."""
        if self.family == "lsv":
            np.multiply(self.alpha + 1.0, share, tmp)
        else:
            np.multiply(_TWO, x, tmp)
            np.add(tmp, _ONE, out)
            np.multiply(out, share, tmp)
        return np.add(tmp, _ONE, out)

    @property
    def left_image_sup(self) -> float:
        """sup of the left branch at 1/2- (1 for lsv, below 3/4 for lsv0)."""
        return self.left(0.5)


def tail_sequence(spec: MapSpec, n: int) -> BranchLadder:
    """Tabulate x_1..x_n, the backward orbit of 1/2 along the left branch.

    Returns the one-edge ``BranchLadder`` over [1/2] with n - 1 rungs, its
    orbit already pulled back: ``x_tail`` is the orbit and ``x_n``/``y_n``
    read single points.
    """
    from .ladder import BranchLadder  # ladder imports this module

    if n < 1:
        raise DomainError("need n >= 1")
    tail = BranchLadder(spec, np.array([0.5]), n - 1)
    tail.x_tail  # pulls the orbit back here, not on the caller's first read
    return tail


def return_time_tail(tail: BranchLadder, density: GridObservable, n):
    """Measure of {return time > n} in Y, via the density on [1/2, 1].

    The set {return time > n} is [1/2, y_n], so the value is the cumulative
    integral of the density up to y_n, read off the orbit of ``tail`` (a
    ``tail_sequence`` or an assembly ladder) with y_0 = 1: n = 0 gives the
    full mass.  ``n`` may be an array of times in 0..n_rungs + 1: the
    result has its shape and comes from one ``cumulative_at``.
    """
    n = np.asarray(n)
    if (n < 0).any() or (n > tail.n_rungs + 1).any():
        raise DomainError(f"n outside the tabulated orbit 0..{tail.n_rungs + 1}")
    y = np.concatenate([[1.0], 0.5 * (tail.x_tail + 1.0)])[n]
    out = density.cumulative_at(y).reshape(n.shape)
    return float(out) if out.ndim == 0 else out


@dataclass
class TailModel:
    """Model of the return-time tail: c*(n**-beta + H(n)) or 1/ell(n).

    For the power form, H is carried as a tabulated array (index n = 1..N)
    with an O(n**-2beta) power extrapolation beyond the table, the decay
    under which the second-order constant converges.
    For the slowly varying form (beta = 0), the tail is 1/ell(n).
    """

    beta: float
    c: float = 1.0
    h_table: np.ndarray | None = None
    ell: SlowlyVarying | None = None

    def __post_init__(self):
        if self.h_table is not None:
            self.h_table = np.asarray(self.h_table, dtype=float)

    def H(self, n) -> np.ndarray:
        """Tail correction H(n); 0 if no table was supplied."""
        n = np.atleast_1d(np.asarray(n, dtype=float))
        if self.h_table is None or len(self.h_table) == 0:
            return np.zeros_like(n)
        N = len(self.h_table)
        out = np.empty_like(n)
        inside = n <= N
        idx = np.clip(n[inside].astype(int), 1, N) - 1
        out[inside] = self.h_table[idx]
        # power extrapolation pinned at the last table entry
        out[~inside] = self.h_table[-1] * (n[~inside] / N) ** (-2.0 * self.beta)
        return out

    def tail(self, n) -> np.ndarray:
        """mu(return time > n); n = 0 gives 1."""
        n = np.atleast_1d(np.asarray(n, dtype=float))
        out = np.ones_like(n)
        pos = n >= 1
        if self.ell is not None:
            out[pos] = 1.0 / np.asarray(self.ell(n[pos]), dtype=float)
        else:
            out[pos] = self.c * (n[pos] ** (-self.beta) + self.H(n[pos]))
        return out
