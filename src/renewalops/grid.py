"""Uniform cell grids on the base interval and piecewise-constant observables."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError

__all__ = ["Grid", "GridObservable"]


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [lo, hi] into m cells."""

    m: int
    lo: float = 0.5
    hi: float = 1.0

    def __post_init__(self):
        if self.m < 1:
            raise DomainError("grid needs at least one cell")
        if not self.lo < self.hi:
            raise DomainError("grid endpoints out of order")

    @cached_property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.m + 1)

    @property
    def width(self) -> float:
        return (self.hi - self.lo) / self.m

    def cell_of(self, x: float) -> int:
        """Index of the cell containing x (right-closed at hi)."""
        if not self.lo <= x <= self.hi:
            raise DomainError(f"x={x} outside [{self.lo}, {self.hi}]")
        return min(int((x - self.lo) / self.width), self.m - 1)


@dataclass
class GridObservable:
    """Cell-averaged values on a :class:`Grid`."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.m,):
            raise DomainError("observable shape does not match grid")

    def integral(self) -> float:
        """Lebesgue integral of the piecewise-constant representative."""
        return float(self.values.sum() * self.grid.width)

    def cumulative_at(self, x) -> np.ndarray:
        """Exact cumulative integral of the piecewise-constant function at x."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        e = self.grid.edges
        cums = np.concatenate([[0.0], np.cumsum(self.values) * self.grid.width])
        idx = np.clip(np.searchsorted(e, x, side="right") - 1, 0, self.grid.m - 1)
        out = cums[idx] + self.values[idx] * (np.clip(x, e[0], e[-1]) - e[idx])
        return out
