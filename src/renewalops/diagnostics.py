"""Log-log slope fits for asymptotic-rate diagnostics."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["SlopeFit", "slope_fit"]


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    stderr: float

    @property
    def halfwidth(self) -> float:
        """~95% confidence halfwidth."""
        return 2.0 * self.stderr


def slope_fit(n: np.ndarray, values: np.ndarray) -> SlopeFit:
    """Least-squares slope of log|values| against log n.

    Zero entries are floored at 1e-300 so transient exact cancellations do
    not poison the fit.
    """
    n = np.asarray(n, dtype=float)
    v = np.abs(np.asarray(values, dtype=float))
    if n.shape != v.shape or n.size < 3:
        raise DomainError("slope fit needs >= 3 matching samples")
    x = np.log(n)
    y = np.log(np.maximum(v, 1e-300))
    a, b = np.polyfit(x, y, 1)
    resid = y - (a * x + b)
    dof = max(n.size - 2, 1)
    sxx = np.sum((x - x.mean()) ** 2)
    stderr = float(np.sqrt(np.sum(resid**2) / dof / sxx)) if sxx > 0 else np.inf
    return SlopeFit(slope=float(a), intercept=float(b), stderr=stderr)
