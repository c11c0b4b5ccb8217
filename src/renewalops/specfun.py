"""Special functions and normalization constants for regularly varying tails.

The asymptotics of renewal partial sums with tail index ``beta`` are
normalized by ``Gamma(1-beta) * Gamma(1+beta)`` and by a slowly varying
factor ``m(n)`` (the tail's slowly varying part for ``beta < 1``, its
harmonic partial sum at ``beta = 1``).  This module provides those
constants and a small closed family of slowly varying models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError

__all__ = [
    "gamma",
    "karamata_constant",
    "harmonic_sum",
    "expansion_order",
    "SlowlyVarying",
    "Norming",
]

# Strictly-positive slack for "(j+1)*beta - j > 0" comparisons: exponents that
# vanish only through float rounding (e.g. beta = 2/3) must not count.
_EXPONENT_TOL = 1e-12
# the most expansion terms computed: the count grows like beta/(1-beta), so
# without a cap it takes minutes near beta = 1 - 1e-6 and never ends at 1 - 1e-16
_ORDER_CAP = 10**4


def gamma(x: float) -> float:
    """Gamma function for real non-pole arguments.

    Relative error is at machine level on [0.05, 50].  Poles at the
    non-positive integers raise :class:`DomainError`.
    """
    if x <= 0 and float(x).is_integer():
        raise DomainError(f"gamma pole at non-positive integer x={x}")
    try:
        return math.gamma(x)
    except (ValueError, OverflowError) as exc:  # pragma: no cover - guarded above
        raise DomainError(f"gamma undefined at x={x}") from exc


def karamata_constant(beta: float) -> float:
    """Normalization ``Gamma(1-beta) * Gamma(1+beta)`` on [0, 1].

    The endpoint values are 1 by convention (both limits are finite only
    through the convention; the reflection formula gives
    ``pi*beta/sin(pi*beta)`` in the interior).
    """
    if not 0.0 <= beta <= 1.0:
        raise DomainError(f"beta={beta} outside [0, 1]")
    if beta == 0.0 or beta == 1.0:
        return 1.0
    return gamma(1.0 - beta) * gamma(1.0 + beta)


def harmonic_sum(ell: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    """Partial sum ``sum_{j=1}^{n} ell(j)/j`` (the beta=1 normalization)."""
    if n < 1:
        raise DomainError(f"n={n} must be >= 1")
    j = np.arange(1, n + 1, dtype=float)
    return float(np.sum(np.asarray(ell(j), dtype=float) / j))


def expansion_order(beta: float) -> int:
    """Largest j >= 0 with (j+1)*beta - j > 0; the expansion has j+1 terms.

    Equals 0 for beta <= 1/2 and grows like beta/(1-beta) as beta -> 1;
    raises where that exceeds ``_ORDER_CAP`` (beta above about 0.9999).
    """
    if not 0.0 < beta < 1.0:
        raise DomainError(f"beta={beta} outside (0, 1)")
    if beta / (1.0 - beta) > _ORDER_CAP:
        raise DomainError(f"the expansion at beta={beta} needs about {beta / (1.0 - beta):.3g} "
                          f"terms, above {_ORDER_CAP}")
    j = 0
    while (j + 2) * beta - (j + 1) > _EXPONENT_TOL:
        j += 1
    return j


@dataclass(frozen=True)
class SlowlyVarying:
    """A closed family of slowly varying models on ``x >= 2``.

    kind:
        ``"constant"``  -- ell(x) = c
        ``"log_power"`` -- ell(x) = c * log(x)**p  (p = -1 gives c/log)
    """

    kind: str = "constant"
    c: float = 1.0
    p: float = 0.0

    def __post_init__(self):
        if self.kind not in ("constant", "log_power"):
            raise DomainError(f"unknown slowly varying kind {self.kind!r}")
        if self.c <= 0:
            raise DomainError("scale c must be positive")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            out = np.full_like(x, self.c)
        else:
            out = self.c * np.log(x) ** self.p
        return out if out.ndim else float(out)


@dataclass(frozen=True)
class Norming:
    """Tail index, its Karamata constant and the norming function m(n)."""

    beta: float
    ell: SlowlyVarying = field(default_factory=SlowlyVarying)

    @property
    def constant(self) -> float:
        return karamata_constant(self.beta)

    def m(self, n) -> float:
        """m(n): ell(n) for beta < 1, the harmonic partial sum at beta = 1."""
        if self.beta < 1.0:
            return self.ell(n)
        return harmonic_sum(self.ell, int(n))

    def return_sequence(self, n) -> float:
        """Darling-Kac norming a_n = n**beta / (m(n) * constant); undefined where m(n) = 0."""
        m = self.m(n)
        if m == 0:
            raise DomainError(f"a_n is undefined at n = {n}, where m(n) = 0")
        return float(n) ** self.beta / (m * self.constant)
