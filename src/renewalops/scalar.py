"""Scalar renewal sequences with heavy-tailed lifetimes.

For i.i.d. positive integer lifetimes with probabilities f_j, the renewal
sequence is u_0 = 1, u_n = sum_{j=1}^n f_j u_{n-j}.  With regularly varying
tails sum_{j>n} f_j = ell(n) n**-beta, Karamata's Tauberian theorem gives
the first-order law

    U_n = sum_{j<=n} u_j ~ n**beta / (Gamma(1-beta) Gamma(1+beta) m(n)),

and when the tail has the form c(n**-beta + H(n)) with H = O(n**-2beta) and
beta > 1/2, the complex Tauberian kernel method upgrades this to a full
expansion with exponents (j+1)beta - j and coefficients built from powers
of a single second-order constant:

    c Gamma(1-beta) U_n = sum_j d_j n**((j+1)beta - j) + O(n**eps),
    d_j = c_H**j / Gamma((j+1)beta - (j-1)),

where c_H = -Gamma(1-beta)**-1 * integral of [x]**-beta - x**-beta + H([x])
over (0, infinity).  This module computes the sequences, the constant
c_H, the expansion, and residual diagnostics for it.  The first-order law
itself is ``Norming.return_sequence`` in ``specfun``.

The sequence comes from a divide and conquer whose levels are FFT
products against f and whose leaves are one Toeplitz product each with
the renewal sequence of a leaf's length, which the quadratic recursion
builds (see ``_renewal_fft``).  The scalar renewal is the operator renewal
on one cell, but it keeps this schedule rather than running through
``renewal_engine``: at 2e4 steps (beta = 0.75, one BLAS thread, 2-core
x86 host) the engine on a one-cell operator with ``j_direct`` 512 took
0.33-0.38 s where ``_renewal_fft`` took 0.010-0.016 s, over 20 times as
long, because it pays per-step Python and sparse-product overhead that
this recursion does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .diagnostics import slope_fit
from .errors import DomainError
from .specfun import expansion_order, gamma

__all__ = [
    "ReturnDistribution",
    "ScalarRenewal",
    "AsymptoticExpansion",
    "renewal_sequence",
    "second_order_constant",
    "SecondOrderConstant",
    "residual_diagnostics",
]

_FFT_BASE = 1024


@dataclass
class ReturnDistribution:
    """Lifetime probabilities f_j (index j, f[0] = 0) plus an analytic tail.

    ``tail`` evaluates sum_{j>n} f_j; beyond the stored probabilities the
    analytic tail carries the remaining mass, so stored mass plus tail(N)
    must equal 1.
    """

    f: np.ndarray
    tail: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        self.f = np.asarray(self.f, dtype=float)
        if self.f.ndim != 1 or len(self.f) < 2:
            raise DomainError("need probabilities indexed 0..N with N >= 1")
        if self.f[0] != 0.0:
            raise DomainError("lifetimes are positive: f[0] must be 0")
        if np.any(self.f < -1e-15):
            raise DomainError("negative lifetime probability")
        total = self.f.sum() + self.tail_mass()
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"total mass {total} != 1")

    @property
    def n_stored(self) -> int:
        return len(self.f) - 1

    def tail_mass(self) -> float:
        if self.tail is None:
            return 0.0
        return float(np.atleast_1d(self.tail(np.array([self.n_stored])))[0])

    @classmethod
    def from_power_tail(cls, beta: float, n_max: int, c: float = 1.0) -> "ReturnDistribution":
        """Tails exactly c * n**-beta for n >= 1 (requires c <= 1)."""
        if not 0.0 < beta <= 1.0 or not 0.0 < c <= 1.0:
            raise DomainError("need beta in (0, 1] and c in (0, 1]")
        n = np.arange(0, n_max + 1, dtype=float)
        tails = np.ones(n_max + 1)
        tails[1:] = c * n[1:] ** (-beta)
        f = np.zeros(n_max + 1)
        f[1:] = tails[:-1] - tails[1:]
        return cls(f, tail=lambda m: c * np.asarray(m, dtype=float) ** (-beta))


@dataclass
class ScalarRenewal:
    """Renewal sequence and its partial sums."""

    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)

    @property
    def n_max(self) -> int:
        return len(self.u) - 1

    @property
    def partial_sums(self) -> np.ndarray:
        if not hasattr(self, "_cum"):
            self._cum = np.cumsum(self.u)
        return self._cum

    def U(self, n) -> np.ndarray:
        return self.partial_sums[np.asarray(n, dtype=int)]


def _renewal_direct(f: np.ndarray, n_max: int) -> np.ndarray:
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    jmax = len(f) - 1
    for n in range(1, n_max + 1):
        j = min(n, jmax)
        u[n] = np.dot(f[1: j + 1], u[n - 1:: -1][: j])
    return u


def _renewal_fft(f: np.ndarray, n_max: int) -> np.ndarray:
    """Divide and conquer over [0, n_max]: relaxed online convolution.

    Each node [lo, hi) solves its left half, adds that half's contribution
    to the right half with one FFT product against f, then solves the
    right half, for O(n log^2 n) in all (van der Hoeven's relaxed
    multiplication).  Each rfft of a prefix of f is taken once per call.

    A leaf of at most ``_FFT_BASE`` steps holds b, the contributions of
    all earlier steps, and must solve (I - T_f) u = b with T_f the strictly
    lower triangular Toeplitz matrix of f.  Its inverse is the lower
    triangular Toeplitz matrix of g, the renewal sequence itself over one
    leaf's length, so the leaf is the product u = g * b.  That product is
    an ``np.convolve`` (direct sums), not an FFT: the first leaf has
    b = e_0 and then reproduces ``_renewal_direct`` bit for bit, so exact
    zeros such as u_1 for lattice f stay exactly zero.
    """
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    f = np.asarray(f, dtype=float)
    jmax = len(f) - 1
    g = _renewal_direct(f, min(_FFT_BASE, n_max))
    spectra: dict[tuple[int, int], np.ndarray] = {}

    def solve(lo: int, hi: int):
        if hi - lo <= _FFT_BASE:
            u[lo:hi] = np.convolve(g[: hi - lo], u[lo:hi])[: hi - lo]
            return
        mid = (lo + hi) // 2
        solve(lo, mid)
        lf = min(hi - lo, jmax + 1)
        # size >= hi - lo: the cyclic product wraps only terms at index
        # >= size, which land below mid - lo and are never read
        size = 1 << (hi - lo - 1).bit_length()
        if (lf, size) not in spectra:
            spectra[lf, size] = np.fft.rfft(f[:lf], size)
        ua = np.fft.rfft(u[lo:mid], size)
        conv = np.fft.irfft(spectra[lf, size] * ua, size)
        u[mid:hi] += conv[mid - lo: hi - lo]
        solve(mid, hi)

    solve(0, n_max + 1)
    return u


def renewal_sequence(dist: ReturnDistribution, n_max: int) -> ScalarRenewal:
    """Renewal sequence to n_max (``_renewal_fft``)."""
    if n_max < 0:
        raise DomainError("n_max must be >= 0")
    if n_max > dist.n_stored and dist.tail_mass() > 1e-12:
        raise DomainError(
            f"probabilities stored to {dist.n_stored} but n_max={n_max} needs more"
        )
    return ScalarRenewal(_renewal_fft(dist.f, n_max))


@dataclass(frozen=True)
class SecondOrderConstant:
    """Value of the second-order tail constant with its cutoff uncertainty."""

    value: float
    error_bar: float
    cutoff: int


def second_order_constant(
    beta: float,
    c: float = 1.0,
    H: Callable[[np.ndarray], np.ndarray] | None = None,
) -> SecondOrderConstant:
    """The constant driving second and higher order renewal asymptotics.

    Computes -Gamma(1-beta)**-1 times the integral of
    [x]**-beta - x**-beta + H([x]) over (0, infinity), where the tail of
    the lifetime distribution is c(n**-beta + H(n)) and on [0, 1) the
    integrand is 1/c - x**-beta (total lifetime mass below 1).  Requires
    beta > 1/2 so the H-part converges absolutely under H = O(n**-2beta).

    The staircase-minus-power part is summed to a cutoff of 10**6 with
    Richardson extrapolation in cutoff**-beta; the H tail beyond the cutoff
    is bounded by |H(cutoff)| * cutoff / (2 beta - 1) and folded into the
    error bar.
    """
    if not 0.5 < beta < 1.0:
        raise DomainError("second-order constant needs beta in (1/2, 1)")
    if c <= 0:
        raise DomainError("c must be positive")
    cutoff = 10**6

    def staircase(x_hi: int) -> float:
        n = np.arange(1, x_hi + 1, dtype=float)
        steps = n ** (-beta) - ((n + 1) ** (1 - beta) - n ** (1 - beta)) / (1 - beta)
        return float(steps.sum())

    s_half = staircase(cutoff // 2)
    s_full = staircase(cutoff)
    r = 2.0 ** (-beta)
    extrap = s_full + (s_full - s_half) * r / (1.0 - r)
    # leading error of the extrapolated tail is one power of 1/cutoff down
    richardson_err = abs(extrap - s_full) / cutoff ** (1 - beta) + abs(s_full - s_half) / cutoff
    h_tail = 0.0
    if H is not None:
        n = np.arange(1, cutoff + 1, dtype=float)
        extrap += float(np.sum(np.asarray(H(n), dtype=float)))
        h_last = abs(float(np.atleast_1d(H(np.array([float(cutoff)])))[0]))
        h_tail = h_last * cutoff / (2 * beta - 1)
    integral = (1.0 / c - 1.0 / (1.0 - beta)) + extrap
    g1 = gamma(1.0 - beta)
    return SecondOrderConstant(
        value=-integral / g1,
        error_bar=(richardson_err + h_tail) / g1,
        cutoff=cutoff,
    )


@dataclass
class AsymptoticExpansion:
    """Higher-order partial-sum expansion sum_j d_j n**((j+1)beta - j).

    ``coefficients`` are the d_j; the scalar partial-sum prediction divides
    through by c * Gamma(1-beta).  The number of terms is maximal: every
    retained exponent is positive.
    """

    beta: float
    c: float
    c_h: float
    coefficients: np.ndarray = field(init=False)
    exponents: np.ndarray = field(init=False)

    def __post_init__(self):
        k = expansion_order(self.beta)
        j = np.arange(k + 1)
        self.exponents = (j + 1) * self.beta - j
        self.coefficients = np.array(
            [self.c_h**jj / gamma((jj + 1) * self.beta - (jj - 1)) for jj in j]
        )

    def eval_raw(self, n, n_terms: int | None = None) -> np.ndarray:
        """sum_j d_j n**((j+1)beta - j) over the first ``n_terms`` terms."""
        n = np.atleast_1d(np.asarray(n, dtype=float))
        k = len(self.coefficients) if n_terms is None else n_terms
        out = np.zeros_like(n)
        for d, e in zip(self.coefficients[:k], self.exponents[:k]):
            out += d * n**e
        return out

    def partial_sum_prediction(self, n, n_terms: int | None = None) -> np.ndarray:
        """Predicted U_n, i.e. the raw expansion over c * Gamma(1-beta)."""
        return self.eval_raw(n, n_terms) / (self.c * gamma(1.0 - self.beta))


def residual_diagnostics(
    seq: ScalarRenewal,
    expansion: AsymptoticExpansion,
    n_lo: int = 10**3,
    n_hi: int | None = None,
    points_per_decade: int = 8,
    n_terms: int | None = None,
) -> dict:
    """Residuals U_n minus the expansion prediction, with a slope fit.

    Rows are log-spaced over [n_lo, n_hi]; the returned dict carries the
    sampled n, residuals, and the fitted log-log slope with its ~95%
    halfwidth.
    """
    if seq.n_max < 10**3:
        raise DomainError("need the sequence to at least n = 1000")
    n_hi = seq.n_max if n_hi is None else n_hi
    count = max(4, int(points_per_decade * np.log10(n_hi / n_lo)) + 1)
    ns = np.unique(np.round(np.logspace(np.log10(n_lo), np.log10(n_hi), count)).astype(int))
    resid = seq.U(ns) - expansion.partial_sum_prediction(ns, n_terms)
    fit = slope_fit(ns, resid)
    return {"n": ns, "residual": resid, "fit": fit}
