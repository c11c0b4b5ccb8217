"""Tauberian machinery: one-sided polynomials and complex kernel extraction.

Two engines connect boundary behavior of power series to partial-sum
asymptotics:

* Karamata's method approximates the step g = 1 on [1/e, 1], 0 below, by
  polynomials with no constant term, from one side, with the approximation
  gap measured against the weight that turns monomials x**k into k**-beta
  moments.  ``indicator_majorant`` realizes the classical constructive
  proof (linear mollification then uniform polynomial approximation);
  ``one_sided_fit`` computes minimal-gap one-sided polynomials of a given
  degree by linear programming, exposing the gap ~ C1/m and coefficient
  growth ~ C2**m trends of Freud-type remainder theory.

* The complex kernel (e^{i t} - e^{i a})^p (e^{i t} - e^{-i a})^p windows
  the boundary values of a power series Phi on an arc |t| <= a of radius
  r = exp(-1/n) and, after division by 2 pi r^{n-2p} (1 - 2r cos a + r^2)^p,
  returns the partial sum of the first n - 2p + 1 coefficients up to a
  controlled remainder.  ``kernel_extract`` evaluates the window integral
  by oscillation-resolving panel quadrature.

The contour validators at the bottom check the closed forms these methods
rest on: the rotated Gamma integral, the Fourier transform of a power
kernel along a vertical line, and its finite-window rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np
import scipy.fft
from numpy.polynomial import chebyshev as ncheb
from scipy.optimize import linprog

from .errors import DomainError, NumericalError, check_bytes
from .specfun import gamma

__all__ = [
    "OneSidedPoly",
    "indicator_majorant",
    "one_sided_fit",
    "KernelParams",
    "KernelExtract",
    "kernel_extract",
    "phi_from_sequence",
    "kernel_defect_bound",
    "ContourCheck",
    "rotated_gamma_integral",
    "line_power_integral",
    "window_power_integral",
]

_X_BREAK = math.exp(-1.0)
# the fit's gap measure is d(t**beta) at this beta
_GAP_BETA = 0.5
_MAX_PANELS = 1 << 20
_QUAD_BATCH = 1 << 14
# Gauss-Legendre nodes and weights on [-1, 1], per quadrature panel
_GL_ORDER = 12
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_GL_ORDER)
# relative tolerance of the contour validators' oscillatory quadrature
_CONTOUR_TOL = 1e-9
# highest Chebyshev degree the constructive majorant may reach
_DEGREE_CAP = 1 << 17

# ---------------------------------------------------------------------------
# quadrature: composite Gauss-Legendre with oscillation-resolving panels
# ---------------------------------------------------------------------------


def _gl_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes of the panels between ``edges``, a row per panel, and their half widths."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    return mid[:, None] + half[:, None] * _GL_NODES[None, :], half


def _panel_quad(f, a: float, b: float, n_panels: int) -> complex:
    """Composite ``_GL_ORDER``-node Gauss-Legendre on n_panels equal panels.

    The integrand is evaluated ``_QUAD_BATCH`` panels at a time and the
    batch totals are added in panel order, so the transient node arrays
    stay at a fixed size (about 3 MB each) however many panels there are.
    """
    edges = np.linspace(a, b, n_panels + 1)
    total = 0j
    for start in range(0, n_panels, _QUAD_BATCH):
        x, half = _gl_panels(edges[start: start + _QUAD_BATCH + 1])
        vals = np.asarray(f(x.ravel()), dtype=complex).reshape(x.shape)
        total += complex(np.sum(vals * _GL_WEIGHTS[None, :] * half[:, None]))
    return total


def adaptive_oscillatory_quad(
    f,
    a: float,
    b: float,
    freq: float,
    tol: float = 1e-10,
) -> tuple[complex, float]:
    """Integrate f over [a, b] resolving oscillation rate ``freq``.

    Panels start at ~4 per oscillation and double until two successive
    refinements agree within tol (relative); raises when the cap of 2**20
    panels is hit, reporting the achieved tolerance.
    """
    n0 = max(8, int(abs(freq) * (b - a) / math.pi) * 2)
    prev = _panel_quad(f, a, b, n0)
    n = 2 * n0
    while n <= _MAX_PANELS:
        cur = _panel_quad(f, a, b, n)
        err = abs(cur - prev)
        scale = max(1.0, abs(cur))
        if err <= tol * scale:
            return cur, err
        prev = cur
        n *= 2
    raise NumericalError(
        f"oscillatory quadrature stalled at {abs(cur - prev):.3e} with {n // 2} panels"
    )


# ---------------------------------------------------------------------------
# one-sided polynomials
# ---------------------------------------------------------------------------


@dataclass
class OneSidedPoly:
    """Polynomial with q(0) = 0 lying on one side of the step g = 1_[1/e, 1].

    Evaluation uses the numerically stable representation given:
    ``cheb_r`` holds r with q(x) = x * r(x) (constructive majorant), and
    ``cheb_q`` holds q itself in the shifted Chebyshev basis (fits).
    ``gap`` is the one-sided approximation gap in the measure the
    construction was run against.
    """

    side: str
    degree: int
    gap: float
    cheb_q: np.ndarray | None = None
    cheb_r: np.ndarray | None = None

    def __post_init__(self):
        if self.side not in ("upper", "lower"):
            raise DomainError(f"side must be upper/lower, got {self.side!r}")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        if self.cheb_r is not None:
            return x * ncheb.chebval(2.0 * x - 1.0, self.cheb_r)
        return ncheb.chebval(2.0 * x - 1.0, self.cheb_q)

    def monomial(self) -> np.ndarray:
        """Monomial coefficients of q (exponentially large at high degree)."""
        if self.cheb_q is not None:
            t = ncheb.Chebyshev(self.cheb_q, domain=[0.0, 1.0])
            return t.convert(kind=np.polynomial.Polynomial).coef
        raise NumericalError("monomial form not available for the factored majorant")

    def coefficient_sum(self) -> float:
        """sum_k |b_k| of the monomial coefficients."""
        mono = self.monomial()
        return float(np.abs(mono[1:]).sum())

    def sign_check(self) -> bool:
        """Sampled one-sidedness against the step at 10**4 + 1 Chebyshev points.

        The margin is a roundoff allowance scaled to the size of the
        coefficients in the representation actually evaluated.
        """
        coeffs = self.cheb_r if self.cheb_r is not None else self.cheb_q
        margin = 1e-12 * max(1.0, float(np.abs(coeffs).sum()))
        x = 0.5 * (1.0 + np.cos(np.pi * np.arange(10**4 + 1) / 10**4))
        q = self(x)
        g = (x >= _X_BREAK).astype(float)
        if self.side == "upper":
            return bool(np.all(q >= g - margin))
        return bool(np.all(q <= g + margin))


def _sampled_gap(samp: np.ndarray) -> float:
    """integral of (q - g) x**-3/2 over (0, 1] from samples of p = q / x.

    ``samp`` holds p at x_k = (1 + cos(pi k / n)) / 2, k = 0..n.  With x =
    (1 + cos theta) / 2 the integral of q x**-3/2 = p x**-1/2 is the one of
    p sin(theta / 2) over [0, pi], taken here by the trapezoid rule; the
    step's part is 2 (sqrt(e) - 1).
    """
    n = len(samp) - 1
    w = np.sin(0.5 * np.pi * np.arange(n + 1) / n)
    w[-1] *= 0.5  # w[0] is already 0; summed without BLAS, as the exact gap
    return float((samp * w).sum()) * math.pi / n - 2.0 * (math.exp(0.5) - 1.0)


def indicator_majorant(epsilon: float) -> OneSidedPoly:
    """Constructive majorant of the step with weighted gap below epsilon.

    Follows the classical Karamata construction: mollify the step linearly
    on [1/e - delta, 1/e] with delta below both 1/(2e) and
    epsilon / ((2e)^{3/2} + 4); uniformly approximate x**-1 h(x) + delta to
    within delta by a Chebyshev interpolant; multiply by x.  The gap
    integral against x**-3/2 is then below epsilon; it is evaluated in
    closed form from the Chebyshev coefficients and verified by the
    trapezoid rule on the samples that measured the sup error.
    The degree starts at 256 and doubles; raises, reporting the sup error
    reached and the delta required, if the needed degree exceeds
    ``_DEGREE_CAP``.
    """
    if epsilon <= 0:
        raise DomainError("epsilon must be positive")
    delta = 0.9 * min(1.0 / (2 * math.e), epsilon / ((2 * math.e) ** 1.5 + 4.0))
    x_lo = _X_BREAK - delta

    def phi(x):
        x = np.asarray(x, dtype=float)
        h = np.clip((x - x_lo) / delta, 0.0, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            val = np.where(x > 0, h / np.maximum(x, 1e-300), 0.0)
        return val + delta

    m = 256
    coeffs = None
    sup_err = math.inf
    while m <= _DEGREE_CAP:
        # Chebyshev interpolation at m+1 points via DCT-I
        k = np.arange(m + 1)
        xc = 0.5 * (1.0 + np.cos(np.pi * k / m))
        vals = phi(xc)
        c = scipy.fft.dct(vals, type=1) / m
        c[0] *= 0.5
        c[-1] *= 0.5
        # sample on the quadrupled Chebyshev grid to measure the sup error
        mf = 4 * m
        fine = np.zeros(mf + 1)
        fine[: m + 1] = c
        k2 = np.arange(mf + 1)
        x2 = 0.5 * (1.0 + np.cos(np.pi * k2 / mf))
        samp = scipy.fft.dct(_dct_prepare(fine), type=1) * 0.5
        sup_err = float(np.max(np.abs(samp - phi(x2))))
        if sup_err <= delta:
            coeffs = c
            break
        m *= 2
    if coeffs is None:
        raise NumericalError(
            f"majorant for epsilon {epsilon:g} needs degree > {_DEGREE_CAP}: the "
            f"interpolant reached sup error {sup_err:.3g} at degree {m // 2}, "
            f"above the required delta {delta:.3g}"
        )
    # one-sidedness of q = x * p at the fine sample grid
    q2 = x2 * samp
    g2 = (x2 >= _X_BREAK).astype(float)
    if np.any(q2 < g2 - 1e-13):
        raise NumericalError("majorant dips below the step; delta margin too thin")
    # exact gap: int q x^-3/2 - int g x^-3/2 with the moment formula
    # int_0^1 T_k(2x-1) x^-1/2 dx = 2/(1-4k^2); summed by numpy, not np.dot,
    # whose BLAS splits a long dot across threads and rounds by their count
    kk = np.arange(len(coeffs))
    moments = 2.0 / (1.0 - 4.0 * kk.astype(float) ** 2)
    gap = float((coeffs * moments).sum() - 2.0 * (math.exp(0.5) - 1.0))
    poly = OneSidedPoly(side="upper", degree=len(coeffs), gap=gap, cheb_r=coeffs)
    quad_gap = _sampled_gap(samp)
    if not (0.0 <= gap < epsilon) or abs(quad_gap - gap) > 0.05 * epsilon + 1e-8:
        raise NumericalError(
            f"constructed gap {gap:.3g} (quadrature {quad_gap:.3g}) outside (0, {epsilon})"
        )
    return poly


def _dct_prepare(padded: np.ndarray) -> np.ndarray:
    """Coefficient array -> DCT-I input reproducing chebval at Chebyshev nodes."""
    out = padded.copy()
    out[0] *= 2.0
    out[-1] *= 2.0
    return out


def _cheb_basis(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """T_k(2x - 1), a row per k = 0..m, and T_k(-1) = (-1)**k, the basis at x = 0.

    Each row is bit for bit ``chebval(2x - 1, e_k)``: on a unit coefficient
    vector, Clenshaw's recurrence reaches the state (c0, c1) = (0, 1) and
    then takes k - 1 more steps that all rows share, so one pass yields them
    all.  Rows 0 and 1 are written as ``chebval`` ends them.
    """
    y = 2.0 * x - 1.0
    y2 = 2 * y
    vals = np.empty((m + 1,) + y.shape)
    vals[0] = 1.0 + 0 * y
    vals[1] = 0.0 + 1.0 * y
    c0, c1 = 0.0, 1.0
    for k in range(2, m + 1):
        c0, c1 = 0.0 - c1, c0 + c1 * y2
        vals[k] = c0 + c1 * y
    return vals, np.array([(-1.0) ** k for k in range(m + 1)])


def _basis_gap_moments(m: int, beta: float) -> np.ndarray:
    """integral of T_k(2 e^{-t} - 1) - T_k(-1) against d(t^beta), k = 0..m.

    In the variable tau = t^beta the measure is Lebesgue and the integrand
    decays like exp(-tau^(1/beta)); 500 panels are graded geometrically
    near 0, where the substitution leaves a mild fractional-power kink.
    """
    n_panels = 500
    tau_hi = 60.0**beta
    edges = np.concatenate([
        [0.0], np.geomspace(tau_hi * 1e-8, tau_hi * 0.2, n_panels // 2),
        np.linspace(tau_hi * 0.2, tau_hi, n_panels // 2)[1:],
    ])
    tau, half = _gl_panels(edges)
    wq = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    vals, t0 = _cheb_basis(m, np.exp(-(tau.ravel() ** (1.0 / beta))))
    return (vals - t0[:, None]) @ wq


def one_sided_fit(m: int, side: str) -> OneSidedPoly:
    """Minimal-gap one-sided polynomial of degree m by linear programming.

    The gap functional is the integral of q(e^{-t}) - g(e^{-t}) against
    d(t**beta) with beta = 1/2 (closed-form moments Gamma(1+beta) k**-beta
    for x**k), the measure in which the gap of the optimal pair decays like
    1/m.  The sign constraint is imposed on a Chebyshev grid of
    max(2048, 128 m) intervals, re-verified on a 10x finer grid, and
    repaired by a multiple-of-x nudge if sampling missed a dip.  Raises
    before any allocation if the two dense (m + 1) x (grid + 1) constraint
    matrices would exceed ``errors.BYTE_LIMIT``.
    """
    if m < 2:
        raise DomainError("degree must be >= 2")
    if side not in ("upper", "lower"):
        raise DomainError("side must be 'upper' or 'lower'")
    n_grid = max(2048, 128 * m)
    # basis_vals and a_ub, float64 each
    check_bytes(16 * (m + 1) * (n_grid + 1),
                f"one-sided fit of degree {m} (constraint matrices)", "use lower degrees")
    # moments of the shifted Chebyshev basis against d(t^beta), with the
    # value at x = 0 subtracted (the q(0) = 0 constraint makes them finite);
    # computed by quadrature in tau = t^beta, which is stable at any degree
    obj = _basis_gap_moments(m, _GAP_BETA)
    x = 0.5 * (1.0 + np.cos(np.pi * np.arange(n_grid + 1) / n_grid))
    g = (x >= _X_BREAK).astype(float)
    basis_vals, t0 = _cheb_basis(m, x)

    if side == "upper":
        a_ub = -basis_vals.T
        b_ub = -g
        c_vec = obj
    else:
        a_ub = basis_vals.T
        b_ub = g
        c_vec = -obj
    # box bounds keep the LP bounded where the sample grid alone would not;
    # Chebyshev-basis coefficients of the optimal pair stay far inside them
    res = linprog(
        c_vec, A_ub=a_ub, b_ub=b_ub, A_eq=t0[None, :], b_eq=[0.0],
        bounds=[(-1e6, 1e6)] * (m + 1), method="highs",
    )
    if not res.success:
        raise NumericalError(f"one-sided fit infeasible at degree {m}: {res.message}")
    coef = res.x.copy()
    gap = float(np.dot(coef, obj)) - 1.0
    if side == "lower":
        gap = 1.0 - float(np.dot(coef, obj))
    poly = OneSidedPoly(side=side, degree=m, gap=gap, cheb_q=coef)
    # verify on a 10x finer grid (plus an incommensurate one) and nudge by a
    # small multiple of x: LP solutions touch the step at the constraint
    # nodes, so unsampled points can dip across by a hair
    xf = 0.5 * (1.0 + np.cos(np.pi * np.arange(10 * n_grid + 1) / (10 * n_grid)))
    xf = np.union1d(xf, np.linspace(0.0, 1.0, 10**4 + 1))
    gf = (xf >= _X_BREAK).astype(float)
    qf = poly(xf)
    viol = (gf - qf) if side == "upper" else (qf - gf)
    pos = xf > 1e-12
    eta = max(float(np.max(viol[pos] / xf[pos])), 0.0) + 1e-9
    sgn = 1.0 if side == "upper" else -1.0
    # x = (T_0 + T_1)/2 in the shifted basis, so the nudge keeps q(0) = 0
    poly.cheb_q[0] += sgn * eta / 2.0
    poly.cheb_q[1] += sgn * eta / 2.0
    poly.gap += eta * gamma(1.0 + _GAP_BETA)
    # pin the residual roundoff of the q(0) = 0 equality
    poly.cheb_q[0] -= float(ncheb.chebval(-1.0, poly.cheb_q))
    return poly


# ---------------------------------------------------------------------------
# kernel extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelParams:
    """Window parameters: radius exp(-1/n), arc n**-gamma, kernel power p = 2.

    The standing constraint 1 - r <= alpha/4 keeps the window identity in
    its valid regime; it fails only for very small n.
    """

    n: int
    p: ClassVar[int] = 2
    gamma_exp: float = 0.25

    def __post_init__(self):
        if self.n < 2 * self.p + 1:
            raise DomainError("n must exceed 2p")
        if not 0.0 < self.gamma_exp < 0.5:
            raise DomainError("gamma must lie in (0, 1/2)")
        if 1.0 - self.r > self.alpha / 4.0:
            raise DomainError(
                f"1 - r = {1 - self.r:.3g} exceeds alpha/4 = {self.alpha / 4:.3g}; "
                "n too small for this gamma"
            )

    @property
    def r(self) -> float:
        return math.exp(-1.0 / self.n)

    @property
    def alpha(self) -> float:
        return float(self.n) ** (-self.gamma_exp)

    @property
    def window_weight(self) -> float:
        """(1 - 2 r cos(alpha) + r^2)^p, computed in cancellation-safe form."""
        r = self.r
        a2 = (1.0 - r) ** 2 + 4.0 * r * math.sin(self.alpha / 2.0) ** 2
        return a2**self.p


@dataclass(frozen=True)
class KernelExtract:
    """Partial-sum estimate from the window integral, with error budget."""

    estimate: float
    imag_part: float
    quad_error: float
    defect_bound: float
    params: KernelParams

    @property
    def error_bar(self) -> float:
        return self.quad_error + self.defect_bound + abs(self.imag_part)


def phi_from_sequence(u: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Power-series evaluator z -> sum u_j z^j for a finite sequence."""
    u = np.asarray(u, dtype=float)

    def phi(z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros_like(z)
        for coef in u[::-1]:
            out = out * z + coef
        return out

    return phi


def kernel_defect_bound(params: KernelParams, seq_bound: float = 1.0) -> float:
    """Bound on the window-identity defect for |u_j| <= seq_bound.

    Sums the per-mode kernel weight alpha^{2p} / (alpha^p |j-n|^p + 1)
    against r^j; the factor 25 absorbs the implied constants of the kernel
    estimates (empirically a few units; 25 is comfortably conservative).
    """
    n, p, r, alpha = params.n, params.p, params.r, params.alpha
    j_hi = int(n + 40 * n)  # r^j below 4e-18 afterwards
    j = np.arange(0, j_hi + 1, dtype=float)
    w = alpha ** (2 * p) / (alpha**p * np.abs(j - n) ** p + 1.0)
    total = float(np.sum(r**j * w))
    return 25.0 * seq_bound * total / (2.0 * math.pi * r ** (n - 2 * p) * params.window_weight)


def kernel_extract(
    phi: Callable[[np.ndarray], np.ndarray],
    params: KernelParams,
    seq_bound: float = 1.0,
) -> KernelExtract:
    """Estimate sum_{j=0}^{n-2p} u_j from boundary values of Phi.

    Integrates Phi(r e^{i t}) (1 - r e^{i t})^{-1} (e^{i t} - e^{i a})^p
    (e^{i t} - e^{-i a})^p e^{-i n t} over |t| <= a and divides by
    2 pi r^{n-2p} (1 - 2 r cos a + r^2)^p.  The imaginary part of the
    result is a consistency diagnostic (the target is real); the returned
    error budget adds the quadrature estimate and the window-defect bound.
    """
    n, p, r, alpha = params.n, params.p, params.r, params.alpha

    def integrand(t):
        z = r * np.exp(1j * t)
        eit = np.exp(1j * t)
        kern = ((eit - np.exp(1j * alpha)) ** p) * ((eit - np.exp(-1j * alpha)) ** p)
        return phi(z) / (1.0 - z) * kern * np.exp(-1j * n * t)

    val, quad_err = adaptive_oscillatory_quad(integrand, -alpha, alpha, freq=float(n))
    denom = 2.0 * math.pi * r ** (n - 2 * p) * params.window_weight
    est = val / denom
    return KernelExtract(
        estimate=float(est.real),
        imag_part=float(est.imag),
        quad_error=float(quad_err / denom),
        defect_bound=kernel_defect_bound(params, seq_bound),
        params=params,
    )


# ---------------------------------------------------------------------------
# contour validators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ContourCheck:
    """A contour integral against its closed form: the check is abs_error <= error_bar."""

    value: complex | float
    closed_form: float
    abs_error: float
    error_bar: float


def rotated_gamma_integral(beta: float, u: float, theta: float, r_hi: float) -> ContourCheck:
    """integral_0^R e^{-wx} (wx)^{-beta} w dx with w = u - i theta.

    Converges to Gamma(1-beta) as R grows; ``value`` is complex.  The
    deviation is the tail Gamma(1-beta, wR), which integrating along t >= 0
    from wR bounds by |wR|^-beta e^{-uR} (u > 0).  The error bar's
    truncation term is the larger of that bound and R^-beta, which bounds it
    alone for |w| >= 1.  The endpoint singularity is removed by the
    substitution x = s^{1/(1-beta)} on an initial segment; the oscillatory
    remainder is panel-integrated.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("beta must lie in (0, 1)")
    if u <= 0 or theta == 0:
        raise DomainError("need u > 0 and theta != 0")
    w = complex(u, -theta)
    x_cut = min(1.0 / max(abs(theta), u), r_hi)

    one_m = 1.0 - beta

    def f_smooth(s):  # x = s**(1/(1-beta))
        x = s ** (1.0 / one_m)
        return np.exp(-w * x) * w**one_m / one_m

    head = _panel_quad(f_smooth, 0.0, x_cut**one_m, 200)

    def f_osc(x):
        return np.exp(-w * x) * (w * x) ** (-beta) * w

    tail_val, err = (0.0, 0.0)
    if x_cut < r_hi:
        tail_val, err = adaptive_oscillatory_quad(
            f_osc, x_cut, r_hi, freq=abs(theta), tol=_CONTOUR_TOL
        )
    value = head + tail_val
    closed = math.gamma(1.0 - beta)
    tail = max(r_hi ** (-beta), abs(w * r_hi) ** (-beta) * math.exp(-u * r_hi))
    return ContourCheck(value=value, closed_form=closed, abs_error=abs(value - closed),
                        error_bar=float(err) + tail)


def _finite_line_integral(nu: float, s_hi: float) -> tuple[float, float]:
    """integral_{-S}^{S} (1 - i s)^{-nu} e^{-i s} ds by oscillatory panels.

    f(-s) = conj f(s), so the integral is twice the real part over [0, S],
    error estimate doubled.  f is evaluated in polar form, (1 + s^2)^{-nu/2}
    e^{i(nu atan s - s)}, which avoids the complex power.
    """

    def f(s):
        return (1.0 + s * s) ** (-0.5 * nu) * np.exp(1j * (nu * np.arctan(s) - s))

    half, err = adaptive_oscillatory_quad(f, 0.0, s_hi, freq=1.0, tol=_CONTOUR_TOL)
    return 2.0 * half.real, 2.0 * err


def _upper_tail_ibp(nu: float, s_hi: float) -> complex:
    """integral_S^infinity (1-is)^{-nu} e^{-is} ds by four integrations by parts."""
    total = 0.0 + 0.0j
    coef = 1.0
    v = nu
    for _ in range(4):
        total += coef * (-1j) * np.exp(-1j * s_hi) * (1.0 - 1j * s_hi) ** (-v)
        coef *= v
        v += 1.0
    return total


def line_power_integral(beta: float) -> ContourCheck:
    """integral over the real line of (1 - i s)^{-(beta+1)} e^{-i s} ds.

    Equals 2 pi / (e Gamma(1+beta)).  The quadrature runs over |s| <= S =
    1e5 with the two tails restored by integration by parts; the reported
    error bar carries the conservative analytic tail bound 2 S^-beta / beta
    plus the quadrature estimate.
    """
    if not 0.0 < beta < 1.0:
        raise DomainError("beta must lie in (0, 1)")
    nu = beta + 1.0
    s_hi = 1e5
    core, quad_err = _finite_line_integral(nu, s_hi)
    tail = _upper_tail_ibp(nu, s_hi)
    total = float(core + 2.0 * tail.real)  # left tail is the conjugate of the right
    closed = 2.0 * math.pi / math.e / gamma(1.0 + beta)
    bar = float(quad_err) + 2.0 * s_hi ** (-beta) / beta
    return ContourCheck(value=total, closed_form=closed, abs_error=abs(total - closed),
                        error_bar=bar)


def window_power_integral(rho: float, gamma_exp: float, n: int) -> ContourCheck:
    """integral_{-n^-g}^{n^-g} e^{-i n t} (1/n - i t)^{-(rho+1)} dt.

    Rescaling s = n t reduces it to the line-power integral truncated at
    n^{1-g}; the closed form is the main term 2 pi n^rho / (e Gamma(1+rho))
    and the deviation from it O(n^{rho g}), the error bar's remainder term.
    """
    if rho <= 0 or not 0.0 < gamma_exp < 1.0 or n < 10:
        raise DomainError("need rho > 0, gamma in (0, 1), n >= 10")
    s_hi = float(n) ** (1.0 - gamma_exp)
    core, quad_err = _finite_line_integral(rho + 1.0, s_hi)
    value = float(n) ** rho * core
    main = 2.0 * math.pi / math.e * float(n) ** rho / gamma(1.0 + rho)
    return ContourCheck(value=value, closed_form=main, abs_error=abs(value - main),
                        error_bar=float(quad_err) * float(n) ** rho + n ** (rho * gamma_exp))
