import math
import re

import numpy as np
import pytest
import scipy.fft

import renewalops as ro
import renewalops.tauberian as tb
from renewalops import errors
from renewalops.cli import main
from renewalops.errors import DomainError, NumericalError


def resolvent_bound_constant(n, thetas):
    """Fitted C with |1 - e^{-1/n} e^{i t}|^{-1} <= C min(n, 1/|t|)."""
    thetas = np.asarray(thetas, dtype=float)
    vals = 1.0 / np.abs(1.0 - math.exp(-1.0 / n) * np.exp(1j * thetas))
    caps = np.minimum(float(n), 1.0 / np.abs(thetas))
    return float(np.max(vals / caps))


def window_weight_ratio(n, gamma_exp, n_samples=512):
    """sup over |t| <= n^-g of |A(t, n) / A(n)| for the squared window weight.

    A(n) = 1 - 2 e^{-1/n} cos(n^-g) + e^{-2/n} and A(t, n) replaces the
    radial factor by e^{i t}; boundedness of the ratio is what lets the
    window weight be pulled out of the arc integral.
    """
    alpha = float(n) ** (-gamma_exp)
    r = math.exp(-1.0 / n)
    a_n = (1.0 - r) ** 2 + 4.0 * r * math.sin(alpha / 2.0) ** 2
    t = np.linspace(-alpha, alpha, n_samples)
    a_t = 1.0 - 2.0 * np.exp(1j * t) * math.cos(alpha) + np.exp(2j * t)
    return float(np.max(np.abs(a_t)) / a_n)


def one_shot_panel_quad(f, a, b, n_panels, order=12):
    """Composite Gauss-Legendre with every node of every panel in one call."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    vals = np.asarray(f(x), dtype=complex).reshape(n_panels, order)
    return complex(np.sum(vals * weights[None, :] * half[:, None]))


# The tests' reference for ``indicator_majorant``'s gap check, which takes
# the trapezoid rule on its sup-error samples instead (``_sampled_gap``).
def _weighted_gap(poly: tb.OneSidedPoly) -> float:
    """integral of (q - g) x**-3/2 over (0, 1] by panel quadrature.

    The weight is the one of ``indicator_majorant``'s closed-form gap.  Runs
    in the variable s = sqrt(x), where the integrand is regular at 0
    because q has no constant term.
    """

    def f(s):
        x = s * s
        g = (x >= tb._X_BREAK).astype(float)
        return 2.0 * (poly(x) - g) * s ** -2.0

    s_break = math.sqrt(tb._X_BREAK)
    total = 0.0
    for lo, hi, panels in ((0.0, s_break, 600), (s_break, 1.0, 300)):
        total += tb._panel_quad(f, lo, hi, panels).real
    return total if poly.side == "upper" else -total


def majorant_samples(poly: tb.OneSidedPoly) -> np.ndarray:
    """q / x at the 4 m + 1 Chebyshev points where the construction sampled it."""
    m = len(poly.cheb_r) - 1
    fine = np.zeros(4 * m + 1)
    fine[: m + 1] = poly.cheb_r
    return scipy.fft.dct(tb._dct_prepare(fine), type=1) * 0.5


class TestPanelQuad:
    B = tb._QUAD_BATCH
    PANELS = (B - 1, B, B + 1, 3 * B + 5)

    @pytest.mark.parametrize("n_panels", PANELS)
    def test_batches_match_one_shot_on_line_integrand(self, n_panels):
        def f(s):  # contour check B2 at beta = 1/2
            return (1.0 - 1j * s) ** -1.5 * np.exp(-1j * s)

        got = tb._panel_quad(f, -1e5, 1e5, n_panels)
        ref = one_shot_panel_quad(f, -1e5, 1e5, n_panels)
        assert abs(got - ref) <= 1e-15 * abs(ref)

    @pytest.mark.parametrize("n_panels", PANELS)
    def test_batches_match_one_shot_on_polynomial(self, n_panels):
        def f(x):
            return 3.0 * x**5 - 2.0 * x**2 + 1.0

        def antiderivative(x):
            return 0.5 * x**6 - 2.0 / 3.0 * x**3 + x

        exact = antiderivative(2.1) - antiderivative(-1.3)
        got = tb._panel_quad(f, -1.3, 2.1, n_panels)
        ref = one_shot_panel_quad(f, -1.3, 2.1, n_panels)
        assert abs(got - ref) <= 1e-15 * abs(ref)
        assert got == pytest.approx(exact, rel=1e-13)


    def test_stall_reports_the_last_refinement_difference(self, monkeypatch):
        # 1/sqrt(x) converges like n^-1/2: 8, 16, 32 and 64 panels stay far apart
        monkeypatch.setattr(tb, "_MAX_PANELS", 64)

        def f(x):
            return 1.0 / np.sqrt(x)

        diff = abs(tb._panel_quad(f, 0.0, 1.0, 64) - tb._panel_quad(f, 0.0, 1.0, 32))
        assert diff > 1e-3
        with pytest.raises(NumericalError) as exc:
            tb.adaptive_oscillatory_quad(f, 0.0, 1.0, freq=0.0)
        assert str(exc.value) == f"oscillatory quadrature stalled at {diff:.3e} with 64 panels"

    def test_range_past_the_cap_is_refused_before_any_evaluation(self):
        calls = []

        def f(x):
            calls.append(x.size)
            return np.exp(-1j * x)

        # 4 panels per oscillation over 1e7 / (2 pi) oscillations: 2 * 6,366,196 panels
        with pytest.raises(NumericalError, match=r"needs 12732392 panels, .*; lower nmax$"):
            tb.adaptive_oscillatory_quad(f, 0.0, 1e7, freq=1.0)
        assert calls == []


# 8x - 7x**2 and 2x**2 - x in the shifted Chebyshev basis T_k(2x - 1)
MAJORANT_QUADRATIC = np.array([11 / 8, 1 / 2, -7 / 8])
MINORANT_QUADRATIC = np.array([1 / 4, 1 / 2, 1 / 4])


class TestFixedQuadratics:
    def test_majorant_quadratic(self):
        q = tb.OneSidedPoly("upper", 2, gap=0.0, cheb_q=MAJORANT_QUADRATIC)
        assert np.allclose(q.monomial(), [0.0, 8.0, -7.0], rtol=0, atol=1e-14)
        assert q.sign_check()
        assert q(np.array([1.0]))[0] == pytest.approx(1.0)
        assert q(np.array([0.0]))[0] == 0.0

    def test_minorant_quadratic(self):
        q = tb.OneSidedPoly("lower", 2, gap=0.0, cheb_q=MINORANT_QUADRATIC)
        assert np.allclose(q.monomial(), [0.0, -1.0, 2.0], rtol=0, atol=1e-14)
        assert q.sign_check()
        assert q(np.array([1.0]))[0] == pytest.approx(1.0)


class TestIndicatorMajorant:
    @pytest.mark.parametrize("eps", [0.5, 0.1])
    def test_gap_meets_target(self, eps):
        p = tb.indicator_majorant(eps)
        assert 0.0 < p.gap < eps
        assert p(np.array([0.0]))[0] == 0.0

    def test_moment_gap_matches_quadrature(self):
        p = tb.indicator_majorant(0.5)
        assert _weighted_gap(p) == pytest.approx(p.gap, abs=5e-3)

    @pytest.mark.parametrize("eps", [0.5, 0.2, 0.1])
    def test_sampled_gap_matches_quadrature_and_closed_form(self, eps):
        p = tb.indicator_majorant(eps)
        sampled = tb._sampled_gap(majorant_samples(p))
        assert sampled == pytest.approx(_weighted_gap(p), abs=1e-7)
        assert sampled == pytest.approx(p.gap, abs=5e-8)

    def test_degree_cap_reports_achievable(self, monkeypatch):
        # the error names the cap, the sup error reached there and the delta
        # the epsilon requires, not an epsilon inverted from the sup error
        monkeypatch.setattr(tb, "_DEGREE_CAP", 512)
        with pytest.raises(NumericalError) as exc:
            tb.indicator_majorant(0.1)
        msg = str(exc.value)
        delta = 0.9 * 0.1 / ((2 * math.e) ** 1.5 + 4.0)
        assert "degree > 512" in msg and "at degree 512" in msg
        assert f"required delta {delta:.3g}" in msg
        sup_err = float(re.search(r"sup error (\S+) at", msg).group(1))
        assert sup_err > delta
        assert "achievable epsilon" not in msg


class TestOneSidedFit:
    def test_minimizer_beats_fixed_quadratic(self):
        # the fixed quadratic is a feasible point of the degree-2 problem
        fit = tb.one_sided_fit(2, "upper")
        w = tb._basis_gap_moments(2, 0.5)
        fixed_gap = float(np.dot(MAJORANT_QUADRATIC, w)) - 1.0
        assert fit.gap <= fixed_gap + 1e-9

    def test_gap_and_coefficient_trends(self):
        gaps, sums = {}, {}
        for m in (4, 8, 16, 32):
            for side in ("upper", "lower"):
                p = tb.one_sided_fit(m, side)
                assert p.sign_check()
                if side == "upper":
                    gaps[m], sums[m] = p.gap, p.coefficient_sum()
        ms = sorted(gaps)
        assert all(gaps[b] < gaps[a] for a, b in zip(ms, ms[1:]))
        assert max(m * gaps[m] for m in ms) < 4.0
        # log coefficient sums grow about linearly in m: fit C2 and check sanity
        slope = np.polyfit(ms, [math.log(sums[m]) for m in ms], 1)[0]
        assert 0.5 < slope < 5.0  # C2 = e^slope is a finite constant > 1

    def test_monotone_refinement(self):
        g1 = tb.one_sided_fit(8, "upper").gap
        g2 = tb.one_sided_fit(16, "upper").gap
        assert g2 <= g1 + 1e-9

    def test_infeasible_degree(self):
        with pytest.raises(DomainError):
            tb.one_sided_fit(1, "upper")

    def test_size_guard_raises_before_any_matrix(self, monkeypatch, tmp_path):
        m = 32
        need = 16 * (m + 1) * (128 * m + 1)  # basis_vals and a_ub at n_grid = 128 m
        built = []
        moments = tb._basis_gap_moments
        monkeypatch.setattr(tb, "_basis_gap_moments",
                            lambda *a: built.append(1) or moments(*a))
        monkeypatch.setattr(errors, "BYTE_LIMIT", need - 1)
        with pytest.raises(NumericalError, match="degree 32.*lower degrees"):
            tb.one_sided_fit(m, "upper")
        assert built == []
        assert main(["polys", "--epsilon", "0.5", "--degrees", "4,32",
                     "--out", str(tmp_path)]) == 1
        monkeypatch.setattr(errors, "BYTE_LIMIT", need)
        tb.one_sided_fit(m, "upper")
        assert built


class TestKernelParams:
    def test_window_constraint_checked(self):
        with pytest.raises(DomainError):
            tb.KernelParams(n=6, gamma_exp=0.49)

    def test_valid_params(self):
        kp = tb.KernelParams(n=100, gamma_exp=0.25)
        assert 1.0 - kp.r <= kp.alpha / 4.0


class TestKernelExtract:
    def test_constant_sequence(self):
        phi = lambda z: 1.0 / (1.0 - z)
        ke = tb.kernel_extract(phi, tb.KernelParams(n=100, gamma_exp=0.25))
        assert abs(ke.estimate - 97.0) <= ke.error_bar
        assert abs(ke.imag_part) < 1e-10

    def test_constant_sequence_tight_window(self):
        phi = lambda z: 1.0 / (1.0 - z)
        for n in (100, 500):
            ke = tb.kernel_extract(phi, tb.KernelParams(n=n, gamma_exp=0.4))
            direct = n - 4 + 1
            assert abs(ke.estimate - direct) / direct < 5e-3

    def test_delta_sequence(self):
        phi = lambda z: np.ones_like(np.asarray(z, dtype=complex))
        for n in (10, 20, 50):
            ke = tb.kernel_extract(phi, tb.KernelParams(n=n, gamma_exp=0.3))
            assert abs(ke.estimate - 1.0) <= ke.error_bar + 0.05

    def test_defect_bound_covers_three_sequences(self):
        seqs = {
            "ones": np.ones(600),
            "delta": np.concatenate([[1.0], np.zeros(599)]),
            "geometric": 0.97 ** np.arange(600),
        }
        for name, u in seqs.items():
            phi = tb.phi_from_sequence(u)
            for n in (50, 100, 500):
                params = tb.KernelParams(n=n, gamma_exp=0.25)
                ke = tb.kernel_extract(phi, params, seq_bound=float(np.max(np.abs(u))))
                direct = float(np.sum(u[: n - 3]))
                assert abs(ke.estimate - direct) <= ke.defect_bound + ke.quad_error, name

    def test_positivity_up_to_error(self):
        u = np.abs(np.sin(np.arange(300))) * 0.5
        phi = tb.phi_from_sequence(u)
        ke = tb.kernel_extract(phi, tb.KernelParams(n=80, gamma_exp=0.3),
                               seq_bound=0.5)
        assert ke.estimate >= -ke.error_bar

    def test_monomial_weight_decay(self):
        # raw window integral of z^s decays like the per-mode kernel weight
        params = tb.KernelParams(n=60, gamma_exp=0.3)
        n, p, r, alpha = params.n, params.p, params.r, params.alpha
        for s in (n + 5, n + 20, n + 80):
            def phi(z, s=s):
                return np.asarray(z, dtype=complex) ** s

            def integrand(t):
                z = r * np.exp(1j * t)
                eit = np.exp(1j * t)
                kern = ((eit - np.exp(1j * alpha)) ** p) * ((eit - np.exp(-1j * alpha)) ** p)
                return phi(z) / (1.0 - z) * kern * np.exp(-1j * n * t)

            val, _ = tb.adaptive_oscillatory_quad(integrand, -alpha, alpha, freq=n)
            weight = alpha ** (2 * p) / (alpha**p * abs(s - n) ** p + 1.0)
            assert abs(val) <= 10.0 * weight

    def test_sampled_resolvent_and_window_bounds(self):
        thetas = np.linspace(-np.pi / 2, np.pi / 2, 301)
        thetas = thetas[thetas != 0]
        assert resolvent_bound_constant(50, thetas) <= 2.0
        assert resolvent_bound_constant(500, thetas) <= 2.0
        for n in (50, 200, 1000):
            assert window_weight_ratio(n, 0.25) <= 10.0


class TestPhiFromSequence:
    @staticmethod
    def binomial_sequence(gamma_exp, n_terms):
        """u_j = Gamma(j + g) / (Gamma(g) j!), the coefficients of (1 - z)^-g."""
        u = np.empty(n_terms)
        u[0] = 1.0
        for j in range(1, n_terms):
            u[j] = u[j - 1] * (j - 1 + gamma_exp) / j
        return u

    def test_exact_partial_sums_identity(self):
        # hockey stick: sum_{j<n} u_j = Gamma(n+g) / (Gamma(1+g) Gamma(n))
        g = 0.8
        u = self.binomial_sequence(g, 512)
        lhs = float(np.sum(u[:200]))
        rhs = math.exp(math.lgamma(200 + g) - math.lgamma(1 + g) - math.lgamma(200))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("u_dist", [1e-1, 1e-2])
    @pytest.mark.parametrize("g", [0.4, 0.8])
    def test_binomial_closed_form(self, g, u_dist):
        # z = e^{-u + iu}; the N-term series misses only its tail, and
        # 0 < u_j <= 1 bounds that tail by |z|^N / (1 - |z|)
        n_terms = int(20 / u_dist)
        z = np.exp(-u_dist + 1j * u_dist)
        phi = tb.phi_from_sequence(self.binomial_sequence(g, n_terms))
        tail = abs(z) ** n_terms / (1.0 - abs(z))
        assert abs(phi(np.array([z]))[0] - (1.0 - z) ** -g) <= tail


class TestContourIntegrals:
    def test_rotated_gamma_value(self):
        res = tb.rotated_gamma_integral(0.5, 1.0, 1.0, 1e3)
        assert res.closed_form == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert abs(res.value - math.sqrt(math.pi)) <= 1e3**-0.5
        assert abs(res.value.imag) < 1e-7

    def test_rotated_gamma_small_index(self):
        res = tb.rotated_gamma_integral(0.05, 1.0, 1.0, 1e3)
        assert abs(res.value - math.gamma(0.95)) < 1e-6

    def test_rotated_gamma_tail_trend(self):
        # in the oscillation-dominated regime the deviation decays like R^-beta
        devs = {}
        for r_hi in (1e2, 1e4):
            devs[r_hi] = tb.rotated_gamma_integral(0.5, 1e-6, 1.0, r_hi).abs_error
        ratio = devs[1e2] / devs[1e4]
        assert 3.0 < ratio < 33.0  # 10^{2 beta} = 10 up to oscillation envelope

    @pytest.mark.parametrize("beta, u, theta, r_hi", [(0.5, 1e-6, 0.5, 1e2),
                                                      (0.7, 1e-6, 0.3, 1e4)])
    def test_rotated_gamma_bar_covers_error_below_unit_modulus(self, beta, u, theta, r_hi):
        # |w| < 1: R^-beta alone undercuts the tail |Gamma(1-beta, wR)|
        res = tb.rotated_gamma_integral(beta, u, theta, r_hi)
        assert res.abs_error > r_hi ** -beta
        assert res.abs_error <= res.error_bar

    def test_rotated_gamma_bar_at_unit_rotation_is_unchanged(self):
        # |w| = sqrt(2) >= 1 (the CLI's B1): the truncation term stays R^-beta,
        # so the bar keeps its bits from before the |w| < 1 term
        res = tb.rotated_gamma_integral(0.5, 1.0, 1.0, 1e3)
        assert res.error_bar == 0.03162277660168398

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.7])
    def test_line_power_closed_form(self, beta):
        res = tb.line_power_integral(beta)
        assert res.abs_error < 1e-6

    @pytest.mark.parametrize("nu, s_hi", [(1.5, 63.0), (2.0, 31.6), (1.3, 1e3)])
    def test_line_integral_folds_the_conjugate_half(self, nu, s_hi):
        """Twice the real part over [0, S] is the two-sided integral, which is real."""
        def f(s):
            return (1.0 + s * s) ** (-0.5 * nu) * np.exp(1j * (nu * np.arctan(s) - s))

        full, _ = tb.adaptive_oscillatory_quad(f, -s_hi, s_hi, freq=1.0, tol=1e-9)
        folded, err = tb._finite_line_integral(nu, s_hi)
        assert abs(full.imag) < 1e-12
        assert folded == pytest.approx(full.real, rel=1e-13, abs=0.0)
        assert 0.0 < err < 1e-9

    def test_line_power_ratio_between_betas(self):
        r3 = tb.line_power_integral(0.3)
        r7 = tb.line_power_integral(0.7)
        assert r3.value / r7.value == pytest.approx(
            math.gamma(1.7) / math.gamma(1.3), rel=1e-6)

    def test_window_power_main_term(self):
        res = tb.window_power_integral(0.5, 0.25, 10**4)
        expect = 2.0 * math.pi / math.e * 100.0 / math.gamma(1.5)
        assert res.closed_form == pytest.approx(expect, rel=1e-12)
        assert res.abs_error <= (10**4) ** (0.5 * 0.25)

    def test_window_power_deviation_bounded_by_stated_rate(self):
        devs = []
        ns = (10**2, 10**3, 10**4)
        for n in ns:
            res = tb.window_power_integral(0.5, 0.25, n)
            devs.append(res.abs_error)
            assert res.abs_error <= n ** (0.5 * 0.25)
        fit = ro.slope_fit(np.array(ns, float), np.array(devs))
        assert fit.slope <= 0.5 * 0.25 + 0.1

    def test_window_power_reduces_to_line_integral(self):
        # rho = 1: the window integral is n times the truncated line integral
        n, g = 100, 0.25
        res = tb.window_power_integral(1.0, g, n)
        core, _ = tb._finite_line_integral(2.0, float(n) ** (1 - g))
        assert res.value == pytest.approx(n * core, rel=1e-9)
        assert abs(res.value.real - res.closed_form) <= 2.0 * n ** (1.0 * g)
