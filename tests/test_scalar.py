import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import renewalops as ro
from renewalops.errors import DomainError
from renewalops.scalar import _FFT_BASE, _renewal_fft


def dp_renewal_oracle(f, n_max):
    """u_n = sum_j P(S_j = n) by dynamic programming over partial sums."""
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    p = np.zeros(n_max + 1)
    p[0] = 1.0  # distribution of S_j, starting from S_0 = 0
    for _ in range(1, n_max + 1):
        q = np.zeros(n_max + 1)
        for target in range(n_max + 1):
            for j in range(1, min(len(f) - 1, target) + 1):
                q[target] += p[target - j] * f[j]
        p = q
        u += p
    u[0] = 1.0
    return u


def renewal_direct(f, n_max):
    """Quadratic reference recursion u_n = sum_{1 <= j <= min(n, len(f) - 1)} f_j u_{n-j}."""
    u = np.zeros(n_max + 1)
    u[0] = 1.0
    jmax = len(f) - 1
    for n in range(1, n_max + 1):
        j = min(n, jmax)
        u[n] = np.dot(f[1: j + 1], u[n - 1:: -1][:j])
    return u


def first_leaf_end(n_max):
    """End of the divide and conquer's first leaf [0, hi) over [0, n_max]."""
    hi = n_max + 1
    while hi > _FFT_BASE:
        hi //= 2
    return hi


def karamata_first_order(norming, n):
    """First-order partial-sum law n**beta / (constant * m(n))."""
    n = np.atleast_1d(np.asarray(n, dtype=float))
    return np.array([norming.return_sequence(x) for x in n])


@st.composite
def lifetime_laws(draw):
    """Nonnegative f (f_0 = 0) with total mass at most 1, from random weights."""
    jmax = draw(st.integers(1, 3 * _FFT_BASE))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        f = rng.random(jmax + 1)
        f[0] = 0.0
    else:  # heavy tail f_j ~ j^(-1-beta)
        j = np.arange(1, jmax + 1, dtype=float)
        f = np.concatenate([[0.0], j ** -(1.0 + draw(st.floats(0.3, 0.9)))])
    if draw(st.booleans()):
        f[1] = 0.0
    if draw(st.booleans()):  # lattice: odd lifetimes impossible
        f[1::2] = 0.0
    mass = draw(st.sampled_from([1.0, 0.999, 0.5]))
    if f.sum() > 0:
        f *= mass / f.sum()
    return f


class TestFftPath:
    @settings(max_examples=40, deadline=None)
    @given(f=lifetime_laws(),
           n_max=st.sampled_from([_FFT_BASE - 1, _FFT_BASE, _FFT_BASE + 1,
                                  2 * _FFT_BASE + 1, 4 * _FFT_BASE + 3]))
    def test_matches_direct_recursion(self, f, n_max):
        u = _renewal_fft(f, n_max)
        ref = renewal_direct(f, n_max)
        assert np.max(np.abs(u - ref)) <= 1e-12
        leaf = first_leaf_end(n_max)
        # the first leaf is the leaf's own renewal sequence, bit for bit
        assert np.array_equal(u[:leaf], ref[:leaf])

    def test_lattice_zero_survives(self):
        f = np.zeros(2 * _FFT_BASE + 1)
        f[2::2] = 1.0 / _FFT_BASE
        u = _renewal_fft(f, 4 * _FFT_BASE + 3)
        assert u[1] == 0.0 and np.all(u[1:first_leaf_end(4 * _FFT_BASE + 3):2] == 0.0)

    def test_checked_multilevel_run(self):
        dist = ro.ReturnDistribution.from_power_tail(0.6, 20_000)
        seq = ro.renewal_sequence(dist, 20_000)
        assert first_leaf_end(20_000) < 20_000 // 8
        assert np.max(np.abs(seq.u - renewal_direct(dist.f, 20_000))) <= 1e-12


class TestRenewalSequence:
    def test_deterministic_unit_lifetimes(self):
        dist = ro.ReturnDistribution(np.array([0.0, 1.0]))
        seq = ro.renewal_sequence(dist, 50)
        assert np.allclose(seq.u, 1.0)

    def test_two_point_closed_form(self):
        # f_1 = f_2 = 1/2: u_n = 2/3 + (1/3)(-1/2)^n
        dist = ro.ReturnDistribution(np.array([0.0, 0.5, 0.5]))
        seq = ro.renewal_sequence(dist, 1000)
        n = np.arange(0, 1001)
        expect = 2.0 / 3.0 + (1.0 / 3.0) * (-0.5) ** n
        assert np.max(np.abs(seq.u - expect)) < 1e-12
        assert seq.u[:4] == pytest.approx([1.0, 0.5, 0.75, 0.625])

    def test_against_dp_oracle(self):
        f = np.array([0.0, 0.3, 0.25, 0.2, 0.15, 0.1])
        dist = ro.ReturnDistribution(f)
        seq = ro.renewal_sequence(dist, 30)
        assert np.max(np.abs(seq.u - dp_renewal_oracle(f, 30))) < 1e-12

    def test_paths_agree(self):
        dist = ro.ReturnDistribution.from_power_tail(0.6, 3000)
        seq = ro.renewal_sequence(dist, 3000)
        assert seq.n_max == 3000
        assert np.max(np.abs(seq.u - renewal_direct(dist.f, 3000))) <= 1e-10

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=8))
    def test_probability_bounds(self, raw):
        f = np.concatenate([[0.0], np.asarray(raw) / np.sum(raw)])
        seq = ro.renewal_sequence(ro.ReturnDistribution(f), 200)
        assert np.all(seq.u >= -1e-12) and np.all(seq.u <= 1.0 + 1e-12)
        assert np.all(np.diff(seq.partial_sums) >= -1e-12)

    def test_horizon_guard(self):
        dist = ro.ReturnDistribution.from_power_tail(0.5, 100)
        with pytest.raises(DomainError):
            ro.renewal_sequence(dist, 200)


class TestFirstOrderLaw:
    def test_log_model(self):
        nm = ro.Norming(beta=0.0, ell=ro.SlowlyVarying("log_power", c=1.0, p=-1.0))
        out = karamata_first_order(nm, np.array([100.0]))
        assert out[0] == pytest.approx(math.log(100.0))

    def test_beta_one_harmonic(self):
        nm = ro.Norming(beta=1.0, ell=ro.SlowlyVarying("constant", c=1.0))
        val = karamata_first_order(nm, np.array([10**4]))[0]
        assert val == pytest.approx(10**4 / np.log(10**4), rel=0.07)

    def test_half(self):
        nm = ro.Norming(beta=0.5, ell=ro.SlowlyVarying("constant", c=1.0))
        assert karamata_first_order(nm, np.array([10**4]))[0] == pytest.approx(
            200.0 / math.pi, rel=1e-12)

    def test_partial_sum_convergence_trend(self):
        dist = ro.ReturnDistribution.from_power_tail(0.5, 10**5)
        seq = ro.renewal_sequence(dist, 10**5)
        nm = ro.Norming(beta=0.5, ell=ro.SlowlyVarying("constant", c=1.0))
        devs = [abs(float(seq.U(np.array([n]))[0]) / nm.return_sequence(n) - 1.0)
                for n in (10**3, 10**4, 10**5)]
        assert devs[0] > devs[1] > devs[2]


class TestSecondOrderConstant:
    def test_zeta_identity_oracle(self):
        # c_H for pure power tails equals -(1 + zeta(beta)) / Gamma(1-beta);
        # cross-checked against a direct high-cutoff summation in-test
        import mpmath

        for beta in (0.6, 0.75, 0.8):
            got = ro.second_order_constant(beta)
            expect = -(1.0 + float(mpmath.zeta(beta))) / math.gamma(1.0 - beta)
            assert got.value == pytest.approx(expect, abs=5e-7)
            assert got.error_bar < 1e-5

    def test_direct_sum_oracle(self):
        beta = 0.75
        n = np.arange(1, 2_000_001, dtype=float)
        steps = n**-beta - ((n + 1) ** (1 - beta) - n ** (1 - beta)) / (1 - beta)
        s = steps.sum() + 0.5 * 2_000_000 ** (-beta)  # integral tail of b/2 x^-(b+1)
        expect = -((1 - 1 / (1 - beta)) + s) / math.gamma(1 - beta)
        assert ro.second_order_constant(beta).value == pytest.approx(expect, abs=1e-6)

    def test_positive_for_power_tails(self):
        assert ro.second_order_constant(0.75).value > 0

    def test_linearity_in_bump(self):
        beta = 0.75
        delta = 0.37
        base = ro.second_order_constant(beta).value
        bumped = ro.second_order_constant(
            beta, H=lambda n: delta * (np.asarray(n) == 1.0))
        assert bumped.value - base == pytest.approx(
            -delta / math.gamma(1 - beta), rel=1e-9)

    def test_rejects_small_beta(self):
        with pytest.raises(DomainError):
            ro.second_order_constant(0.4)


class TestExpansion:
    def test_single_term_at_half(self):
        exp = ro.AsymptoticExpansion(beta=0.5, c=1.0, c_h=0.0)
        assert len(exp.coefficients) == 1
        assert exp.coefficients[0] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-12)

    def test_exponents_three_quarters(self):
        ch = ro.second_order_constant(0.75).value
        exp = ro.AsymptoticExpansion(beta=0.75, c=1.0, c_h=ch)
        assert np.allclose(exp.exponents, [0.75, 0.5, 0.25])
        # at n = 1 all powers collapse to the plain coefficient sum
        assert exp.eval_raw(np.array([1.0]))[0] == pytest.approx(exp.coefficients.sum())

    def test_exact_synthetic_residuals_vanish(self):
        ch = ro.second_order_constant(0.75).value
        exp = ro.AsymptoticExpansion(beta=0.75, c=1.0, c_h=ch)
        n = np.arange(0, 2001, dtype=float)
        pred = exp.partial_sum_prediction(np.maximum(n, 1.0))
        pred[0] = 0.0
        seq = ro.ScalarRenewal(np.concatenate([[0.0], np.diff(pred)]))
        diag = ro.residual_diagnostics(seq, exp, n_lo=1000, n_hi=1999)
        assert np.max(np.abs(diag["residual"])) < 1e-9


@pytest.fixture(scope="module")
def seq75():
    dist = ro.ReturnDistribution.from_power_tail(0.75, 10**5)
    return ro.renewal_sequence(dist, 10**5)


class TestResidualDiagnostics:

    def test_full_expansion_flat(self, seq75):
        ch = ro.second_order_constant(0.75).value
        exp = ro.AsymptoticExpansion(beta=0.75, c=1.0, c_h=ch)
        diag = ro.residual_diagnostics(seq75, exp)
        assert diag["fit"].slope < 0.3

    def test_dropping_second_term_shows_it(self, seq75):
        ch = ro.second_order_constant(0.75).value
        exp = ro.AsymptoticExpansion(beta=0.75, c=1.0, c_h=ch)
        diag = ro.residual_diagnostics(seq75, exp, n_terms=1)
        assert diag["fit"].slope == pytest.approx(2 * 0.75 - 1.0, abs=0.1)

    def test_second_order_ratio_settles(self, seq75):
        # (U_n - first term) / n^{2 beta - 1} approaches d_1 / (c Gamma(1-b))
        ch = ro.second_order_constant(0.75).value
        exp = ro.AsymptoticExpansion(beta=0.75, c=1.0, c_h=ch)
        ns = np.array([10**3, 10**4, 10**5], dtype=float)
        resid = seq75.U(ns.astype(int)) - exp.partial_sum_prediction(ns, n_terms=1)
        ratios = resid / ns**0.5
        target = exp.coefficients[1] / math.gamma(0.25)
        assert ratios[-1] == pytest.approx(target, rel=0.05)
        assert abs(ratios[2] - target) < abs(ratios[0] - target)

    def test_beta_06_slope(self):
        dist = ro.ReturnDistribution.from_power_tail(0.6, 10**5)
        seq = ro.renewal_sequence(dist, 10**5)
        ch = ro.second_order_constant(0.6).value
        exp = ro.AsymptoticExpansion(beta=0.6, c=1.0, c_h=ch)
        diag = ro.residual_diagnostics(seq, exp)
        assert diag["fit"].slope < 0.3
