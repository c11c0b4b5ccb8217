import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, strategies as st

import renewalops as ro
from renewalops.errors import DomainError


def slow_variation_report(ell, lambdas=(0.5, 2.0, 4.0),
                          xs=(1e2, 1e3, 1e4, 1e5, 1e6, 1e7)):
    """Sampled check that ell(lam*x)/ell(x) -> 1 as x grows.

    Returns the per-lambda ratio deviations at the largest x and the worst
    deviation over the whole sample grid.
    """
    xs = np.asarray(xs, dtype=float)
    worst = 0.0
    at_largest = {}
    for lam in lambdas:
        ratios = np.asarray(ell(lam * xs)) / np.asarray(ell(xs))
        worst = max(worst, float(np.max(np.abs(ratios - 1.0))))
        at_largest[lam] = float(abs(ratios[-1] - 1.0))
    return {"worst_deviation": worst, "deviation_at_largest_x": at_largest}


@dataclass(frozen=True)
class DeHaanPair:
    """A slowly varying ``ell`` with auxiliary ``ell_hat`` dominating its increments.

    Membership in the increment class means some C bounds
    ``|ell(a*x) - ell(x)| <= C * ell_hat(x)`` for a in compacts of (0, inf).
    """

    ell: ro.SlowlyVarying
    ell_hat: ro.SlowlyVarying


def increment_report(pair, alphas=(0.5, 1.0, 2.0, 4.0),
                     xs=(1e2, 1e3, 1e4, 1e5, 1e6, 1e7)):
    """Smallest C with |ell(a*x) - ell(x)| <= C * ell_hat(x) over the sampled (a, x)."""
    xs = np.asarray(xs, dtype=float)
    c_fit = 0.0
    for a in alphas:
        incr = np.abs(np.asarray(pair.ell(a * xs)) - np.asarray(pair.ell(xs)))
        c_fit = max(c_fit, float(np.max(incr / np.asarray(pair.ell_hat(xs)))))
    return {"C": c_fit, "alphas": tuple(alphas), "x_range": (float(xs[0]), float(xs[-1]))}


class TestGamma:
    def test_anchor_values(self):
        assert ro.gamma(1.0) == pytest.approx(1.0, abs=1e-14)
        assert ro.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-13)
        assert ro.gamma(1.5) == pytest.approx(math.sqrt(math.pi) / 2, rel=1e-13)

    def test_recurrence_on_range(self):
        # Gamma(x+1) = x Gamma(x), a representation-independent consistency check
        for x in np.linspace(0.05, 49.0, 197):
            assert ro.gamma(x + 1.0) == pytest.approx(x * ro.gamma(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_poles_raise(self, x):
        with pytest.raises(DomainError):
            ro.gamma(x)


class TestKaramataConstant:
    def test_half_is_pi_over_two(self):
        assert ro.karamata_constant(0.5) == pytest.approx(math.pi / 2, rel=1e-14)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_endpoints(self, beta):
        assert ro.karamata_constant(beta) == 1.0

    def test_reflection_identity_grid(self):
        for beta in np.arange(0.05, 0.951, 0.05):
            val = ro.karamata_constant(beta) * math.sin(math.pi * beta) / (math.pi * beta)
            assert abs(val - 1.0) < 1e-12

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_reflection_identity_property(self, beta):
        val = ro.karamata_constant(beta) * math.sin(math.pi * beta) / (math.pi * beta)
        assert abs(val - 1.0) < 1e-10

    def test_domain(self):
        with pytest.raises(DomainError):
            ro.karamata_constant(1.2)


class TestHarmonicSum:
    def test_unit_cases(self):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        assert ro.harmonic_sum(one, 1) == pytest.approx(1.0)
        assert ro.harmonic_sum(one, 4) == pytest.approx(25.0 / 12.0, rel=1e-14)

    def test_scaled_harmonic(self):
        # direct-summation oracle
        two = lambda x: 2.0 * np.ones_like(np.asarray(x, dtype=float))
        expect = 2.0 * sum(1.0 / j for j in range(1, 11))
        assert ro.harmonic_sum(two, 10) == pytest.approx(expect, rel=1e-14)

    def test_strictly_increasing(self):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        vals = [ro.harmonic_sum(one, n) for n in range(1, 30)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


class TestExpansionOrder:
    @pytest.mark.parametrize("beta,expect", [(0.5, 0), (0.6, 1), (0.75, 2)])
    def test_examples(self, beta, expect):
        assert ro.expansion_order(beta) == expect

    @given(st.floats(min_value=0.01, max_value=0.99),
           st.floats(min_value=0.01, max_value=0.99))
    def test_monotone(self, b1, b2):
        lo, hi = sorted((b1, b2))
        assert ro.expansion_order(lo) <= ro.expansion_order(hi)

    @given(st.floats(min_value=0.01, max_value=0.99))
    def test_positive_iff_beyond_half(self, beta):
        k = ro.expansion_order(beta)
        if beta <= 0.5:
            assert k == 0
        if beta > 0.5 + 1e-9:
            assert k >= 1

    def test_refused_past_the_term_cap(self):
        # the term count grows like beta/(1-beta): 9998 at 0.9999, endless at 1 - 1e-16
        assert ro.expansion_order(0.9999) == 9998
        for beta in (0.99995, 1.0 - 1e-16):
            with pytest.raises(DomainError, match="needs about"):
                ro.expansion_order(beta)


class TestSlowlyVarying:
    @pytest.mark.parametrize("ell", [
        ro.SlowlyVarying("constant", c=2.0),
        ro.SlowlyVarying("log_power", c=1.0, p=-1.0),
        ro.SlowlyVarying("log_power", c=3.0, p=2.0),
    ])
    def test_positive_and_slowly_varying(self, ell):
        x = np.geomspace(2.0, 1e7, 40)
        assert np.all(np.asarray(ell(x)) > 0)
        rep = slow_variation_report(ell)
        assert max(rep["deviation_at_largest_x"].values()) < 0.25

    def test_de_haan_pair_log(self):
        pair = DeHaanPair(ro.SlowlyVarying("log_power", c=1.0, p=1.0),
                          ro.SlowlyVarying("constant", c=1.0))
        rep = increment_report(pair)
        # |log(a x) - log x| = |log a| <= log 4
        assert rep["C"] <= math.log(4.0) + 1e-9

    def test_bad_kind(self):
        with pytest.raises(DomainError):
            ro.SlowlyVarying("exp")


class TestNorming:
    def test_beta_zero_log_model(self):
        nm = ro.Norming(beta=0.0, ell=ro.SlowlyVarying("log_power", c=1.0, p=-1.0))
        assert nm.return_sequence(1000.0) == pytest.approx(math.log(1000.0), rel=1e-12)

    def test_beta_one_uses_harmonic_sum(self):
        nm = ro.Norming(beta=1.0, ell=ro.SlowlyVarying("constant", c=1.0))
        n = 10**4
        expect = n / sum(1.0 / j for j in range(1, n + 1))
        assert nm.return_sequence(n) == pytest.approx(expect, rel=1e-12)

    def test_half(self):
        nm = ro.Norming(beta=0.5, ell=ro.SlowlyVarying("constant", c=1.0))
        assert nm.return_sequence(10**4) == pytest.approx(200.0 / math.pi, rel=1e-12)
