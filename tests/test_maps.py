import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import renewalops as ro
from renewalops.errors import DomainError
from renewalops.ladder import pullback_row

from conftest import bisect_left_branch


def left_inverse(spec, x):
    """The package's one Newton, started at w0 = x, on a single target."""
    target = np.array([x])
    return float(pullback_row(spec, target, target)[0])


class TestMapSpec:
    def test_left_branch_value(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        assert spec.left(0.25) == pytest.approx(0.3125, abs=1e-15)

    def test_log_family_near_half(self):
        spec = ro.MapSpec("lsv0")
        expect = 0.5 * (1 + 0.5 * math.exp(-2.0))
        assert spec.left(0.5 - 1e-12) == pytest.approx(expect, rel=1e-9)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(DomainError):
            ro.MapSpec("lsv", alpha=0.5)


class TestLeftInverse:
    def test_inverse_of_known_value(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        assert left_inverse(spec, 0.3125) == pytest.approx(0.25, abs=1e-13)

    def test_alpha_one_quadratic_root(self):
        # 2 y^2 + y = 1/2  =>  y = (sqrt(5) - 1)/4
        spec = ro.MapSpec("lsv", alpha=1.0)
        assert left_inverse(spec, 0.5) == pytest.approx((math.sqrt(5) - 1) / 4, abs=1e-14)

    def test_alpha_two_against_bisection(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        oracle = bisect_left_branch(spec, 0.5)
        assert left_inverse(spec, 0.5) == pytest.approx(oracle, abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.01, max_value=0.49),
           st.sampled_from(["lsv", "lsv0"]),
           st.floats(min_value=1.0, max_value=4.0))
    def test_roundtrip(self, y, family, alpha):
        spec = ro.MapSpec(family, alpha=alpha)
        x = spec.left(y)
        assert left_inverse(spec, x) == pytest.approx(y, abs=1e-12)

    def test_monotone(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        xs = np.linspace(0.05, 0.95, 19)
        ys = [left_inverse(spec, float(x)) for x in xs]
        assert all(b > a for a, b in zip(ys, ys[1:]))


class TestTailSequence:
    def test_short_orbit(self):
        spec = ro.MapSpec("lsv", alpha=2.0)
        ts = ro.tail_sequence(spec, 2)
        assert ts.x_n(1) == 0.5
        assert ts.x_n(2) == pytest.approx(bisect_left_branch(spec, 0.5), abs=1e-12)
        assert ts.y_n(1) == pytest.approx(0.75)

    def test_strictly_decreasing(self):
        ts = ro.tail_sequence(ro.MapSpec("lsv", alpha=2.0), 500)
        ys = 0.5 * (ts.x_tail + 1.0)
        assert np.all(np.diff(ts.x_tail) < 0)
        assert np.all(np.diff(ys) < 0) and ys[-1] > 0.5

    def test_orbit_index_outside_table_raises(self):
        ts = ro.tail_sequence(ro.MapSpec("lsv", alpha=2.0), 10)
        assert ts.n_rungs == 9 and ts.x_n(10) == ts.x_tail[-1]
        assert ts.y_n(0) == 1.0
        for n in (0, ts.n_rungs + 2):
            with pytest.raises(DomainError):
                ts.x_n(n)
        with pytest.raises(DomainError):
            ts.y_n(ts.n_rungs + 2)

    def test_power_law_ratio(self):
        # the recursion is its own oracle; relative correction is O(1/n)
        spec = ro.MapSpec("lsv", alpha=2.0)
        ts = ro.tail_sequence(spec, 10**4)
        n = 10**4
        ratio = ts.x_n(n) / (0.5 * 0.5**0.5 * n**-0.5)
        assert 0.99 <= ratio <= 1.01

    def test_increment_scaling(self):
        # x_n - x_{n+1} times n^{beta+1} stays bounded
        spec = ro.MapSpec("lsv", alpha=2.0)
        ts = ro.tail_sequence(spec, 10**4)
        n = np.arange(10**2, 10**4)
        incr = (ts.x_tail[n - 1] - ts.x_tail[n]) * n ** 1.5
        assert incr.max() / incr.min() < 3.0

    def test_log_family_drift(self):
        spec = ro.MapSpec("lsv0")
        ts = ro.tail_sequence(spec, 10**5)
        n = np.arange(10**2, 10**5 + 1)
        dev = np.abs(np.exp(1.0 / ts.x_tail[n - 1]) - n) / np.log(n)
        assert dev.max() < 1.5  # bounded, measured headroom ~2x


class TestReturnTimeTail:
    def test_full_mass_at_zero(self, lsv2_small):
        h = ro.invariant_density(lsv2_small)
        ts = ro.tail_sequence(lsv2_small.spec, 10)
        assert ro.return_time_tail(ts, h, 0) == pytest.approx(1.0, abs=1e-9)

    def test_rectangle_with_flat_density(self):
        # {return > 1} = [1/2, y_1] with y_1 = 3/4; a flat density 2 gives
        # the rectangle mass 2 * (y_1 - 1/2)
        grid = ro.Grid(200)
        flat = ro.GridObservable(grid, np.full(200, 2.0))
        ts = ro.tail_sequence(ro.MapSpec("lsv", alpha=2.0), 5)
        val = ro.return_time_tail(ts, flat, 1)
        assert val == pytest.approx(2 * (0.75 - 0.5), rel=1e-12)

    def test_non_increasing(self, lsv2_small):
        h = ro.invariant_density(lsv2_small)
        ts = ro.tail_sequence(lsv2_small.spec, 150)
        vals = [ro.return_time_tail(ts, h, n) for n in range(0, 150, 10)]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_power_asymptote(self, lsv2_mid):
        from renewalops.dual_ergodic import tail_model_from_operator

        h = ro.invariant_density(lsv2_mid)
        ts = ro.tail_sequence(lsv2_mid.spec, 1000)
        tm = tail_model_from_operator(lsv2_mid)
        val = ro.return_time_tail(ts, h, 1000)
        assert val == pytest.approx(tm.c * 1000**-0.5, rel=0.05)

    def test_array_matches_scalars(self, lsv2_small):
        h = ro.invariant_density(lsv2_small)
        ts = ro.tail_sequence(lsv2_small.spec, 150)
        ns = np.arange(0, 151)
        vals = ro.return_time_tail(ts, h, ns)
        assert vals.shape == ns.shape
        assert vals.tolist() == [ro.return_time_tail(ts, h, int(k)) for k in ns]

    def test_beyond_table_raises(self, lsv2_small):
        h = ro.invariant_density(lsv2_small)
        ts = ro.tail_sequence(lsv2_small.spec, 10)
        with pytest.raises(DomainError):
            ro.return_time_tail(ts, h, 11)


def monotone_summable_split(h):
    """Empirical check of the H = b + (summable) split used when beta <= 1/2.

    Fits the monotone envelope of the tabulated H and reports the size of
    the non-monotone residue and a summability estimate for it.
    """
    if h is None or len(h) < 4:
        return {"monotone_violation": 0.0, "residue_l1": 0.0}
    b = np.minimum.accumulate(h) if h[0] >= h[-1] else np.maximum.accumulate(h)
    resid = h - b
    return {
        "monotone_violation": float(np.max(np.abs(resid))),
        "residue_l1": float(np.sum(np.abs(resid))),
    }


class TestTailModel:
    def test_tail_values(self):
        tm = ro.TailModel(beta=0.5, c=1.0)
        n = np.array([1.0, 4.0, 100.0])
        assert np.allclose(tm.tail(n), n**-0.5)
        assert tm.tail(np.array([0.0]))[0] == 1.0

    def test_split_check_reports(self):
        h = -np.arange(1, 50, dtype=float) ** -1.2
        tm = ro.TailModel(beta=0.6, c=1.0, h_table=h)
        rep = monotone_summable_split(tm.h_table)
        assert rep["monotone_violation"] == pytest.approx(0.0, abs=1e-12)
