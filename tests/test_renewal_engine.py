import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import renewalops as ro
from renewalops import induced
from renewalops.errors import NumericalError
from renewalops.renewal_engine import _exact_steps


def literal_exact_steps(branches, s0, n_max):
    """s_0..s_{n_max} by the recursion applied literally, one product per branch."""
    hist = [s0]
    for n in range(1, n_max + 1):
        s = np.zeros_like(s0)
        for j in range(1, min(n, len(branches)) + 1):
            s += branches[j - 1] @ hist[n - j]
        hist.append(s)
    return np.array(hist)


@st.composite
def synthetic_families(draw):
    """Sparse nonnegative blocks whose sum is column-substochastic, plus n_max."""
    m = draw(st.integers(4, 40))
    k = draw(st.integers(1, 30))
    density = draw(st.floats(0.02, 0.6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    blocks = [sp.random(m, m, density=density, random_state=rng, format="csr")
              for _ in range(k)]
    col_mass = sum(np.asarray(b.sum(axis=0)).ravel() for b in blocks)
    scale = rng.uniform(0.5, 1.0, m) / np.maximum(col_mass, 1e-300)
    blocks = [b @ sp.diags(scale) for b in blocks]
    n_max = draw(st.sampled_from([0, 1, k - 1, k, k + 5]))
    op = ro.InducedOperator.synthetic(ro.Grid(m), blocks)
    # the density solve is not under test: a fixed positive density stands in
    op = dataclasses.replace(op, _density=rng.uniform(0.5, 1.5, m), _density_residual=0.0)
    return op, rng.uniform(0.1, 2.0, m), n_max


class TestDoublingSanity:
    def test_constant_preserved(self, doubling_op):
        acc = ro.renewal_action(doubling_op, np.ones(32), 50, path="exact")
        assert np.allclose(acc.tn_integral, 1.0, atol=1e-12)

    def test_time_zero_is_identity(self, doubling_op):
        v = np.linspace(0.3, 1.7, 32)
        acc = ro.renewal_action(doubling_op, v, 0)
        assert np.allclose(acc.snapshots[0], v, atol=1e-13)


class TestPathAgreement:
    def test_exact_vs_fast(self, lsv2_small):
        m = lsv2_small.grid.m
        rng = np.random.default_rng(7)
        v = 0.5 + rng.random(m)
        a_e = ro.renewal_action(lsv2_small, v, 150, snapshot_ns=[50, 150], path="exact")
        a_f = ro.renewal_action(lsv2_small, v, 150, snapshot_ns=[50, 150], path="fast")
        assert np.max(np.abs(a_e.tn_integral - a_f.tn_integral)) < 1e-11
        for n in (50, 150):
            assert np.max(np.abs(a_e.snapshots[n] - a_f.snapshots[n])) < 1e-10

    def test_log_family_paths(self, lsv0_small):
        v = np.ones(lsv0_small.grid.m)
        a_e = ro.renewal_action(lsv0_small, v, 200, path="exact")
        a_f = ro.renewal_action(lsv0_small, v, 200, path="fast")
        assert np.max(np.abs(a_e.tn_integral - a_f.tn_integral)) < 1e-11


class TestStructure:
    def test_positivity(self, lsv2_small):
        v = np.abs(np.sin(np.arange(lsv2_small.grid.m)))
        acc = ro.renewal_action(lsv2_small, v, 100, path="fast", keep_history=True)
        assert acc.s_all.min() >= -1e-13

    def test_convolution_identity_literal(self, lsv2_small):
        # s_n = sum_j R_j s_{n-j} re-verified against independently built blocks
        v = np.ones(lsv2_small.grid.m)
        acc = ro.renewal_action(lsv2_small, v, 60, path="fast", keep_history=True)
        mats = lsv2_small.branch_matrices()
        for n in (1, 7, 33, 60):
            expect = np.zeros(lsv2_small.grid.m)
            for j in range(1, min(n, len(mats)) + 1):
                expect += mats[j - 1] @ acc.s_all[n - j]
            assert np.max(np.abs(acc.s_all[n] - expect)) < 1e-11

    def test_partial_sums_track_integrals(self, lsv2_small):
        v = np.ones(lsv2_small.grid.m)
        acc = ro.renewal_action(lsv2_small, v, 80, snapshot_ns=[80])
        h = lsv2_small.density_values
        delta = lsv2_small.grid.width
        lhs = float(np.dot(acc.snapshots[80], h) * delta)
        assert lhs == pytest.approx(acc.partial_integral(80), rel=1e-10)

    def test_snapshot_keys(self, lsv2_small):
        acc = ro.renewal_action(lsv2_small, np.ones(lsv2_small.grid.m), 40,
                                snapshot_ns=[10, 20])
        assert sorted(acc.snapshots) == [10, 20, 40]


class TestExactPath:
    @settings(max_examples=80, deadline=None)
    @given(synthetic_families())
    def test_block_diagonal_steps_match_literal_recursion(self, family):
        op, v, n_max = family
        s0 = op.density_values * v
        want = literal_exact_steps(op.branch_matrices(), s0, n_max).tobytes()
        # yielded arrays are kept without copying: a yielded view of the
        # history ring would be overwritten by later steps
        k = min(n_max, op.n_trunc)
        yielded = [s for _, s in _exact_steps(op.leading_branches(k), s0, n_max)]
        assert np.array(yielded).tobytes() == want
        exact = ro.renewal_action(op, v, n_max, path="exact", keep_history=True)
        assert exact.s_all.tobytes() == want
        fast = ro.renewal_action(op, v, n_max, path="fast", keep_history=True)
        assert np.max(np.abs(fast.s_all - exact.s_all)) < 1e-10

    def test_size_guard_raises_before_building(self, monkeypatch):
        op = ro.assemble_operator(ro.MapSpec("lsv", alpha=2.0), ro.Grid(32), n_trunc=40)
        v = np.ones(32)
        # 20 branches: 20 * 32 rows of blocks plus 2 * 20 * 32 of history
        monkeypatch.setattr(induced, "_MATERIALIZE_LIMIT", 3 * 20 * 32 - 1)
        with pytest.raises(NumericalError, match="path='fast'"):
            ro.renewal_action(op, v, 20, path="exact")
        assert op._branch_cache == []
        monkeypatch.setattr(induced, "_MATERIALIZE_LIMIT", 3 * 20 * 32)
        ro.renewal_action(op, v, 20, path="exact")
        assert len(op._branch_cache) == 20
        with pytest.raises(NumericalError, match="path='fast'"):
            op.branch_matrices()
