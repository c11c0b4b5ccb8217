import numpy as np
import pytest

import renewalops as ro


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
