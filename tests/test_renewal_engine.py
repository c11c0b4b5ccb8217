
import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

import renewalops as ro
from renewalops import errors, renewal_engine
from renewalops.errors import DomainError, NumericalError

from conftest import (exact_history, exact_steps, fast_history, literal_exact_steps,
                      synthetic_operator)


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
    # the density solve is not under test: a fixed positive density stands in
    op = synthetic_operator(ro.Grid(m), blocks, density=rng.uniform(0.5, 1.5, m))
    return op, blocks, rng.uniform(0.1, 2.0, m), n_max


@st.composite
def assembled_cases(draw):
    """Lsv (alpha in [1.5, 2.5], else lsv0) assembly parameters with random fast layouts."""
    n_trunc = draw(st.integers(40, 300))
    return dict(
        alpha=draw(st.one_of(st.none(), st.floats(1.5, 2.5))), n_trunc=n_trunc,
        j_direct=draw(st.integers(1, n_trunc + 2)), span_cap=draw(st.integers(8, 256)),
        m=draw(st.integers(32, 64)), seed=draw(st.integers(0, 2**32 - 1)),
        n_max=draw(st.integers(n_trunc // 2, n_trunc + 40)),
    )


def assemble_case(alpha, n_trunc, j_direct, span_cap, m, seed, n_max):
    """The operator, a positive input and n_max of an ``assembled_cases`` draw."""
    spec = ro.MapSpec("lsv0") if alpha is None else ro.MapSpec("lsv", alpha=alpha)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(renewal_engine, "_SPAN_CAP", span_cap)
        op = ro.assemble_operator(spec, ro.Grid(m), n_trunc=n_trunc, j_direct=j_direct,
                                  deficit_bound=1.0)
    rng = np.random.default_rng(seed)
    return op, rng.uniform(0.5, 1.5, op.grid.m), n_max


class TestDoublingSanity:
    def test_constant_preserved(self, doubling_op):
        acc = ro.renewal_action(doubling_op, np.ones(32), 50)
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
        exact = exact_history(lsv2_small, v, 150)
        acc = ro.renewal_action(lsv2_small, v, 150, snapshot_ns=[50, 150])
        delta, h = lsv2_small.grid.width, lsv2_small.density_values
        assert np.max(np.abs(exact.sum(axis=1) * delta - acc.tn_integral)) < 1e-11
        for n in (50, 150):
            assert np.max(np.abs(exact[: n + 1].sum(axis=0) / h - acc.snapshots[n])) < 1e-10

    def test_log_family_paths(self, lsv0_small):
        v = np.ones(lsv0_small.grid.m)
        exact = exact_history(lsv0_small, v, 200)
        acc = ro.renewal_action(lsv0_small, v, 200)
        delta = lsv0_small.grid.width
        assert np.max(np.abs(exact.sum(axis=1) * delta - acc.tn_integral)) < 1e-11

    @settings(max_examples=40, deadline=None)
    @given(assembled_cases())
    # groups of blocks 8 and 16 share a 32-row output ring that wraps 7 times
    @example(dict(alpha=2.0, n_trunc=120, j_direct=8, span_cap=16, m=32, seed=0, n_max=240))
    # on two cells, one band runs over lags 2..100: pieces of 2, 4 and 8
    # lags open it, and the 8-lag cap splits the rest
    @example(dict(alpha=2.0, n_trunc=100, j_direct=2, span_cap=8, m=2, seed=1, n_max=140))
    # n_max >= 3 n_trunc: every cell's trace ring, at most n_trunc deep, wraps twice
    @example(dict(alpha=None, n_trunc=60, j_direct=4, span_cap=8, m=48, seed=2, n_max=190))
    def test_fast_matches_exact_on_assembled_operators(self, case):
        op, v, n_max = assemble_case(**case)
        exact = exact_history(op, v, n_max)
        fast = fast_history(op, v, n_max)
        assert np.max(np.abs(fast - exact)) < 1e-10


class TestStructure:
    def test_positivity(self, lsv2_small):
        v = np.abs(np.sin(np.arange(lsv2_small.grid.m)))
        assert fast_history(lsv2_small, v, 100).min() >= -1e-13

    def test_convolution_identity_literal(self, lsv2_small):
        # s_n = sum_j R_j s_{n-j} re-verified against independently built blocks
        v = np.ones(lsv2_small.grid.m)
        s_all = fast_history(lsv2_small, v, 60)
        mats = lsv2_small.branch_matrices()
        for n in (1, 7, 33, 60):
            expect = np.zeros(lsv2_small.grid.m)
            for j in range(1, min(n, len(mats)) + 1):
                expect += mats[j - 1] @ s_all[n - j]
            assert np.max(np.abs(s_all[n] - expect)) < 1e-11

    def test_partial_sums_track_integrals(self, lsv2_small):
        v = np.ones(lsv2_small.grid.m)
        acc = ro.renewal_action(lsv2_small, v, 80, snapshot_ns=[80])
        h = lsv2_small.density_values
        delta = lsv2_small.grid.width
        lhs = float(np.dot(acc.snapshots[80], h) * delta)
        assert lhs == pytest.approx(acc.tn_integral[:81].sum(), rel=1e-10)

    def test_snapshot_keys(self, lsv2_small):
        acc = ro.renewal_action(lsv2_small, np.ones(lsv2_small.grid.m), 40,
                                snapshot_ns=[10, 20])
        assert sorted(acc.snapshots) == [10, 20, 40]

    @pytest.mark.parametrize("snapshot_ns", [[-1], [10, 41]])
    def test_snapshot_outside_range_rejected(self, lsv2_small, snapshot_ns):
        with pytest.raises(DomainError, match="snapshot"):
            ro.renewal_action(lsv2_small, np.ones(lsv2_small.grid.m), 40,
                              snapshot_ns=snapshot_ns)


class TestExactPath:
    @settings(max_examples=80, deadline=None)
    @given(synthetic_families())
    def test_block_diagonal_steps_match_literal_recursion(self, family):
        op, blocks, v, n_max = family
        s0 = op.density_values * v
        want = literal_exact_steps(blocks, s0, n_max).tobytes()
        # yielded arrays are kept without copying: a yielded view of the
        # history ring would be overwritten by later steps
        k = min(n_max, op.n_trunc)
        yielded = np.array([s for _, s in exact_steps(blocks[:k], s0, n_max)])
        assert yielded.tobytes() == want
        fast = fast_history(op, v, n_max)
        assert np.max(np.abs(fast - yielded)) < 1e-10


class TestFastPath:
    @pytest.mark.parametrize("spec", [ro.MapSpec("lsv", alpha=2.0), ro.MapSpec("lsv0")],
                             ids=["lsv-2", "lsv0"])
    def test_default_window_matches_wide_window(self, spec):
        grid, n_trunc = ro.Grid(64), 600
        op = ro.assemble_operator(spec, grid, n_trunc=n_trunc)
        assert op.j_direct == min(n_trunc + 1, 128)
        wide = ro.assemble_operator(spec, grid, n_trunc=n_trunc, j_direct=512)
        v = np.random.default_rng(3).uniform(0.5, 1.5, grid.m)
        ns = list(range(n_trunc + 1))
        got = ro.renewal_action(op, v, n_trunc, snapshot_ns=ns)
        want = ro.renewal_action(wide, v, n_trunc, snapshot_ns=ns)
        np.testing.assert_allclose(got.tn_integral, want.tn_integral, rtol=1e-12, atol=0)
        for n in ns:
            np.testing.assert_allclose(got.snapshots[n], want.snapshots[n], rtol=1e-12, atol=0)

    @pytest.mark.parametrize("spec, m, n_trunc", [(ro.MapSpec("lsv", alpha=2.0), 64, 600),
                                                  (ro.MapSpec("lsv0"), 256, 2000)],
                             ids=["lsv-2", "lsv0"])
    def test_launch_row_ranges_do_not_change_any_step(self, monkeypatch, spec, m, n_trunc):
        """A launch gives the same bits in ranges of one row, a few rows, or all rows."""
        op = ro.assemble_operator(spec, ro.Grid(m), n_trunc=n_trunc)
        row_hi = renewal_engine._FastRun(op, n_trunc).row_hi
        assert op.groups and 1 < row_hi and (spec.family == "lsv") == (row_hi == m)
        v = np.random.default_rng(5).uniform(0.5, 1.5, m)
        ns = list(range(0, n_trunc + 1, 7))
        runs = []
        # one row; 11 rows at block 16 and one at block 128 and up; all rows
        for launch_bytes in (1, 3000, 16 * row_hi * (renewal_engine._SPAN_CAP + 1)):
            monkeypatch.setattr(renewal_engine, "_LAUNCH_BYTES", launch_bytes)
            runs.append(ro.renewal_action(op, v, n_trunc, snapshot_ns=ns))
        for got in runs[:-1]:
            assert np.array_equal(got.tn_integral, runs[-1].tn_integral)
            for n in ns:
                assert np.array_equal(got.snapshots[n], runs[-1].snapshots[n]), n

    def test_size_guard_raises_before_any_spectrum(self, monkeypatch):
        op = ro.assemble_operator(ro.MapSpec("lsv", alpha=2.0), ro.Grid(32), n_trunc=200,
                                  j_direct=16)
        v, n_max = np.ones(32), 150
        need = renewal_engine._FastRun(op, n_max).nbytes
        monkeypatch.setattr(errors, "BYTE_LIMIT", need - 1)
        transforms = []
        rfft = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda *a, **k: transforms.append(1) or rfft(*a, **k))
        with pytest.raises(NumericalError, match="lower nmax"):
            ro.renewal_action(op, v, n_max)
        assert transforms == []
        monkeypatch.setattr(errors, "BYTE_LIMIT", need)
        ro.renewal_action(op, v, n_max)
        assert transforms

    def test_second_run_reuses_the_spectra(self, monkeypatch):
        """A rerun on one operator takes no band's transform and gives the same bits."""
        op = ro.assemble_operator(ro.MapSpec("lsv", alpha=2.0), ro.Grid(64), n_trunc=300,
                                  j_direct=16)
        v, n_max = np.random.default_rng(2).uniform(0.5, 1.5, 64), 250
        live = sum(p <= n_max for g in op.groups for _, p in g.kernels)
        assert 0 < live < sum(len(g.kernels) for g in op.groups)
        rfft = np.fft.rfft
        runs = []
        for _ in range(2):
            transforms = []
            monkeypatch.setattr(np.fft, "rfft",
                                lambda *a, **k: transforms.append(1) or rfft(*a, **k))
            runs.append((ro.renewal_action(op, v, n_max, snapshot_ns=[100, 200]),
                         len(transforms)))
        (first, n_first), (second, n_second) = runs
        # the trace transforms, one per launch, are the same in both runs
        assert n_first - n_second == live
        assert np.array_equal(first.tn_integral, second.tn_integral)
        for n in (100, 200, n_max):
            assert np.array_equal(first.snapshots[n], second.snapshots[n])

    @pytest.mark.parametrize("spec, m, n_trunc", [(ro.MapSpec("lsv", alpha=2.0), 64, 600),
                                                  (ro.MapSpec("lsv0"), 256, 2000)],
                             ids=["lsv-2", "lsv0"])
    def test_groups_hold_their_pieces_in_launch_order(self, spec, m, n_trunc):
        """A fresh operator's groups list their pieces by first launch p // block,
        and a run launches them in that order."""
        op = ro.assemble_operator(spec, ro.Grid(m), n_trunc=n_trunc)
        assert len(op.groups) > 1
        for g in op.groups:
            launch = [p // g.block for _, p in g.kernels]
            assert launch == sorted(launch)
        run = renewal_engine._FastRun(op, n_trunc)
        assert [keys for _, keys, *_ in run._groups] == [list(g.kernels) for g in op.groups]

    def test_a_late_piece_launches_after_an_earlier_cell(self):
        """Cell 0 reads lags 16-20 and 64-68, cell 1 lags 20-24.  The layout
        meets cell 0 first, but its piece at 64 first launches at t = 64,
        after cell 1's piece at 20 (t = 16): their group lists them by first
        launch, and a run matches the literal recursion."""
        m, n = 2, 70
        blocks = [sp.lil_matrix((m, m)) for _ in range(n)]
        for cell, lags in [(0, (*range(16, 21), *range(64, 69))), (1, range(20, 25))]:
            for j in lags:
                blocks[j - 1][j % m, cell] = 0.05
        h = np.array([1.0, 2.0])
        op = synthetic_operator(ro.Grid(m), blocks, density=h, j_direct=2)
        assert [list(g.kernels) for g in op.groups] == [[(0, 16), (1, 20), (0, 64)]]
        v = np.array([0.7, 1.3])
        want = literal_exact_steps([sp.csr_matrix(b) for b in blocks], h * v, 150)
        assert np.max(np.abs(fast_history(op, v, 150) - want)) < 1e-12

    @pytest.mark.parametrize("spec, n_first",
                             [(ro.MapSpec("lsv", alpha=2.5), n) for n in (40, 150, 299)]
                             + [(ro.MapSpec("lsv0"), n) for n in (40, 150, 299)],
                             ids=["40", "150", "299", "lsv0-40", "lsv0-150", "lsv0-299"])
    def test_later_run_sums_as_on_a_fresh_operator(self, spec, n_first):
        """Pieces a shorter run replaced by their spectra keep their place in the
        launches: a run to n_trunc after one to n_first gives a fresh operator's bits."""
        def assemble():
            return ro.assemble_operator(spec, ro.Grid(128), n_trunc=400, j_direct=4)
        v, n_max = np.random.default_rng(3).uniform(0.5, 1.5, 128), 400
        fresh = assemble()
        want = ro.renewal_action(fresh, v, n_max, snapshot_ns=[200])
        op = assemble()
        ro.renewal_action(op, v, n_first)
        got = ro.renewal_action(op, v, n_max, snapshot_ns=[200])
        assert np.array_equal(got.tn_integral, want.tn_integral)
        for n in (200, n_max):
            assert np.array_equal(got.snapshots[n], want.snapshots[n])

    def test_empty_window(self):
        # blocks without entries leave an m x 0 window: s_0 = h v, then zeros
        m, h = 8, np.full(8, 2.0)
        op = synthetic_operator(ro.Grid(m), [sp.csr_matrix((m, m))] * 3, density=h)
        assert op.stacked.shape == (m, 0) and op.window.size == 0
        v = np.linspace(0.5, 1.5, m)
        hist = fast_history(op, v, 5)
        assert np.array_equal(hist[0], h * v) and not hist[1:].any()
        acc = ro.renewal_action(op, v, 5)
        assert acc.tn_integral[0] == (h * v).sum() * op.grid.width
        assert not acc.tn_integral[1:].any()
