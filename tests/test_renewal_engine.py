
import os
import subprocess
import sys
from pathlib import Path

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
                                                  (ro.MapSpec("lsv0"), 256, 2000),
                                                  (ro.MapSpec("lsv", alpha=2.0), 256, 600)],
                             ids=["lsv-2", "lsv0", "lsv-2-256"])
    def test_launch_row_ranges_do_not_change_any_step(self, monkeypatch, spec, m, n_trunc):
        """A launch gives the same bits in ranges of one row block or of all rows."""
        op = ro.assemble_operator(spec, ro.Grid(m), n_trunc=n_trunc)
        row_hi = renewal_engine._FastRun(op, n_trunc).row_hi
        assert op.groups and 1 < row_hi and (spec.family == "lsv") == (row_hi == m)
        v = np.random.default_rng(5).uniform(0.5, 1.5, m)
        ns = list(range(0, n_trunc + 1, 7))
        runs = []
        # one _ROW_BLOCK of 64 rows (below 4096 pieces), so 256 rows go in four
        # ranges; the same at 3000 bytes; all rows
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
        """A fresh operator's groups list their pieces by first lag p, so by
        first launch p // block too, and a run launches them in that order."""
        op = ro.assemble_operator(spec, ro.Grid(m), n_trunc=n_trunc)
        assert len(op.groups) > 1
        for g in op.groups:
            lags = [p for _, p in g.kernels]
            assert lags == sorted(lags)
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

    def test_a_rerun_past_a_piece_the_layout_met_first_keeps_its_spectra(self):
        """Cell 0 reads lags 8-15 and 20, cell 1 lag 17.  The layout meets cell 0
        first, so its piece at 20 comes before cell 1's at 17, and both first
        launch at t = 16.  A run to 18 stores only (1, 17)'s spectrum; a rerun
        to 25 must keep it under (1, 17) and add (0, 20)'s: both runs match
        the literal recursion."""
        m = 2
        blocks = [sp.lil_matrix((m, m)) for _ in range(25)]
        for cell, lags in [(0, (*range(8, 16), 20)), (1, (17,))]:
            for j in lags:
                blocks[j - 1][j % m, cell] = 0.05
        h = np.array([1.0, 2.0])
        op = synthetic_operator(ro.Grid(m), blocks, density=h, j_direct=2)
        assert [list(g.kernels) for g in op.groups] == [[(0, 8)], [(1, 17), (0, 20)]]
        v = np.array([0.7, 1.3])
        want = literal_exact_steps([sp.csr_matrix(b) for b in blocks], h * v, 25)
        assert np.max(np.abs(fast_history(op, v, 18) - want[:19])) < 1e-12
        assert op.groups[1].spectra.shape[1] == 1
        assert np.max(np.abs(fast_history(op, v, 25) - want)) < 1e-12

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

    @pytest.mark.parametrize("lag, j_direct", [(1, None), (20, 2)], ids=["window", "kernel"])
    def test_subnormal_traces_read_as_zero(self, lag, j_direct):
        """R_lag = I / 2 halves cell 0's 1e-300 every lag steps until s_n[0] =
        1.49e-308 at n = 26 lag is subnormal.  That step still yields it, but
        the window or the kernel reads it as 0, so cell 0 stays 0 where the
        literal recursion goes on through the subnormals; cell 1 matches."""
        m, first = 2, 26 * lag
        blocks = [sp.csr_matrix((m, m)) for _ in range(lag)]
        blocks[lag - 1] = sp.identity(m, format="csr") / 2
        op = synthetic_operator(ro.Grid(m), blocks, density=np.ones(m), j_direct=j_direct)
        s0 = np.array([1e-300, 1.0])
        got = fast_history(op, s0, first + 4 * lag)
        want = literal_exact_steps(blocks, s0, first + 4 * lag)
        assert 0 < want[first, 0] < np.finfo(float).tiny <= want[first - lag, 0]
        assert np.max(np.abs(got[: first + 1, 0] - want[: first + 1, 0])) <= 5e-324
        assert not got[first + 1:, 0].any() and want[first + lag::lag, 0].all()
        assert np.allclose(got[:, 1], want[:, 1], rtol=1e-13, atol=1e-15)


def per_piece_history(op, groups, s0, n_max):
    """s_0..s_{n_max} of ``op`` with every launch summed piece by piece.

    ``groups`` holds copies of the operator's bands as (block, {(cell,
    lag): band}).  Each launch takes each started piece's product with its
    trace's spectrum and adds them up one by one, in the group's order,
    before one inverse transform, as the engine did before a group's
    spectra shared one array; the window and the schedule are the
    engine's.
    """
    m, jd = op.grid.m, op.j_direct - 1
    lag, cell = jd - op.window // m, op.window % m
    row_hi = next((k.shape[0] for _, pieces in groups for k in pieces.values()), 0)
    longest = max((block for block, _ in groups), default=1)
    hist = np.zeros((n_max + 1, m))
    pending = np.zeros((n_max + 2 * longest, row_hi))
    for n in range(n_max + 1):
        if n == 0:
            s = s0.copy()
        else:
            past = n - lag
            s = op.stacked @ np.where(past >= 0, hist[np.maximum(past, 0), cell], 0.0)
            s[:row_hi] += pending[n]
        hist[n] = s
        t = n + 1
        for L, pieces in groups:
            started = [(i, p, k) for (i, p), k in pieces.items()
                       if p <= n_max and L * (p // L) <= t]
            if t % L or t > n_max or not started:
                continue
            acc = None
            for i, p, k in started:
                times = np.arange(t, t + L) - p
                trace = np.where(times >= 0, hist[np.maximum(times, 0), i], 0.0)
                term = np.fft.rfft(k, n=2 * L, axis=1) * np.fft.rfft(trace, n=2 * L)
                acc = term if acc is None else acc + term
            pending[t: t + 2 * L - 1] += np.fft.irfft(acc, n=2 * L, axis=1)[:, : 2 * L - 1].T
    return hist


def kernel_blocks(m, reads, seed):
    """Blocks R_1..R_n over m cells: cell c reads weight into a few rows at each lag of reads[c]."""
    rng = np.random.default_rng(seed)
    n = max(max(lags) for lags in reads.values())
    blocks = [sp.lil_matrix((m, m)) for _ in range(n)]
    for c in range(m):  # a window entry per cell keeps every step's s_n alive
        blocks[0][rng.integers(m), c] = 0.3
    for c, lags in reads.items():
        for j in lags:
            for row in rng.choice(m, size=min(m, 3), replace=False):
                blocks[j - 1][row, c] += rng.uniform(0.005, 0.02)
    return blocks


class TestBatchedLaunch:
    """The one-product launch against the per-piece sum, to 1e-13 of the largest value."""

    def check(self, blocks, n_max, seed):
        m = blocks[0].shape[0]
        rng = np.random.default_rng(seed)
        h = rng.uniform(0.5, 1.5, m)
        op = synthetic_operator(ro.Grid(m), blocks, density=h, j_direct=2)
        groups = [(g.block, {e: k.copy() for e, k in g.kernels.items()}) for g in op.groups]
        v = rng.uniform(0.5, 1.5, m)
        want = per_piece_history(op, groups, h * v, n_max)
        got = fast_history(op, v, n_max)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        return op

    def test_a_group_of_many_pieces(self):
        # twelve cells read lags 20 + c .. 30 + c: twelve pieces of 11 lags, all of block 16
        op = self.check(kernel_blocks(12, {c: range(20 + c, 31 + c) for c in range(12)}, 1),
                        n_max=120, seed=1)
        assert [(g.block, len(g.kernels)) for g in op.groups] == [(16, 12)]

    def test_a_late_piece_after_an_earlier_cell(self):
        # the layout of test_a_late_piece_launches_after_an_earlier_cell, with a window
        reads = {0: [*range(16, 21), *range(64, 69)], 1: range(20, 25)}
        op = self.check(kernel_blocks(2, reads, 2), n_max=150, seed=2)
        assert [list(g.kernels) for g in op.groups] == [[(0, 16), (1, 20), (0, 64)]]

    def test_rows_split_over_launch_ranges(self, monkeypatch):
        # 200 rows in ranges of one 64-row block at block 16: 64, 64, 64 and the last 8
        monkeypatch.setattr(renewal_engine, "_LAUNCH_BYTES", 16 * 17 * 64)
        reads = {c: range(18 + c % 5, 30 + c % 5) for c in range(0, 200, 7)}
        op = self.check(kernel_blocks(200, reads, 3), n_max=90, seed=3)
        assert renewal_engine._FastRun(op, 90).row_hi == 200 > 3 * 64


PRODUCT_SCRIPT = """
import hashlib, numpy as np
from renewalops.renewal_engine import _product
rng = np.random.default_rng(0)
F, k, rows = 17, 45, 1501
spectra = rng.standard_normal((F, k, rows)) + 1j * rng.standard_normal((F, k, rows))
a_hat = rng.standard_normal((F, k)) + 1j * rng.standard_normal((F, k))
print(hashlib.sha256(_product(a_hat, spectra).tobytes()).hexdigest())
"""


def test_launch_product_does_not_depend_on_thread_count():
    """A launch's product over 45 pieces x 1,501 rows, far above the size from
    which OpenBLAS threads one product, gives the same bytes on 1 and 2 threads
    (one plain ``np.matmul`` over those rows does not)."""
    src = str(Path(renewal_engine.__file__).resolve().parents[1])
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", PRODUCT_SCRIPT], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        digests.append(done.stdout)
    assert digests[0] == digests[1]
