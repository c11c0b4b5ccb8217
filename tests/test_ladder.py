"""The one-pass ladder against a full-width reference loop.

The reference pulls every clamped edge back rung by rung, as the ladder did
when it built its rows in one pass and re-pulled them in every sweep.  The
one-pass ladder pulls only the distinct columns and must agree bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp

import renewalops as ro
from renewalops.induced import _DenseAccumulator, _branch_entries, _tail_completion
from renewalops.ladder import BranchLadder, _pullback_row

N_RUNGS = 300
STRIDE = 128
SPECS = {
    "lsv-5/3": ro.MapSpec("lsv", alpha=5.0 / 3.0),
    "lsv-2": ro.MapSpec("lsv", alpha=2.0),
    "lsv0": ro.MapSpec("lsv0"),
}


def reference_rungs(spec, edges, n_rungs):
    """Full-width rungs 0..n_rungs of the clamped edge array."""
    row = np.minimum(edges, spec.left_image_sup * (1.0 - 1e-14))
    rows = [row]
    for _ in range(n_rungs):
        row = _pullback_row(spec, row, row)
        rows.append(row)
    return rows


def reference_top_tail(spec, rows):
    x_last = rows[-1][0]
    k = len(rows)  # last branch with tabulated geometry
    factor = k / spec.beta if spec.family == "lsv" else k * np.log(k)
    return 0.5 * (rows[-1] - x_last) * factor, 0.5 * float(x_last)


def padded(row, width):
    return np.concatenate([row, np.full(width - row.size, row[-1])])


@pytest.fixture(scope="module", params=sorted(SPECS))
def case(request):
    spec = SPECS[request.param]
    edges = ro.Grid(128).edges
    return spec, edges, reference_rungs(spec, edges, N_RUNGS)


def assert_sweep_matches(ladder, ref, j_lo, j_hi):
    edges = ladder.edges
    js = []
    for j, g_row in ladder.sweep(j_lo, j_hi):
        want = 0.5 * (edges + 1.0) if j == 1 else 0.5 * (ref[j - 1] + 1.0)
        assert np.array_equal(padded(g_row, edges.size), want), j
        js.append(j)
    assert js == list(range(j_lo, j_hi))


class TestOnePassLadder:
    def test_first_sweep_builds_bit_identical_rungs(self, case):
        spec, edges, ref = case
        ladder = BranchLadder(spec, edges, n_rungs=N_RUNGS)
        assert ladder.checkpoint_stride == STRIDE
        assert_sweep_matches(ladder, ref, 1, N_RUNGS + 2)
        assert np.array_equal(ladder.x_tail, [r[0] for r in ref])
        tt_cum, width = ladder.top_tail_cumulative()
        tt_ref, width_ref = reference_top_tail(spec, ref)
        assert np.array_equal(tt_cum, tt_ref) and width == width_ref
        for k in (0, STRIDE - 1, STRIDE, STRIDE + 1, N_RUNGS):
            assert np.array_equal(ladder.rung(k), ref[k]), k

    def test_resweeps_after_completion(self, case):
        spec, edges, ref = case
        ladder = BranchLadder(spec, edges, n_rungs=N_RUNGS)
        assert_sweep_matches(ladder, ref, 1, N_RUNGS + 2)
        assert_sweep_matches(ladder, ref, 1, N_RUNGS + 2)
        assert_sweep_matches(ladder, ref, STRIDE + 1, STRIDE + 5)
        assert_sweep_matches(ladder, ref, N_RUNGS + 1, N_RUNGS + 2)

    def test_reads_past_the_frontier_complete_the_ladder(self, case):
        spec, edges, ref = case
        ladder = BranchLadder(spec, edges, n_rungs=N_RUNGS)
        assert np.array_equal(ladder.rung(STRIDE + 1), ref[STRIDE + 1])
        assert_sweep_matches(ladder, ref, 2, 6)  # restarts below the frontier
        assert np.array_equal(ladder.x_tail, [r[0] for r in ref])
        assert_sweep_matches(ladder, ref, STRIDE + 2, N_RUNGS + 2)

    def test_only_distinct_columns_are_pulled(self, case):
        spec, edges, _ = case
        ladder = BranchLadder(spec, edges, n_rungs=4)
        widths = {g_row.size for j, g_row in ladder.sweep(2, 6)}
        if spec.family == "lsv0":
            (width,) = widths
            assert width < edges.size
            assert edges[width - 2] < spec.left_image_sup * (1.0 - 1e-14) <= edges[width - 1]
        else:
            assert widths == {edges.size}


def test_assembled_operator_matches_full_width_reference(case):
    spec, edges, ref = case
    grid = ro.Grid(128)
    op = ro.assemble_operator(spec, grid, n_trunc=150, j_direct=32, k_ladder=N_RUNGS)
    m, delta = grid.m, grid.width
    acc = _DenseAccumulator(m)
    for j in range(1, N_RUNGS + 2):
        g_row = 0.5 * (edges + 1.0) if j == 1 else 0.5 * (ref[j - 1] + 1.0)
        rows, cols, w = _branch_entries(edges, g_row, m, delta)
        acc.add(rows, cols, w)
        if j in (1, 2, STRIDE - 1, STRIDE + 1, 150):
            want = sp.csr_matrix((w, (rows, cols)), shape=(m, m))
            assert np.array_equal(op.branch_matrix(j).toarray(), want.toarray()), j
    acc.flush()
    r1 = acc.mat + _tail_completion(op.ladder, edges, delta)
    assert np.array_equal(op.r1, r1)
