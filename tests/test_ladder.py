"""The blocked ladder and assembly against per-row reference loops.

The reference pulls every clamped edge back rung by rung with the
allocating Newton of ``conftest.reference_pullback_row``, as the ladder did
when it built its rows in one pass and re-pulled them in every sweep, and
extracts each branch's Ulam entries one row at a time, as assembly did
before it took whole blocks of rungs.  The blocked code, with its in-place
Newton, must agree bit for bit.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import renewalops as ro
from renewalops import ladder as ladder_mod, renewal_engine
from renewalops.errors import NumericalError
from renewalops.induced import _branch_entries, _power_density, _tail_completion
from renewalops.ladder import BranchLadder, pullback_rows

from conftest import block_series, completed_block_sum, pull_back, reference_pullback_row

N_RUNGS = 500  # also the assembly's k_ladder, which must reach n_trunc
STRIDE = 128
SPECS = {
    "lsv-5/3": ro.MapSpec("lsv", alpha=5.0 / 3.0),
    "lsv-2": ro.MapSpec("lsv", alpha=2.0),
    "lsv-5/2": ro.MapSpec("lsv", alpha=2.5),
    "lsv0": ro.MapSpec("lsv0"),
}


def reference_rungs(spec, edges, n_rungs):
    """Full-width rungs 0..n_rungs of the clamped edge array."""
    row = np.minimum(edges, spec.left_image_sup * (1.0 - 1e-14))
    rows = [row]
    for _ in range(n_rungs):
        row = reference_pullback_row(spec, row, row)
        rows.append(row)
    return rows


def reference_top_tail(spec, rows):
    x_last = rows[-1][0]
    k = len(rows)  # last branch with tabulated geometry
    factor = k / spec.beta if spec.family == "lsv" else k * np.log(k)
    return 0.5 * (rows[-1] - x_last) * factor, 0.5 * float(x_last)


def reference_g_row(edges, ref, j):
    return 0.5 * (edges + 1.0) if j == 1 else 0.5 * (ref[j - 1] + 1.0)


def reference_branch_entries(edges, g_row, m, delta):
    """COO entries (target cell, source cell, weight) of one branch block."""
    a = g_row[:-1]
    b = g_row[1:]
    live = b > a
    t_idx = np.nonzero(live)[0]
    if t_idx.size == 0:
        return (np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0))
    a = a[live]
    b = b[live]
    k0 = np.minimum(np.maximum(edges.searchsorted(a, side="right") - 1, 0), m - 1)
    k1 = np.maximum(k0, np.minimum(edges.searchsorted(b, side="left") - 1, m - 1))
    counts = k1 - k0 + 1
    total = int(counts.sum())
    rows = t_idx.repeat(counts)
    cols = (k0 - (counts.cumsum() - counts)).repeat(counts) + np.arange(total)
    cell_lo = edges[0] + cols * delta
    ov = np.minimum(b.repeat(counts), cell_lo + delta) - np.maximum(a.repeat(counts), cell_lo)
    w = np.maximum(ov, 0.0) / delta
    keep = w > 0.0
    return rows[keep], cols[keep], w[keep]


@st.composite
def entry_blocks(draw):
    """A grid and a block of nondecreasing rows of a few kinds.

    Rows sit inside one cell (endpoints included), span many cells, or
    reach below 1/2 or above 1 (clamped into cell 0 or m - 1).  Values come
    from random floats, the edges, and the cell bounds lo and lo + delta of
    the weight formula (on grids that are not powers of two they can miss
    the edges by an ulp); repeats make plateaus.
    """
    m = draw(st.sampled_from([1, 2, 3, 7, 10, 64, 100]))
    grid = ro.Grid(m)
    edges, delta = grid.edges, grid.width
    lo = edges[0] + np.arange(m) * delta
    marks = np.unique(np.concatenate([edges, lo, lo + delta]))
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["cell", "wide", "low", "high"]))
        c = draw(st.integers(0, m - 1))
        a, b = {"cell": (edges[c], edges[c + 1]), "wide": (0.5, 1.0),
                "low": (0.25, edges[1]), "high": (edges[-2], 1.25)}[kind]
        pool = marks[(marks >= a) & (marks <= b)].tolist()
        point = st.floats(a, b) | (st.sampled_from(pool) if pool else st.floats(a, b))
        vals = draw(st.lists(point | st.just(None), min_size=n + 1, max_size=n + 1))
        for i, v in enumerate(vals):  # None repeats the previous value
            vals[i] = (vals[i - 1] if i else a) if v is None else v
        rows.append(np.sort(vals))
    return grid, np.array(rows)


@pytest.mark.slow
@settings(max_examples=300, deadline=None)
@given(entry_blocks())
def test_branch_entries_match_per_row_reference(block):
    grid, G = block
    want = [[], [], [], []]
    for r, g_row in enumerate(G):
        rows, cols, w = reference_branch_entries(grid.edges, g_row, grid.m, grid.width)
        for acc, x in zip(want, (np.full(rows.size, r), rows, cols, w)):
            acc.append(x)
    got = _branch_entries(grid.edges, G, grid.m, grid.width)
    for x, y in zip(got, want):
        y = np.concatenate(y)
        assert x.dtype == y.dtype and np.array_equal(x, y)


class RowAccumulator:
    """Scatter-add one branch at a time, entry by entry."""

    def __init__(self, m):
        self.m = m
        self.mat = np.zeros((m, m))

    def add(self, rows, cols, w, scale=1.0):
        np.add.at(self.mat.ravel(), rows * self.m + cols, w * scale if scale != 1.0 else w)


def rung(ladder, k):
    """Pullback row W^(k) at every edge (k = 0 is the clamped edge array)."""
    _, rows = next(ladder._rungs(k, k + 1))
    return ladder._full_width(rows[0])


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
    for j0, G in ladder.sweep(j_lo, j_hi):
        j1 = j0 + G.shape[0]
        # branch 1 alone, then blocks of at most a stride ending on a multiple of it
        assert j0 > 1 or j1 == 2, (j0, j1)
        if j0 > 1:
            assert G.shape[0] <= STRIDE and ((j1 - 1) % STRIDE == 0 or j1 == j_hi), (j0, j1)
        for j, g_row in zip(range(j0, j1), G):
            assert np.array_equal(padded(g_row, edges.size), reference_g_row(edges, ref, j)), j
            js.append(j)
    assert js == list(range(j_lo, j_hi))


class TestOnePassLadder:
    def test_first_sweep_builds_bit_identical_rungs(self, case):
        spec, edges, ref = case
        ladder = BranchLadder(spec, edges, n_rungs=N_RUNGS)
        assert ladder.sweep_block == STRIDE
        assert_sweep_matches(ladder, ref, 1, N_RUNGS + 2)
        assert np.array_equal(ladder.x_tail, [r[0] for r in ref])
        tt_cum, width = ladder.top_tail_cumulative()
        tt_ref, width_ref = reference_top_tail(spec, ref)
        assert np.array_equal(tt_cum, tt_ref) and width == width_ref
        for k in (0, STRIDE - 1, STRIDE, STRIDE + 1, N_RUNGS):
            assert np.array_equal(rung(ladder, k), ref[k]), k

    def test_resweeps_after_completion(self, case):
        spec, edges, ref = case
        ladder = BranchLadder(spec, edges, n_rungs=N_RUNGS)
        assert_sweep_matches(ladder, ref, 1, N_RUNGS + 2)
        assert_sweep_matches(ladder, ref, 1, N_RUNGS + 2)
        assert_sweep_matches(ladder, ref, STRIDE + 1, STRIDE + 5)
        assert_sweep_matches(ladder, ref, STRIDE - 3, 2 * STRIDE + 4)
        assert_sweep_matches(ladder, ref, N_RUNGS + 1, N_RUNGS + 2)

    def test_reads_past_the_frontier_complete_the_ladder(self, case):
        spec, edges, ref = case
        ladder = BranchLadder(spec, edges, n_rungs=N_RUNGS)
        assert np.array_equal(rung(ladder, STRIDE + 1), ref[STRIDE + 1])
        assert_sweep_matches(ladder, ref, 2, 6)  # restarts below the frontier
        assert np.array_equal(ladder.x_tail, [r[0] for r in ref])
        assert_sweep_matches(ladder, ref, STRIDE + 2, N_RUNGS + 2)

    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_one_edge_orbit(self, name):
        spec, edges = SPECS[name], np.array([0.5])
        ref = reference_rungs(spec, edges, N_RUNGS)
        ladder = ro.tail_sequence(spec, N_RUNGS + 1)
        assert np.array_equal(ladder.x_tail, [r[0] for r in ref])
        assert_sweep_matches(ladder, ref, 1, N_RUNGS + 2)
        assert_sweep_matches(ladder, ref, STRIDE - 3, STRIDE + 4)  # restarts below the frontier

    def test_only_distinct_columns_are_pulled(self, case):
        spec, edges, _ = case
        ladder = BranchLadder(spec, edges, n_rungs=4)
        widths = {G.shape[1] for j0, G in ladder.sweep(2, 6)}
        if spec.family == "lsv0":
            (width,) = widths
            assert width < edges.size
            assert edges[width - 2] < spec.left_image_sup * (1.0 - 1e-14) <= edges[width - 1]
        else:
            assert widths == {edges.size}


# Sweep block edges (after j = 1, 128, 256 and 384) fall inside the stacked
# range (j_direct = 160), inside band pieces and at n_trunc = 384; one block
# straddles j_direct, and the 97-lag cap splits the longest bands in two.
N_TRUNC, J_DIRECT, SPAN_CAP = 384, 160, 97


@pytest.fixture(scope="module")
def assembled(case):
    spec, edges, ref = case
    grid = ro.Grid(128)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(renewal_engine, "_SPAN_CAP", SPAN_CAP)
        op = ro.assemble_operator(spec, grid, n_trunc=N_TRUNC, j_direct=J_DIRECT,
                                  k_ladder=N_RUNGS)
    return op, ref


def reference_pieces(bands, row_hi):
    """Per-source-cell bands cut into dyadic pieces, grouped by block length.

    A piece at lag p spans at most min(p rounded down to a power of two,
    SPAN_CAP) lags; its block is its span rounded up to a power of two, at
    least ``_BLOCK_MIN`` where p allows.  A group holds its pieces by first
    lag p, ties in order of the cell's first lag, then cell.
    """
    groups = {}
    for i, (j_first, band) in sorted(bands.items(), key=lambda kv: (kv[1][0], kv[0])):
        p, j_end = j_first, j_first + band.shape[1]
        while p < j_end:
            floor = 1 << (p.bit_length() - 1)
            span = min(floor, SPAN_CAP, j_end - p)
            block = min(max(1 << (span - 1).bit_length(), renewal_engine._BLOCK_MIN), floor)
            groups.setdefault(block, {})[i, p] = band[:row_hi, p - j_first: p - j_first + span]
            p += span
    return {block: dict(sorted(pieces.items(), key=lambda kv: kv[0][1]))
            for block, pieces in sorted(groups.items())}


def reference_assembly(op, ref):
    """r1, compact stacked window and kernel band pieces built one branch at a time."""
    grid, edges = op.grid, op.grid.edges
    m, delta, jd = grid.m, grid.width, op.j_direct - 1
    acc = RowAccumulator(m)
    st_rows, st_cols, st_w = [], [], []
    bands = {}  # source cell -> (first lag, dense (m, lags) band)
    for j in range(1, N_RUNGS + 2):
        rows, cols, w = reference_branch_entries(edges, reference_g_row(edges, ref, j), m, delta)
        acc.add(rows, cols, w)
        if j > op.n_trunc:
            continue
        if j < op.j_direct:
            st_rows.append(rows)
            st_cols.append((jd - j) * m + cols)
            st_w.append(w)
            continue
        for i in np.unique(cols):
            j_first, band = bands.get(i, (j, np.zeros((m, 0))))
            band = np.pad(band, ((0, 0), (0, j - j_first + 1 - band.shape[1])))
            sel = cols == i
            band[rows[sel], j - j_first] += w[sel]
            bands[int(i)] = (j_first, band)
    r1 = acc.mat + np.outer(*_tail_completion(op.ladder, edges, delta))
    window, compact = np.unique(np.concatenate(st_cols), return_inverse=True)
    stacked = sp.csr_matrix(
        (np.concatenate(st_w), (np.concatenate(st_rows), compact)), shape=(m, window.size),
    )
    row_hi = renewal_engine._FastRun(op, op.n_trunc).row_hi
    assert all(not band[row_hi:].any() for _, band in bands.values())
    return r1, stacked, window, reference_pieces(bands, row_hi)


def test_assembled_operator_matches_full_width_reference(assembled):
    op, ref = assembled
    r1, stacked, window, groups = reference_assembly(op, ref)
    assert np.array_equal(completed_block_sum(op.ladder, op.grid), r1)
    # the solve reads the rows below row_hi dense and the rows beyond as a CSR
    row_hi = renewal_engine._FastRun(op, op.n_trunc).row_hi
    density, residual = _power_density(r1[:row_hi], sp.csr_matrix(r1[row_hi:]), op.grid.width)
    assert np.array_equal(op.density, density) and op.density_residual == residual
    assert np.array_equal(op.window, window)
    for attr in ("data", "indices", "indptr"):
        got, want = getattr(op.stacked, attr), getattr(stacked, attr)
        assert got.dtype == want.dtype and np.array_equal(got, want), attr
    assert [g.block for g in op.groups] == list(groups)
    for g, kernels in zip(op.groups, groups.values()):
        assert list(g.kernels) == list(kernels)  # the engine sums in this order
        for key, kern in kernels.items():
            assert np.array_equal(g.kernels[key], kern), (g.block, key)
    assert window.size < (op.j_direct - 1) * op.grid.m // 10  # distinct columns only


def test_branch_matrices_match_per_row_reference(assembled):
    op, ref = assembled
    edges, m, delta = op.grid.edges, op.grid.m, op.grid.width
    mats = op.branch_matrices()
    assert len(mats) == N_TRUNC
    for j in range(1, N_TRUNC + 1):
        rows, cols, w = reference_branch_entries(edges, reference_g_row(edges, ref, j), m, delta)
        want = sp.csr_matrix((w, (rows, cols)), shape=(m, m))
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(mats[j - 1], attr), getattr(want, attr)
            assert a.dtype == b.dtype and np.array_equal(a, b), (j, attr)


# 0.7 and the z whose powers drop below 1e-20 at j = 129 stop the series
# inside a block and on a block's first row.
@pytest.mark.parametrize("z, extended", [
    (0.9, False), (0.5 + 0.6j, False), (0.999, True), (0.7, False),
    (1e-20 ** (1 / 128.5), False),
])
def test_block_series_matches_per_row_reference(assembled, z, extended):
    op, ref = assembled
    edges, m, delta = op.grid.edges, op.grid.m, op.grid.width
    out_r, out_i = RowAccumulator(m), RowAccumulator(m)
    for j in range(1, (N_RUNGS + 2 if extended else N_TRUNC + 1)):
        zj = z ** j
        if abs(z) < 1.0 and abs(zj) < 1e-20:
            break
        rows, cols, w = reference_branch_entries(edges, reference_g_row(edges, ref, j), m, delta)
        out_r.add(rows, cols, w, scale=zj.real)
        out_i.add(rows, cols, w, scale=zj.imag)
    want = out_r.mat + 1j * out_i.mat
    if extended:
        want += (z ** (N_RUNGS + 2)) * np.outer(*_tail_completion(op.ladder, edges, delta))
    got = block_series(op, z, extended=extended)
    assert np.array_equal(got, want)


def reference_chain(spec, prev, n_rows):
    """n_rows rungs below ``prev``, each by ``reference_pullback_row`` from its target."""
    rows = []
    for _ in range(n_rows):
        prev = reference_pullback_row(spec, prev, prev)
        rows.append(prev)
    return np.array(rows)


def block_pullback(spec, prev, n_rows):
    """``pullback_rows`` over one block of n_rows rungs below ``prev``."""
    work = tuple(np.empty((4, prev.size)))
    spec.left_np(prev, work[0], work[1], work[2])
    return pullback_rows(spec, prev, np.empty((n_rows, prev.size)), work)


class TestPullbackRows:
    """The block Newton, whose convergence test reads the last element first."""

    def test_last_element_converged_falls_back_to_the_full_row(self):
        # left(0.01) = 0.01 in floating point: the last element passes the
        # first test of every rung while 0.4 does not
        spec, prev = ro.MapSpec("lsv0"), np.array([0.4, 0.01])
        got = block_pullback(spec, prev, 300)
        assert np.array_equal(got, reference_chain(spec, prev, 300))
        assert (got[:, 1] == 0.01).all() and got[-1, 0] < 0.3

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), alpha=st.one_of(st.none(), st.floats(1.0, 3.0)),
           n_rows=st.integers(1, 40))
    def test_shuffled_rows_match_the_reference(self, data, alpha, n_rows):
        spec = ro.MapSpec("lsv0") if alpha is None else ro.MapSpec("lsv", alpha=alpha)
        cap = spec.left_image_sup * (1.0 - 1e-14)
        prev = np.array(data.draw(st.lists(
            st.floats(0.0, cap, exclude_min=True, allow_subnormal=False),
            min_size=1, max_size=12)))
        prev = prev[data.draw(st.permutations(range(prev.size)))]
        assert np.array_equal(block_pullback(spec, prev, n_rows),
                              reference_chain(spec, prev, n_rows))

    def test_cap_stalls_a_sweep(self, monkeypatch):
        monkeypatch.setattr(ladder_mod, "_MAX_ITER", 1)
        ladder = BranchLadder(ro.MapSpec("lsv", alpha=2.0), ro.Grid(64).edges, n_rungs=4)
        with pytest.raises(NumericalError, match="stalled"):
            list(ladder.sweep(1, 6))

    def test_row_within_1e_12_at_the_cap_returns(self, monkeypatch):
        # from w = 0.05, two Newton updates leave |left(w) - 0.05| near 1e-14
        spec, target = ro.MapSpec("lsv", alpha=2.0), np.array([0.05])
        monkeypatch.setattr(ladder_mod, "_MAX_ITER", 2)
        w = pull_back(spec, target)
        assert 1e-15 < abs(spec.left(float(w[0])) - 0.05) <= 1e-12
        monkeypatch.setattr(ladder_mod, "_MAX_ITER", 1)
        with pytest.raises(NumericalError, match="stalled"):
            pull_back(spec, target)


# left_np calls, the priming one included, of ladders completed to their last
# rung; a change that evaluates the branch more often per rung shows here
@pytest.mark.parametrize("spec, edges, n_rungs, calls", [
    (SPECS["lsv0"], ro.Grid(1024).edges, 25_000, 43_687),
    (SPECS["lsv0"], ro.Grid(1024).edges, 2_500, 5_080),
    (SPECS["lsv-2"], ro.Grid(512).edges, 4_000, 8_087),
    (SPECS["lsv-2"], np.array([0.5]), 99_999, 110_928),
], ids=["lsv0-1024-25000", "lsv0-1024-2500", "lsv-2-512-4000", "lsv-2-orbit-99999"])
def test_left_branch_evaluation_count(monkeypatch, spec, edges, n_rungs, calls):
    count = [0]
    left_np = ro.MapSpec.left_np

    def counted(self, *args):
        count[0] += 1
        return left_np(self, *args)

    monkeypatch.setattr(ro.MapSpec, "left_np", counted)
    BranchLadder(spec, edges, n_rungs=n_rungs).x_tail
    assert 0 < count[0] <= calls
