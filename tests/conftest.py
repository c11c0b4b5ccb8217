import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

import renewalops as ro
from renewalops.errors import DomainError, NumericalError
from renewalops.induced import (_branch_entries, _image_rows, _power_density,
                                _swept_block_sum, _tail_completion)
from renewalops.ladder import _MAX_ITER, _TOL, pullback_rows
from renewalops.renewal_engine import FastLayout, _FastRun

SESSION_T0 = time.time()


def bisect_left_branch(spec, target, lo=1e-12, hi=0.5, iters=200):
    """Independent bracketed bisection oracle for the left-branch inverse."""
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if spec.left(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def reference_left_and_deriv(spec, x):
    """Left branch and its derivative on an array, sharing one power or exp."""
    if spec.family == "lsv":
        p = (2.0 * x) ** spec.alpha
        return x * (1.0 + p), 1.0 + (spec.alpha + 1.0) * p
    e = np.exp(-1.0 / x)
    return x * (1.0 + x * e), 1.0 + (2.0 * x + 1.0) * e


def pull_back(spec, targets):
    """``ladder.pullback_rows`` on a one-row block, with scratch primed as it requires."""
    targets = np.asarray(targets, dtype=float)
    work = tuple(np.empty((4,) + targets.shape))
    spec.left_np(targets, work[0], work[1], work[2])
    return pullback_rows(spec, targets, np.empty((1,) + targets.shape), work)[0]


# The tests' reference for ``ladder.pullback_rows``: the same Newton with a
# fresh array for every value, which the in-place one must match bit for bit.
def reference_pullback_row(spec, targets, w0):
    """Solve left(w) = target elementwise by monotone Newton from above."""
    w = w0.copy()
    fw, dfw = reference_left_and_deriv(spec, w)
    for _ in range(_MAX_ITER):
        err = fw - targets
        if np.abs(err).max() <= _TOL:
            return w
        w -= err / dfw
        np.maximum(w, 1e-300, out=w)
        fw, dfw = reference_left_and_deriv(spec, w)
    if np.abs(fw - targets).max() > 1e-12:
        raise NumericalError("vectorized left-branch pullback stalled")
    return w


def doubling_branch_matrix(m: int) -> sp.csr_matrix:
    """Ulam matrix of the two-branch full shift on [1/2, 1] (return time 1)."""
    g = ro.Grid(m)
    e = g.edges
    rows, cols, w = [], [], []
    for t in range(m):
        for lo, hi in (((e[t] + 0.5) / 2, (e[t + 1] + 0.5) / 2),
                       ((e[t] + 1.0) / 2, (e[t + 1] + 1.0) / 2)):
            k0 = max(int(np.floor((lo - 0.5) / g.width + 1e-12)), 0)
            k1 = min(int(np.ceil((hi - 0.5) / g.width - 1e-12)) - 1, m - 1)
            for k in range(k0, k1 + 1):
                ov = min(hi, e[k + 1]) - max(lo, e[k])
                if ov > 0:
                    rows.append(t)
                    cols.append(k)
                    w.append(ov / g.width)
    return sp.csr_matrix((w, (rows, cols)), shape=(m, m))


def synthetic_operator(grid, branch_mats, density=None, j_direct=None) -> ro.InducedOperator:
    """Operator from explicitly given branch blocks R_1..R_n, without map or ladder.

    Its density is the fixed point of the blocks' sum, or ``density`` with
    residual 0 where the caller fixes one (a density solve not under test).
    All blocks go to the stacked window unless ``j_direct`` sends the
    branches from there on to kernel pieces.
    """
    mats = [sp.csr_matrix(b) for b in branch_mats]
    n, m = len(mats), grid.m
    coo = [b.tocoo() for b in mats]
    brow = np.arange(n).repeat([c.nnz for c in coo])
    rows, cols, w = (np.concatenate([getattr(c, a) for c in coo])
                     for a in ("row", "col", "data"))
    layout = FastLayout(m, n, n + 1 if j_direct is None else j_direct, m)
    layout.add(1, brow, rows, cols, w)
    if density is None:
        r1 = np.zeros((m, m))
        np.add.at(r1.ravel(), rows * m + cols, w)
        density, residual = _power_density(r1, sp.csr_matrix((0, m)), grid.width)
    else:
        residual = 0.0
    stacked, window = layout.stacked()
    return ro.InducedOperator(
        spec=None, grid=grid, n_trunc=n, j_direct=layout.j_direct,
        stacked=stacked, window=window, groups=layout.groups(),
        density=density, density_residual=residual, tails=None, ladder=None,
    )


def completed_block_sum(ladder, grid) -> np.ndarray:
    """The tail-completed block sum whose fixed point is the density, as one dense matrix.

    Assembly drops it once the density is solved; this rebuilds its band
    and the rows beyond by the sweep that assembly calls, handing the
    entries to no layout.
    """
    layout = SimpleNamespace(add=lambda *entries: None, row_hi=_image_rows(ladder.spec, grid))
    band, beyond = _swept_block_sum(ladder, grid, layout)
    return np.vstack((band, beyond.toarray()))


def literal_exact_steps(branches, s0, n_max):
    """s_0..s_{n_max} by the recursion applied literally, one product per branch."""
    hist = [s0]
    for n in range(1, n_max + 1):
        s = np.zeros_like(s0)
        for j in range(1, min(n, len(branches)) + 1):
            s += branches[j - 1] @ hist[n - j]
        hist.append(s)
    return np.array(hist)


def block_diagonal(branches: list[sp.csr_matrix], m: int) -> sp.csr_matrix:
    """diag(R_1, ..., R_K) with each block's rows stored exactly as in R_j.

    Joined directly rather than through ``sp.block_diag``, whose COO round
    trip may reorder a row's entries and with them the rounding.
    """
    nnz = np.cumsum([0] + [b.nnz for b in branches])
    data = np.concatenate([b.data for b in branches])
    indices = np.concatenate([b.indices + k * m for k, b in enumerate(branches)])
    indptr = np.concatenate([[0]] + [b.indptr[1:] + nnz[k] for k, b in enumerate(branches)])
    km = len(branches) * m
    return sp.csr_matrix((data, indices, indptr), shape=(km, km))


# The tests' exact reference for ``renewal_action``: bit-identical to
# ``literal_exact_steps`` and about 15x faster on the hypothesis draws.
def exact_steps(branches: list[sp.csr_matrix], s0: np.ndarray, n_max: int):
    """Generator of s_n = sum_{j<=min(n, K)} R_j s_{n-j}, K = len(branches).

    History lives in a doubled ring of 2K rows, newest first, so [s_{n-1},
    ..., s_{n-k}] is one contiguous slice.  Step n multiplies it by the
    leading k = min(n, K) blocks of diag(R_1, ..., R_K) in one product and
    sums the k block products along axis 0, from 0.0 and in branch order.
    Product rows start from 0 and add their entries in stored order, as a
    product with R_j alone does, so every s_n is bit-identical to the
    literal ``s = 0; s += R_j @ s_{n-j}`` for j = 1..k.
    """
    yield 0, s0
    if n_max == 0:
        return
    m = s0.shape[0]
    K = len(branches)
    diag = block_diagonal(branches, m)
    data, indices, indptr = diag.data, diag.indices, diag.indptr
    ring = np.zeros((2 * K, m))
    ring[0] = ring[K] = s0
    for n in range(1, n_max + 1):
        k = min(n, K)
        p = -(n - 1) % K  # ring row of s_{n-1}
        end = indptr[k * m]
        lead = sp.csr_matrix((data[:end], indices[:end], indptr[: k * m + 1]),
                             shape=(k * m, k * m))
        s = (lead @ ring[p: p + k].ravel()).reshape(k, m).sum(axis=0, initial=0.0)
        p = -n % K
        ring[p] = ring[p + K] = s
        yield n, s


def exact_history(op, v, n_max) -> np.ndarray:
    """s_0..s_{n_max} of the exact reference for the measure-normalized v."""
    s0 = op.density_values * np.asarray(v, dtype=float)
    branches = op.branch_matrices()[: min(n_max, op.n_trunc)]
    return np.array([s for _, s in exact_steps(branches, s0, n_max)])


def fast_history(op, v, n_max) -> np.ndarray:
    """s_0..s_{n_max} of the engine ``renewal_action`` runs, for the measure-normalized v."""
    s0 = op.density_values * np.asarray(v, dtype=float)
    return np.array([s.copy() for _, s in _FastRun(op, n_max).steps(s0)])


def block_series(op, z: complex, extended: bool = False) -> np.ndarray:
    """Dense matrix of sum_n R_n z**n (Lebesgue form), one ladder sweep.

    The truncated sum runs to ``n_trunc``; with ``extended`` the ladder
    continuation and the integral-tail completion are included (the
    spectral oracles near z = 1 need them, where the truncated series would
    shed visible mass).  The series stops at the first power below 1e-20.
    """
    if op.ladder is None:
        raise DomainError("synthetic operator has no ladder to resweep")
    m, delta = op.grid.m, op.grid.width
    edges = op.grid.edges
    j_hi = (op.ladder.n_rungs + 2) if extended else (op.n_trunc + 1)
    az = abs(z)
    out_r = np.zeros((m, m))
    out_i = np.zeros((m, m))
    for j0, G in op.ladder.sweep(1, j_hi):
        zjs = [z ** j for j in range(j0, j0 + G.shape[0])]
        stop = next((i for i, zj in enumerate(zjs) if az < 1.0 and abs(zj) < 1e-20), None)
        if stop is not None:
            G, zjs = G[:stop], zjs[:stop]
        brow, rows, cols, w = _branch_entries(edges, G, m, delta)
        idx = rows * m + cols
        np.add.at(out_r.ravel(), idx, w * np.array([zj.real for zj in zjs])[brow])
        np.add.at(out_i.ravel(), idx, w * np.array([zj.imag for zj in zjs])[brow])
        if stop is not None:
            break
    mat = out_r + 1j * out_i
    if extended:
        tail = _tail_completion(op.ladder, edges, delta)
        if tail is not None:
            mat += (z ** (op.ladder.n_rungs + 2)) * np.outer(*tail)
    return mat


@pytest.fixture(scope="session")
def doubling_op():
    return synthetic_operator(ro.Grid(32), [doubling_branch_matrix(32)])


@pytest.fixture(scope="session")
def lsv2_small():
    """LSV alpha=2, coarse grid; cheap fixture for structural tests."""
    return ro.assemble_operator(ro.MapSpec("lsv", alpha=2.0), ro.Grid(64),
                                n_trunc=200, j_direct=32)


@pytest.fixture(scope="session")
def lsv2_mid():
    """LSV alpha=2 at medium resolution; used by quantitative checks."""
    return ro.assemble_operator(ro.MapSpec("lsv", alpha=2.0), ro.Grid(512),
                                n_trunc=1200, j_direct=512)


@pytest.fixture(scope="session")
def lsv2_spectral():
    """Finer truncation for spectral asymptotics near z = 1."""
    return ro.assemble_operator(ro.MapSpec("lsv", alpha=2.0), ro.Grid(256),
                                n_trunc=4000, j_direct=256, k_ladder=40000)


@pytest.fixture(scope="session")
def lsv0_small():
    return ro.assemble_operator(ro.MapSpec("lsv0"), ro.Grid(128),
                                n_trunc=400, j_direct=64, k_ladder=20000)
