import time

import numpy as np
import pytest
import scipy.sparse as sp

import renewalops as ro
from renewalops.errors import DomainError
from renewalops.induced import _branch_entries, _tail_completion

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
            mat += (z ** (op.ladder.n_rungs + 2)) * tail
    return mat


@pytest.fixture(scope="session")
def doubling_op():
    return ro.InducedOperator.synthetic(ro.Grid(32), [doubling_branch_matrix(32)])


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
