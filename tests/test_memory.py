"""Memory guards: the assembly transient per Ulam entry, the block sum's
lifetime, the kernel bands and the fast engine's single up-front allocation."""

import gc
import tracemalloc
import types

import numpy as np
import pytest

import renewalops as ro
from renewalops.induced import _branch_entries
from renewalops.renewal_engine import FastLayout, _FastRun

# lsv kernels fill every row; lsv0 kernels at grid 256 only the lowest 19 (row_hi < m)
OPERATORS = [(ro.MapSpec("lsv", alpha=2.0), 64, 600), (ro.MapSpec("lsv0"), 256, 2000)]


def transient_per_entry(spec, n_trunc):
    """Entries an assembly on 128 cells extracts, and its traced transient per entry."""
    grid = ro.Grid(128)
    ro.assemble_operator(spec, grid, n_trunc=50)  # warm caches outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        op = ro.assemble_operator(spec, grid, n_trunc=n_trunc)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_entries = sum(_branch_entries(grid.edges, G, grid.m, grid.width)[3].size
                    for _, G in op.ladder.sweep(1, op.ladder.n_rungs + 2))
    return n_entries, (peak - retained) / n_entries


def test_assembly_transient_per_ulam_entry():
    """Entries go straight into the block sum: no per-entry queue survives a block.

    Narrow lsv0 rows over a 10,000-rung ladder, and wide lsv rows (all 128
    cells) over 2,000 rungs: both ladders span many sweep blocks, so a
    queue of entries that outlived its block would dominate the transient.
    """
    for spec, min_entries in [(ro.MapSpec("lsv0"), 80_000), (ro.MapSpec("lsv", alpha=2.0), 250_000)]:
        n_entries, per_entry = transient_per_entry(spec, n_trunc=1000)
        assert n_entries > min_entries, spec
        assert per_entry < 12.0, (spec, per_entry)


def reachable_arrays(root):
    """Every numpy array reachable from ``root`` through object references."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen, stack, arrays = set(), [root], []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
            if obj.base is not None:
                stack.append(obj.base)
        else:
            stack.extend(gc.get_referents(obj))
    return arrays


def test_assembly_keeps_no_block_sum():
    """The dense block sum lives only until the density is solved.

    The operator holds no m x m array, and the traced peak stays below
    1.75 block sums: the sum itself plus under 1 MB of sweep and layout
    (1.53 measured).  A whole m x m tail product on top of the sum would
    take 2.5.
    """
    spec, grid = ro.MapSpec("lsv0"), ro.Grid(512)
    ro.assemble_operator(spec, ro.Grid(128), n_trunc=50)  # warm caches outside the trace
    tracemalloc.start()
    try:
        op = ro.assemble_operator(spec, grid, n_trunc=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block_sum_bytes = 8 * grid.m ** 2
    arrays = reachable_arrays(op)
    assert any(a is op.density for a in arrays) and any(a is op.window for a in arrays)
    assert max(a.size for a in arrays) < grid.m ** 2
    assert peak < 1.75 * block_sum_bytes, peak / block_sum_bytes


def test_kernels_are_stored_as_lag_bands():
    """Each source cell keeps only rows below row_hi over lags j_first..j_last."""
    spec, grid = ro.MapSpec("lsv0"), ro.Grid(256)
    op = ro.assemble_operator(spec, grid, n_trunc=2000)
    first, last = {}, {}
    for j0, G in op.ladder.sweep(op.j_direct, op.n_trunc + 1):
        brow, _, cols, _ = _branch_entries(grid.edges, G, grid.m, grid.width)
        for i in np.unique(cols):
            j = j0 + brow[cols == i]
            first.setdefault(int(i), int(j[0]))
            last[int(i)] = int(j[-1])
    row_hi = _FastRun(op, op.n_trunc).row_hi
    band_bytes = sum(8 * row_hi * (last[i] - first[i] + 1) for i in first)
    kernel_bytes = sum(k.nbytes for g in op.groups for k in g.kernels.values())
    assert len(first) > 5
    assert band_bytes <= kernel_bytes <= 1.5 * band_bytes


@pytest.mark.parametrize("spec, m, n_trunc", OPERATORS, ids=["lsv-2", "lsv0"])
def test_kernel_floor_is_below_kernel_bytes(spec, m, n_trunc):
    """Assembly's size guard counts no more kernel bytes than the bands take."""
    op = ro.assemble_operator(spec, ro.Grid(m), n_trunc=n_trunc)
    row_hi = _FastRun(op, n_trunc).row_hi
    floor = FastLayout(m, n_trunc, op.j_direct, row_hi).kernel_floor
    kernel_bytes = sum(k.nbytes for g in op.groups for k in g.kernels.values())
    assert 0 < floor <= kernel_bytes


@pytest.mark.parametrize("spec, m, n_trunc", OPERATORS, ids=["lsv-2", "lsv0"])
def test_fast_run_allocates_everything_before_its_first_step(spec, m, n_trunc):
    """Spectra, ring, window history and traces exist once s_0 is out, as sized."""
    op = ro.assemble_operator(spec, ro.Grid(m), n_trunc=n_trunc)
    run = _FastRun(op, n_trunc)
    if spec.family == "lsv":
        spectra = sum(16 * run.row_hi * (g.block + 1)
                      for g in op.groups for (_, p) in g.kernels if p <= n_trunc)
        assert spectra > run.nbytes / 2
    else:
        assert run.row_hi < m
    s0 = op.density_values.copy()
    tracemalloc.start()
    try:
        steps = run.steps(s0)
        next(steps)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(held - run.nbytes) <= 0.02 * run.nbytes
