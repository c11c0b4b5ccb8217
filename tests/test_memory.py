"""Memory guards: the assembly transient per Ulam entry, the block sum's
lifetime, the kernel bands, their handoff to spectra and the fast engine's
single up-front allocation."""

import gc
import tracemalloc
import types

import numpy as np
import pytest

import renewalops as ro
from renewalops.induced import _branch_entries, _image_rows
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
    """Assembly holds the block sum only as its dense band of rows below row_hi.

    The operator holds no m x m array, and the traced peak stays below the
    band's 8·row_hi·m bytes plus 1 MiB of sweep and layout (0.90 MiB
    measured).  The dense m x m sum alone would take 2 MiB.
    """
    spec, grid = ro.MapSpec("lsv0"), ro.Grid(512)
    ro.assemble_operator(spec, ro.Grid(128), n_trunc=50)  # warm caches outside the trace
    tracemalloc.start()
    try:
        op = ro.assemble_operator(spec, grid, n_trunc=1000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    band_bytes = 8 * _image_rows(spec, grid) * grid.m
    arrays = reachable_arrays(op)
    assert any(a is op.density for a in arrays) and any(a is op.window for a in arrays)
    assert max(a.size for a in arrays) < grid.m ** 2
    assert peak < band_bytes + 2**20, (peak - band_bytes) / 2**20


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


def held_after_first_step(run):
    """Bytes traced from the per-step integrals' allocation until s_0 is out."""
    tracemalloc.start()
    try:
        tn = np.zeros(run.n_max + 1)  # ``renewal_action``'s per-step integrals
        steps = run.steps(run.op.density_values.copy())
        next(steps)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del tn, steps
    return held


@pytest.mark.parametrize("spec, m, n_trunc", OPERATORS, ids=["lsv-2", "lsv0"])
def test_fast_run_allocates_everything_before_its_first_step(spec, m, n_trunc):
    """Spectra, rings, window history and integrals exist once s_0 is out, as sized;
    a second run on the same operator reuses the spectra and plans none."""
    op = ro.assemble_operator(spec, ro.Grid(m), n_trunc=n_trunc)
    run = _FastRun(op, n_trunc)
    spectra = sum(16 * run.row_hi * (g.block + 1)
                  for g in op.groups for (_, p) in g.kernels if p <= n_trunc)
    if spec.family == "lsv":
        assert spectra > run.nbytes / 2
    else:
        assert run.row_hi < m
    held = held_after_first_step(run)
    assert abs(held - run.nbytes) <= 0.02 * run.nbytes
    rerun = _FastRun(op, n_trunc)
    assert rerun.nbytes == run.nbytes - spectra
    held = held_after_first_step(rerun)
    assert abs(held - rerun.nbytes) <= 0.02 * rerun.nbytes


@pytest.mark.parametrize("spec, m, n_trunc", OPERATORS, ids=["lsv-2", "lsv0"])
def test_trace_rings_do_not_grow_with_n_max(spec, m, n_trunc):
    """Beyond n_trunc every piece is live: only the per-step integrals grow."""
    op = ro.assemble_operator(spec, ro.Grid(m), n_trunc=n_trunc)
    grown = _FastRun(op, 4 * n_trunc).nbytes - _FastRun(op, n_trunc).nbytes
    assert grown == 8 * 3 * n_trunc


def test_a_run_hands_live_bands_over_to_their_spectra():
    """After a run, the operator holds no band of a piece it reached, and
    a spectrum of each; pieces past n_max keep their bands and get none."""
    op = ro.assemble_operator(ro.MapSpec("lsv0"), ro.Grid(256), n_trunc=2000)
    n_max = 1000
    live = [k for g in op.groups for (_, p), k in g.kernels.items() if p <= n_max]
    later = {(g.block, key): k for g in op.groups for key, k in g.kernels.items()
             if key[1] > n_max}
    assert live and later
    ro.renewal_action(op, np.ones(256), n_max)
    reachable = {id(a) for a in reachable_arrays(op)}
    assert not any(id(k) in reachable for k in live)
    assert all(id(k) in reachable for k in later.values())
    for g in op.groups:
        assert all(p <= n_max for _, p in g.spectra) and all(p > n_max for _, p in g.kernels)
        assert all(g.kernels[key] is later[g.block, key] for key in g.kernels)
    assert sum(len(g.spectra) for g in op.groups) == len(live)
