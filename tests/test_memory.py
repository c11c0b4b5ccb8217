"""Memory guards: the assembly transient per Ulam entry and the kernel bands."""

import tracemalloc

import numpy as np

import renewalops as ro
from renewalops.induced import _branch_entries


def test_assembly_transient_per_ulam_entry():
    """Entries go straight into the block sum: no per-entry queue survives a block."""
    spec, grid = ro.MapSpec("lsv0"), ro.Grid(128)
    ro.assemble_operator(spec, grid, n_trunc=50)  # warm caches outside the trace
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        op = ro.assemble_operator(spec, grid, n_trunc=1000)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    n_entries = sum(_branch_entries(grid.edges, G, grid.m, grid.width)[3].size
                    for _, G in op.ladder.sweep(1, op.ladder.n_rungs + 2))
    assert n_entries > 80_000
    assert (peak - retained) / n_entries < 12.0



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
    row_hi = op.groups[0].row_hi
    band_bytes = sum(8 * row_hi * (last[i] - first[i] + 1) for i in first)
    kernel_bytes = sum(k.nbytes for g in op.groups for k in g.kernels.values())
    assert len(first) > 5
    assert band_bytes <= kernel_bytes <= 1.5 * band_bytes
