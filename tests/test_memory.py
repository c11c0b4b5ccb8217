"""Memory guard: the assembly transient per Ulam entry."""

import tracemalloc

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

