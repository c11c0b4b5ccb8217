"""Per-layer spans and counts, recorded from outside the renewalops package.

``install`` wraps public names of the package's modules for the length of
one traced run.  A name is replaced in its defining module and in every
``renewalops`` module that imported the same object; methods and
properties are replaced on their class.  ``Patches.restore`` puts every
original back.  Nothing under ``src/`` changes.

Function-level calls become spans, nested by call; their durations and
self times are summed per span name.  Hot inner operations (ladder sweep
steps, sparse products, numpy FFTs) are leaves: only their time and call
count are summed, and their time counts as covered by the enclosing span.
A span's self time is its duration minus the time its child spans and
leaves cover.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from collections import defaultdict
from contextlib import contextmanager

__all__ = ["Tracer", "Patches", "install", "layer_metrics", "COUNTS"]

_clock = time.perf_counter

# metrics that must repeat exactly between two traced runs of one seed
COUNTS = (
    "ladder.rows_pulled",
    "ladder.live_edge_frac",
    "induced.stacked_nnz",
    "induced.kernel_mb",
    "renewal_engine.steps",
    "renewal_engine.spmv_calls",
    "renewal_engine.fft_calls",
    "scalar.fft_calls",
    "tauberian.integrand_points",
)


class Tracer:
    """Per-name span totals, self times and counts."""

    def __init__(self):
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, int] = defaultdict(int)
        self._open: list[list] = []  # [name, start, seconds covered by children]

    @contextmanager
    def span(self, name: str):
        frame = [name, _clock(), 0.0]
        self._open.append(frame)
        try:
            yield
        finally:
            duration = _clock() - frame[1]
            self._open.pop()
            self.total[name] += duration
            self.self_s[name] += duration - frame[2]
            if self._open:
                self._open[-1][2] += duration

    def leaf(self, name: str, seconds: float, calls: int = 1):
        self.total[name] += seconds
        self.count[name] += calls
        if self._open:
            self._open[-1][2] += seconds

    def layer(self) -> str:
        """Layer (module) of the innermost open span."""
        return self._open[-1][0].split(".", 1)[0] if self._open else ""


class Patches:
    """Replaced attributes and their originals."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def name(self, module, attr: str, wrap):
        """Replace ``module.attr`` and every renewalops binding of the same object."""
        original = getattr(module, attr)
        replacement = wrap(original)
        owners = [module] + [
            mod for key, mod in sorted(sys.modules.items())
            if (key == "renewalops" or key.startswith("renewalops."))
            and mod is not module and vars(mod).get(attr) is original
        ]
        for owner in owners:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, replacement)

    def member(self, cls, attr: str, wrap):
        """Replace a method or property on its class."""
        original = vars(cls)[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, wrap(original))

    def restore(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        return all(vars(owner).get(attr) is original for owner, attr, original in self._saved)

    def names(self) -> list[str]:
        return sorted({f"{getattr(owner, '__name__', owner)}.{attr}"
                       for owner, attr, _ in self._saved})


def _timed(tracer: Tracer, span_name: str):
    def wrap(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(span_name):
                return fn(*args, **kwargs)
        return wrapper
    return wrap


class _CountedMatrix:
    """Sparse matrix whose products are timed and counted as SpMV leaves."""

    def __init__(self, tracer: Tracer, mat):
        self._tracer = tracer
        self._mat = mat

    def __matmul__(self, x):
        start = _clock()
        out = self._mat @ x
        self._tracer.leaf("renewal_engine.spmv", _clock() - start)
        return out

    def __getattr__(self, name):
        return getattr(self._mat, name)


def install(tracer: Tracer) -> Patches:
    """Wrap the layers' public names; call ``restore`` on the result afterwards."""
    import numpy as np
    import scipy.optimize
    from renewalops import cli, dual_ergodic, induced, ladder, maps, renewal_engine, scalar
    from renewalops import tauberian

    patches = Patches()
    t = tracer

    ladder_cls = ladder.BranchLadder

    def ladder_factory(cls):
        @functools.wraps(cls, updated=())
        def build(*args, **kwargs):
            with t.span("ladder.build"):
                lad = cls(*args, **kwargs)
            edges = np.asarray(lad.edges)
            live = int(np.count_nonzero(edges < lad.spec.left_image_sup))
            t.count["ladder.rungs"] += lad.n_rungs
            t.count["ladder.live_edges"] += live + (live < edges.size)
            t.count["ladder.edges"] += edges.size
            return lad
        return build

    def sweep(fn):
        @functools.wraps(fn)
        def timed_sweep(self, j_lo, j_hi):
            steps = fn(self, j_lo, j_hi)
            while True:
                start = _clock()
                try:
                    item = next(steps)
                except StopIteration:
                    t.leaf("ladder.sweep", _clock() - start, calls=0)
                    return
                t.leaf("ladder.sweep", _clock() - start)
                yield item
        return timed_sweep

    patches.member(ladder_cls, "sweep", sweep)
    patches.name(ladder, "BranchLadder", ladder_factory)

    def assemble(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with t.span("induced.assemble"):
                op = fn(*args, **kwargs)
            if op.stacked is not None:
                t.count["induced.stacked_nnz"] += int(op.stacked.nnz)
            t.count["induced.kernel_bytes"] += sum(
                k.nbytes for g in op.groups for k in g.kernels.values())
            return op
        return wrapper

    def density(prop):
        seen: dict[int, weakref.ref] = {}

        def fget(op):
            ref = seen.get(id(op))
            if ref is not None and ref() is op:
                return prop.fget(op)
            seen[id(op)] = weakref.ref(op)
            with t.span("induced.density"):
                return prop.fget(op)
        return property(fget, doc=prop.__doc__)

    def branch_matrices(fn):
        @functools.wraps(fn)
        def wrapper(self):
            return [_CountedMatrix(t, m) for m in fn(self)]
        return wrapper

    patches.name(induced, "assemble_operator", assemble)
    patches.member(induced.InducedOperator, "density_values", density)
    patches.member(induced.InducedOperator, "branch_matrices", branch_matrices)

    def action(fn):
        @functools.wraps(fn)
        def wrapper(op, v, n_max, *args, **kwargs):
            t.count["renewal_engine.steps"] += int(n_max) + 1
            stacked = op.stacked
            if stacked is not None:
                op.stacked = _CountedMatrix(t, stacked)
            try:
                with t.span("renewal_engine.action"):
                    return fn(op, v, n_max, *args, **kwargs)
            finally:
                op.stacked = stacked
        return wrapper

    patches.name(renewal_engine, "renewal_action", action)

    def fft(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _clock()
            out = fn(*args, **kwargs)
            t.leaf(f"{t.layer()}.fft", _clock() - start)
            return out
        return wrapper

    for name in ("fft", "ifft", "rfft", "irfft"):
        patches.name(np.fft, name, fft)

    def phi_counter(fn):
        @functools.wraps(fn)
        def wrapper(u):
            phi = fn(u)

            def counted(z):
                t.count["tauberian.integrand_points"] += int(np.size(z))
                return phi(z)
            return counted
        return wrapper

    patches.name(scalar, "renewal_sequence", _timed(t, "scalar.renewal_sequence"))
    patches.name(scalar, "second_order_constant", _timed(t, "scalar.second_order_constant"))
    patches.name(tauberian, "kernel_extract", _timed(t, "tauberian.kernel_extract"))
    patches.name(tauberian, "phi_from_sequence", phi_counter)
    patches.name(tauberian, "one_sided_fit", _timed(t, "tauberian.one_sided_fit"))
    patches.name(scipy.optimize, "linprog", _timed(t, "tauberian.lp"))
    patches.name(tauberian, "indicator_majorant", _timed(t, "tauberian.majorant"))
    for name in ("rotated_gamma_integral", "line_power_integral", "window_power_integral"):
        patches.name(tauberian, name, _timed(t, "tauberian.contour"))
    patches.name(dual_ergodic, "dual_ergodic_report", _timed(t, "dual_ergodic.report"))
    patches.name(dual_ergodic, "tail_model_from_operator", _timed(t, "dual_ergodic.tail_model"))
    patches.name(maps, "tail_sequence", _timed(t, "maps.tail_sequence"))
    patches.name(cli, "main", _timed(t, "cli.main"))
    return patches


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced run, except ``trace.overhead_frac``.

    BENCHMARK.json's ``per_layer`` list names which of them a run reports.
    """
    total, own, count = t.total, t.self_s, t.count
    edges = count["ladder.edges"]
    return {
        "ladder.build_s": total["ladder.build"],
        "ladder.sweep_s": total["ladder.sweep"],
        "ladder.rows_pulled": count["ladder.rungs"] + count["ladder.sweep"],
        "ladder.live_edge_frac": count["ladder.live_edges"] / edges if edges else 0.0,
        "induced.assemble_s": total["induced.assemble"],
        "induced.assemble_self_s": own["induced.assemble"],
        "induced.density_s": total["induced.density"],
        "induced.stacked_nnz": count["induced.stacked_nnz"],
        "induced.kernel_mb": count["induced.kernel_bytes"] / 2**20,
        "renewal_engine.action_s": total["renewal_engine.action"],
        "renewal_engine.steps": count["renewal_engine.steps"],
        "renewal_engine.spmv_calls": count["renewal_engine.spmv"],
        "renewal_engine.spmv_s": total["renewal_engine.spmv"],
        "renewal_engine.fft_calls": count["renewal_engine.fft"],
        "renewal_engine.fft_s": total["renewal_engine.fft"],
        "renewal_engine.self_s": own["renewal_engine.action"],
        "scalar.renewal_sequence_s": total["scalar.renewal_sequence"],
        "scalar.fft_calls": count["scalar.fft"],
        "scalar.second_order_constant_s": total["scalar.second_order_constant"],
        "tauberian.kernel_extract_s": total["tauberian.kernel_extract"],
        "tauberian.integrand_points": count["tauberian.integrand_points"],
        "tauberian.one_sided_fit_s": total["tauberian.one_sided_fit"],
        "tauberian.lp_s": total["tauberian.lp"],
        "tauberian.majorant_s": total["tauberian.majorant"],
        "tauberian.contour_s": total["tauberian.contour"],
        "dual_ergodic.report_self_s": own["dual_ergodic.report"],
        "dual_ergodic.tail_model_s": total["dual_ergodic.tail_model"],
        "maps.tail_sequence_s": total["maps.tail_sequence"],
        "cli.self_s": own["cli.main"],
    }
