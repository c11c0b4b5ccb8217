"""Uniform dual ergodicity reports for the assembled operator family.

The Darling-Kac normalization a_n = n**beta / (D m(n)) with
D = Gamma(1-beta) Gamma(1+beta) turns the renewal partial sums S_n into
approximations of the invariant integral: a_n**-1 S_n -> integral of v,
uniformly over Y.  The report tabulates the sup deviation across the grid
at requested times, and for beta > 1/2 also the residual after removing
the full higher-order expansion driven by the second-order tail constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diagnostics import SlopeFit, slope_fit
from .errors import DomainError
from .induced import InducedOperator
from .maps import TailModel
from .renewal_engine import renewal_action
from .scalar import AsymptoticExpansion, ReturnDistribution, second_order_constant
from .specfun import Norming, SlowlyVarying

__all__ = [
    "tail_model_from_operator",
    "return_distribution_from_operator",
    "norming_from_tail",
    "DualErgodicReport",
    "dual_ergodic_report",
]


def _density_at_half(op: InducedOperator) -> float:
    """Density value at the left endpoint by linear extrapolation of two cells."""
    h = op.density_values
    if len(h) < 2:
        return float(h[0])
    return float(h[0] + 0.5 * (h[0] - h[1]))


def tail_model_from_operator(op: InducedOperator) -> TailModel:
    """Return-time tail model with constants read off the computed density.

    For the polynomial family the tail constant is beta**beta h(1/2) / 4
    and the correction H is tabulated from the operator's tail table; for the
    log family the tail is the reciprocal of a slowly varying function with
    scale 2 / h(1/2).
    """
    h_half = _density_at_half(op)
    if op.spec.family == "lsv0":
        c = 0.5 * h_half
        return TailModel(beta=0.0, c=c, ell=SlowlyVarying("log_power", c=1.0 / c, p=1.0))
    beta = op.spec.beta
    c = 0.25 * beta**beta * h_half
    h_table = op.tails[1:] / c - np.arange(1, op.n_trunc + 1) ** (-beta)
    return TailModel(beta=beta, c=c, h_table=h_table)


def return_distribution_from_operator(op: InducedOperator) -> ReturnDistribution:
    """Lifetimes f_j = measure of {return time = j}: the differences of ``op.tails``."""
    if op.spec.family == "lsv0":
        raise DomainError(
            "log-family return times carry no invariant mass at desk-scale "
            "truncations (the density is supported left of the short-return "
            "level sets); a scalar coupling would be identically degenerate"
        )
    return ReturnDistribution(np.concatenate([[0.0], -np.diff(op.tails)]), op.mass_deficit)


def norming_from_tail(tm: TailModel) -> Norming:
    """Darling-Kac norming for a tail model (constant-scale slowly varying part)."""
    if tm.ell is not None:
        return Norming(beta=0.0, ell=tm.ell)
    return Norming(beta=tm.beta, ell=SlowlyVarying("constant", c=tm.c))


@dataclass
class DualErgodicReport:
    """The uniform dual ergodic check at the report times ``n``, with slope fits."""

    n: np.ndarray
    a_n: np.ndarray
    sup_error: np.ndarray
    expansion_residual: np.ndarray | None
    sup_fit: SlopeFit | None
    residual_fit: SlopeFit | None
    c: float
    beta: float
    mass_deficit: float


def dual_ergodic_report(
    op: InducedOperator,
    v: np.ndarray,
    ns: list[int],
) -> DualErgodicReport:
    """sup over the grid of |a_n**-1 S_n - integral(v)| at the requested times.

    For beta > 1/2 (polynomial family) the report also carries the sup
    residual after subtracting the complete higher-order prediction
    (expansion over c Gamma(1-beta), scaled by the integral of v).
    """
    v = np.asarray(v, dtype=float)
    ns = sorted(set(int(n) for n in ns))
    if not ns or ns[0] < 1:
        raise DomainError("report times must be >= 1, and at least one is needed")
    tm = tail_model_from_operator(op)
    norming = norming_from_tail(tm)
    acc = renewal_action(op, v, n_max=max(ns), snapshot_ns=ns)
    h = op.density_values
    delta = op.grid.width
    int_v = float(np.dot(v, h) * delta)

    a_n = np.array([norming.return_sequence(n) for n in ns], dtype=float)
    sup_err = np.array(
        [float(np.max(np.abs(acc.snapshots[n] / a - int_v))) for n, a in zip(ns, a_n)]
    )
    resid = None
    resid_fit = None
    beta = tm.beta
    if 0.5 < beta < 1.0:
        ch = second_order_constant(beta, c=tm.c, H=tm.H)
        exp = AsymptoticExpansion(beta=beta, c=tm.c, c_h=ch.value)
        pred = exp.partial_sum_prediction(np.array(ns, dtype=float))
        resid = np.array(
            [float(np.max(np.abs(acc.snapshots[n] - p * int_v)))
             for n, p in zip(ns, pred)]
        )
        if len(ns) >= 3:
            resid_fit = slope_fit(np.array(ns, float), resid)
    sup_fit = slope_fit(np.array(ns, float), sup_err) if len(ns) >= 3 else None
    return DualErgodicReport(
        n=np.array(ns), a_n=a_n, sup_error=sup_err,
        expansion_residual=resid, sup_fit=sup_fit, residual_fit=resid_fit,
        c=tm.c, beta=beta, mass_deficit=op.mass_deficit,
    )
