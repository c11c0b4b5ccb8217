"""Reproducible experiment driver.

Subcommands map onto the verification surfaces of the library:

* ``tails``        backward-orbit tables and return-time tail probabilities
* ``renewal``      scalar renewal sequences, first-order law, expansion residuals
* ``dual-ergodic`` operator partial sums against the Darling-Kac normalization
* ``kernel``       window extraction of partial sums vs direct summation
* ``contour``      closed-form contour integral checks (B1, B2, B3)
* ``polys``        one-sided polynomial constructions and their gap trends

Each subcommand computes a table and ``run`` writes it: a CSV (header row,
17 significant digits, '.' decimal point), a JSON sidecar holding the
configuration, error bars and the timestamp (the CSV body is byte-identical
across reruns of one config), and for the subcommands in ``_PLOTS`` a small
matplotlib script for the table, which is never executed here.

``kernel``, ``contour`` and ``polys`` import the Tauberian layer when they
run, so ``tails``, ``renewal`` and ``dual-ergodic`` never load it or
``scipy.optimize``.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, NumericalError, check_bytes
from .grid import Grid
from .induced import assemble_operator, invariant_density
from .maps import MapSpec, tail_sequence, return_time_tail
from .scalar import (
    AsymptoticExpansion,
    ReturnDistribution,
    renewal_sequence,
    residual_diagnostics,
    second_order_constant,
)
from .specfun import Norming, SlowlyVarying, expansion_order
from .dual_ergodic import (
    dual_ergodic_report,
    return_distribution_from_operator,
    tail_model_from_operator,
)

__all__ = ["ExperimentConfig", "main", "run"]

_FLOAT_FMT = "%.17g"
# values of the choice fields, checked by argparse and by ``validate``
_CHOICES = {"family": ["lsv", "lsv0"], "check": ["B1", "B2", "B3"]}
# the config fields' annotations, which are strings under postponed evaluation
_TYPES = {"int": int, "float": float, "str": str}
# peak bytes per step n, from tracemalloc: the scalar renewal with its
# partial sums, and the 41·n float64 arrays of ``kernel_defect_bound``
_RENEWAL_STEP_BYTES = 120
_DEFECT_STEP_BYTES = 984
# a subcommand's result: the CSV header, its rows and the sidecar's extra fields
_Table = tuple[list[str], Iterable[Sequence], dict]
# columns that each plotted subcommand's script draws against n
_PLOTS = {
    "tails": ["tail_prob"],
    "renewal": ["residual"],
    "dual-ergodic": ["sup_error", "expansion_residual"],
    "kernel": ["rel_err"],
}


@dataclass
class ExperimentConfig:
    """Flat configuration shared by all subcommands; flags override file values."""

    experiment: str = ""
    family: str = "lsv"
    alpha: float = 2.0
    grid: int = 512
    ntrunc: int = 2000
    nmax: int = 1000
    n: int = 1000
    beta: float = 0.5
    gamma: float = 0.25
    rho: float = 0.5
    check: str = "B2"
    epsilon: float = 0.5
    degrees: str = "4,8,16,32"
    out: str = "out"

    def validate(self):
        for name, allowed in _CHOICES.items():
            if getattr(self, name) not in allowed:
                raise DomainError(f"unknown {name} {getattr(self, name)!r}")
        if self.family == "lsv" and self.alpha < 1.0:
            raise DomainError("alpha must be >= 1")
        for name in ("grid", "ntrunc", "nmax", "n"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise DomainError("beta outside [0, 1]")
        if not 0.0 < self.gamma < 0.5:
            raise DomainError("gamma outside (0, 1/2)")
        if self.epsilon <= 0:
            raise DomainError("epsilon must be positive")
        self.degree_list()

    def degree_list(self) -> list[int]:
        """``degrees`` as comma-separated integers, each at least 2."""
        try:
            degrees = [int(s) for s in self.degrees.split(",") if s.strip()]
        except ValueError:
            raise DomainError(f"degrees must be comma-separated integers, "
                              f"got {self.degrees!r}") from None
        if any(m < 2 for m in degrees):
            raise DomainError("every degree must be >= 2")
        return degrees

    @classmethod
    def from_file(cls, path: Path) -> dict:
        out = {}
        for raw in path.read_text(encoding="utf-8").splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: {raw!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            out[key] = val
        return out


def _coerce(overrides: dict) -> ExperimentConfig:
    type_of = {f.name: f.type for f in fields(ExperimentConfig)}
    kwargs = {}
    for key, val in overrides.items():
        if key not in type_of:
            raise DomainError(f"unknown config key {key!r}")
        kwargs[key] = _TYPES[type_of[key]](val)
    return ExperimentConfig(**kwargs)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return _FLOAT_FMT % float(x)


def _write_csv(path: Path, header: list[str], rows: Iterable[Sequence]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_sidecar(path: Path, config: ExperimentConfig, extra: dict) -> None:
    payload = {
        "config": asdict(config),
        "version": __version__,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    payload.update(extra)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8")


def _write_plot_script(path: Path, csv_name: str, ycols: list[str]) -> None:
    body = f"""#!/usr/bin/env python3
# Plot script emitted alongside {csv_name}; run it yourself, nothing runs it for you.
import csv
import matplotlib.pyplot as plt

with open({csv_name!r}) as fh:
    rows = list(csv.DictReader(fh))
x = [float(r['n']) for r in rows]
fig, ax = plt.subplots()
for col in {ycols!r}:
    ax.plot(x, [abs(float(r[col])) for r in rows], label=col, marker="o", ms=3)
ax.set_xlabel('n')
ax.set_xscale('log')
ax.set_yscale('log')
ax.legend()
fig.savefig({csv_name!r}.replace(".csv", ".png"), dpi=150)
"""
    path.write_text(body, encoding="utf-8")


def _assemble(spec: MapSpec, grid: Grid, n_trunc: int, option: str, floor: int = 0):
    """``assemble_operator`` whose advice names ``option``, the flag that set n_trunc.

    An ``option`` below ``floor`` assembles at the floor, where lowering it
    changes nothing and raising it helps only past the floor: the advice says so.
    """
    try:
        return assemble_operator(spec, grid, n_trunc=max(n_trunc, floor))
    except NumericalError as exc:
        head, sep, advice = str(exc).rpartition("; ")
        if n_trunc < floor:
            advice = advice.replace(" or ntrunc", "").replace("ntrunc", f"ntrunc above {floor}")
        raise NumericalError(head + sep + advice.replace("ntrunc", option)) from None


def _advised(call, advice: str, *args, **kwargs):
    """``call(*args, **kwargs)``, whose refusal (a ``DomainError``) ends in ``advice``."""
    try:
        return call(*args, **kwargs)
    except DomainError as exc:
        raise DomainError(f"{exc}; {advice}") from None


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_tails(cfg: ExperimentConfig) -> _Table:
    spec = MapSpec(cfg.family, alpha=cfg.alpha)
    n = cfg.n
    op = _assemble(spec, Grid(cfg.grid), n, "n", floor=64)
    tail = tail_sequence(spec, n)
    tm = tail_model_from_operator(op)
    k = np.arange(1, n + 1)
    x = tail.x_tail
    probs = return_time_tail(tail, invariant_density(op), k)
    asym = tm.c * k ** (-spec.beta) if cfg.family == "lsv" else tm.c / np.log(k + 1.0)
    deficit = op.mass_deficit
    return (["n", "x_n", "y_n", "tail_prob", "asymptote_ratio", "error_bar"],
            zip(k, x, 0.5 * (x + 1.0), probs, probs / asym, [deficit] * n),
            {"c": tm.c, "beta": spec.beta, "mass_deficit": deficit,
             "density_residual": op.density_residual})


def _cmd_renewal(cfg: ExperimentConfig) -> _Table:
    beta = cfg.beta
    n_max = cfg.nmax
    check_bytes(_RENEWAL_STEP_BYTES * (n_max + 1), f"the scalar renewal to n = {n_max}",
                "lower nmax")
    dist = ReturnDistribution.from_power_tail(beta, n_max)
    seq = renewal_sequence(dist, n_max)
    norming = Norming(beta=beta, ell=SlowlyVarying("constant", c=1.0))
    ns = np.unique(np.round(np.logspace(0, np.log10(n_max), 200)).astype(int))
    first = np.array([norming.return_sequence(n) for n in ns])
    U = seq.U(ns)
    extra = {"beta": beta}
    # the higher-order machinery covers (1/2, 1); other betas get first order only
    if 0.5 < beta < 1.0:
        _advised(expansion_order, "lower beta", beta)  # the expansion's term cap
        ch = second_order_constant(beta)
        exp = AsymptoticExpansion(beta=beta, c=1.0, c_h=ch.value)
        pred = exp.partial_sum_prediction(ns.astype(float))
        error_bar = ch.error_bar * ns ** exp.exponents[-1]
        if n_max >= 10**3:
            diag = residual_diagnostics(seq, exp, n_lo=max(10**3, n_max // 1000), n_hi=n_max)
            extra["residual_slope"] = diag["fit"].slope
            extra["residual_slope_halfwidth"] = diag["fit"].halfwidth
            extra["c_H"] = exp.c_h
    else:
        pred = first
        error_bar = np.full(ns.size, math.nan)
    return (["n", "u_n", "U_n", "first_order", "ratio", "expansion", "residual", "error_bar"],
            zip(ns, seq.u[ns], U, first, U / first, pred, U - pred, error_bar), extra)


def _cmd_dual_ergodic(cfg: ExperimentConfig) -> _Table:
    spec = MapSpec(cfg.family, alpha=cfg.alpha)
    # the log-spaced report times start at 10: keep those within nmax
    ns = np.round(np.logspace(1, np.log10(cfg.nmax), 25)).astype(int).tolist()
    ns = sorted({n for n in ns if n <= cfg.nmax} | {cfg.nmax})
    # the report's own refusals, checked before assembly: its expansion, and
    # lsv0's norming m(n) = c log n at a first report time of 1
    if 0.5 < spec.beta < 1.0:
        _advised(expansion_order, "raise alpha", spec.beta)
    if spec.family == "lsv0":
        _advised(Norming(0.0, SlowlyVarying("log_power", p=1.0)).return_sequence,
                 "raise nmax above 1", ns[0])
    grid = Grid(cfg.grid)
    op = _assemble(spec, grid, cfg.ntrunc, "ntrunc")
    report = dual_ergodic_report(op, np.ones(grid.m), ns)
    residual = report.expansion_residual
    residual = np.full(report.n.size, math.nan) if residual is None else residual
    extra = {"c": report.c, "beta": report.beta, "mass_deficit": report.mass_deficit}
    if report.sup_fit is not None:
        extra["sup_error_slope"] = report.sup_fit.slope
    if report.residual_fit is not None:
        extra["expansion_residual_slope"] = report.residual_fit.slope
    return (["n", "a_n", "sup_error", "expansion_residual", "error_bar"],
            zip(report.n, report.a_n, report.sup_error, residual,
                [report.mass_deficit] * report.n.size), extra)


def _cmd_kernel(cfg: ExperimentConfig) -> _Table:
    from . import tauberian as tb

    ns = sorted({100, 500, cfg.nmax} if cfg.nmax >= 12 else {100, 500})
    check_bytes((_RENEWAL_STEP_BYTES + _DEFECT_STEP_BYTES) * (max(ns) + 1),
                f"kernel extraction to n = {max(ns)}", "lower nmax")
    rows = []
    sequences = {"ones": np.ones(max(ns) + 1)}
    spec = MapSpec(cfg.family, alpha=cfg.alpha)
    if cfg.family == "lsv":
        n_trunc = max(max(ns) + 1, cfg.ntrunc)
        option = "ntrunc" if n_trunc == cfg.ntrunc else "nmax"
        op = _assemble(spec, Grid(cfg.grid), n_trunc, option)
        dist = return_distribution_from_operator(op)
        sequences["map_derived"] = renewal_sequence(dist, max(ns)).u
    for name, u in sequences.items():
        phi = tb.phi_from_sequence(u)
        bound = float(np.max(np.abs(u)))
        for n in ns:
            params = tb.KernelParams(n=n, gamma_exp=cfg.gamma)
            ke = tb.kernel_extract(phi, params, seq_bound=bound)
            direct = float(np.sum(u[: n - 2 * params.p + 1]))
            rows.append([name, n, ke.estimate, direct,
                         abs(ke.estimate - direct) / max(abs(direct), 1e-300),
                         ke.quad_error, ke.defect_bound, ke.imag_part])
    return (["sequence", "n", "extract", "direct", "rel_err", "quad_err", "defect_bound",
             "imag_part"], rows, {"gamma": cfg.gamma})


def _cmd_contour(cfg: ExperimentConfig) -> _Table:
    from . import tauberian as tb

    if cfg.check == "B1":
        param, res = cfg.beta, tb.rotated_gamma_integral(cfg.beta, u=1.0, theta=1.0,
                                                         r_hi=float(cfg.nmax))
    elif cfg.check == "B2":
        param, res = cfg.beta, tb.line_power_integral(cfg.beta)
    else:
        param, res = cfg.rho, tb.window_power_integral(cfg.rho, cfg.gamma, cfg.nmax)
    return (["check", "parameter", "computed", "closed_form", "abs_error", "error_bar"],
            [[cfg.check, param, res.value.real, res.closed_form, res.abs_error, res.error_bar]],
            {"check": cfg.check})


def _cmd_polys(cfg: ExperimentConfig) -> _Table:
    from . import tauberian as tb

    rows = []
    maj = tb.indicator_majorant(cfg.epsilon)
    rows.append(["majorant", maj.degree, maj.gap, cfg.epsilon, 1.0, True])
    degrees = cfg.degree_list()
    for m in degrees:
        for side in ("upper", "lower"):
            p = tb.one_sided_fit(m, side)
            rows.append([f"fit_{side}", m, p.gap, m * p.gap, p.coefficient_sum(),
                         p.sign_check()])
    return (["kind", "degree", "gap", "target_or_mgap", "coefficient_sum", "sign_ok"],
            rows, {"epsilon": cfg.epsilon, "degrees": degrees})


_COMMANDS = {
    "tails": _cmd_tails,
    "renewal": _cmd_renewal,
    "dual-ergodic": _cmd_dual_ergodic,
    "kernel": _cmd_kernel,
    "contour": _cmd_contour,
    "polys": _cmd_polys,
}


def run(subcommand: str, cfg: ExperimentConfig) -> int:
    """Run one experiment; returns the process exit code."""
    outdir = Path(cfg.out)
    try:
        cfg.validate()
        if subcommand not in _COMMANDS:
            raise DomainError(f"unknown subcommand {subcommand!r}")
        try:
            outdir.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise DomainError(f"out {cfg.out!r} is or lies under a file, "
                              "not a directory") from None
        cfg.experiment = cfg.experiment or subcommand
        header, rows, extra = _COMMANDS[subcommand](cfg)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    name = subcommand.replace("-", "_")
    _write_csv(outdir / f"{name}.csv", header, rows)
    if subcommand in _PLOTS:
        _write_plot_script(outdir / f"plot_{name}.py", f"{name}.csv", _PLOTS[subcommand])
    _write_sidecar(outdir / f"{name}_meta.json", cfg, extra)
    return 0


# every config field but the experiment name, which the subcommand sets
_FLAGS = [f for f in fields(ExperimentConfig) if f.name != "experiment"]


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="renewalops",
        description="renewal-operator experiments for intermittent interval maps",
    )
    ap.add_argument("subcommand", choices=sorted(_COMMANDS))
    ap.add_argument("--config", type=str, default=None, help="key = value file")
    for f in _FLAGS:
        ap.add_argument(f"--{f.name}", type=_TYPES[f.type], choices=_CHOICES.get(f.name),
                        default=None)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    flags = {f.name: getattr(args, f.name) for f in _FLAGS if getattr(args, f.name) is not None}
    # DomainError, a bad number and a file that is not UTF-8 are all ValueErrors
    try:
        overrides = ExperimentConfig.from_file(Path(args.config)) if args.config else {}
        cfg = _coerce(overrides | flags)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(args.subcommand, cfg)


if __name__ == "__main__":
    sys.exit(main())
