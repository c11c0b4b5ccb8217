"""Reproducible experiment driver.

Subcommands map onto the verification surfaces of the library:

* ``tails``        backward-orbit tables and return-time tail probabilities
* ``renewal``      scalar renewal sequences, first-order law, expansion residuals
* ``dual-ergodic`` operator partial sums against the Darling-Kac normalization
* ``kernel``       window extraction of partial sums vs direct summation
* ``contour``      closed-form contour integral checks (B1, B2, B3)
* ``polys``        one-sided polynomial constructions and their gap trends

Every run writes a CSV (header row, 17 significant digits, '.' decimal
point) plus a JSON sidecar holding the configuration, error bars and the
timestamp (the CSV body is byte-identical across reruns of one config),
and a small matplotlib script for the table, which is never executed here.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass, asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DomainError, NumericalError
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
from .specfun import Norming, SlowlyVarying
from .dual_ergodic import (
    dual_ergodic_report,
    return_distribution_from_operator,
    tail_model_from_operator,
)
from . import tauberian as tb

__all__ = ["ExperimentConfig", "main", "run"]

_FLOAT_FMT = "%.17g"


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
        if self.family not in ("lsv", "lsv0"):
            raise DomainError(f"unknown family {self.family!r}")
        if self.family == "lsv" and self.alpha < 1.0:
            raise DomainError("alpha must be >= 1")
        for name in ("grid", "ntrunc", "nmax", "n"):
            if getattr(self, name) < 1:
                raise DomainError(f"{name} must be positive")
        if not 0.0 <= self.beta <= 1.0:
            raise DomainError("beta outside [0, 1]")
        if not 0.0 < self.gamma < 0.5:
            raise DomainError("gamma outside (0, 1/2)")
        if self.check not in ("B1", "B2", "B3"):
            raise DomainError(f"unknown contour check {self.check!r}")
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


def _coerce(cfg_cls, overrides: dict) -> ExperimentConfig:
    kwargs = {}
    type_of = {f.name: f.type for f in fields(cfg_cls)}
    for key, val in overrides.items():
        if key not in type_of:
            raise DomainError(f"unknown config key {key!r}")
        t = type_of[key]
        if t in ("int", int):
            kwargs[key] = int(val)
        elif t in ("float", float):
            kwargs[key] = float(val)
        else:
            kwargs[key] = str(val)
    return cfg_cls(**kwargs)


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return _FLOAT_FMT % float(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
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
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_json_default),
                    encoding="utf-8")


def _json_default(x):
    if isinstance(x, (np.floating, np.integer)):
        return float(x)
    if isinstance(x, np.ndarray):
        return x.tolist()
    return str(x)


def _write_plot_script(path: Path, csv_name: str, xcol: str, ycols: list[str]) -> None:
    body = f"""#!/usr/bin/env python3
# Plot script emitted alongside {csv_name}; run it yourself, nothing runs it for you.
import csv
import matplotlib.pyplot as plt

with open({csv_name!r}) as fh:
    rows = list(csv.DictReader(fh))
x = [float(r[{xcol!r}]) for r in rows]
fig, ax = plt.subplots()
for col in {ycols!r}:
    ax.plot(x, [abs(float(r[col])) for r in rows], label=col, marker="o", ms=3)
ax.set_xlabel({xcol!r})
ax.set_xscale('log')
ax.set_yscale('log')
ax.legend()
fig.savefig({csv_name!r}.replace(".csv", ".png"), dpi=150)
"""
    path.write_text(body, encoding="utf-8")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_tails(cfg: ExperimentConfig, outdir: Path) -> dict:
    spec = MapSpec(cfg.family, alpha=cfg.alpha)
    n = cfg.n
    grid = Grid(cfg.grid)
    op = assemble_operator(spec, grid, n_trunc=max(n, 64))
    h = invariant_density(op)
    tail = tail_sequence(spec, n)
    tm = tail_model_from_operator(op)
    beta = spec.beta
    deficit = op.mass_deficit
    probs = return_time_tail(tail, h, np.arange(1, n + 1))
    rows = []
    for k, p in zip(range(1, n + 1), probs.tolist()):
        if cfg.family == "lsv":
            asym = tm.c * k ** (-beta)
        else:
            asym = tm.c / np.log(k + 1.0)
        rows.append([k, tail.x_n(k), tail.y_n(k), p, p / asym, deficit])
    _write_csv(outdir / "tails.csv",
               ["n", "x_n", "y_n", "tail_prob", "asymptote_ratio", "error_bar"], rows)
    _write_plot_script(outdir / "plot_tails.py", "tails.csv", "n", ["tail_prob"])
    return {"c": tm.c, "beta": beta, "mass_deficit": deficit,
            "density_residual": op.density_residual}


def _cmd_renewal(cfg: ExperimentConfig, outdir: Path) -> dict:
    beta = cfg.beta
    n_max = cfg.nmax
    dist = ReturnDistribution.from_power_tail(beta, n_max)
    seq = renewal_sequence(dist, n_max)
    norming = Norming(beta=beta, ell=SlowlyVarying("constant", c=1.0))
    # the higher-order machinery covers (1/2, 1); beta = 1 gets first order only
    if 0.5 < beta < 1.0:
        ch = second_order_constant(beta)
        exp = AsymptoticExpansion(beta=beta, c=1.0, c_h=ch.value)
        ch_bar = ch.error_bar
    else:
        exp = None
        ch_bar = math.nan
    ns = np.unique(np.round(np.logspace(0, np.log10(n_max), 200)).astype(int))
    rows = []
    for n in ns:
        first = norming.return_sequence(n)
        u_n = seq.u[n]
        U_n = float(seq.U(np.array([n]))[0])
        row = [int(n), u_n, U_n, first, U_n / first]
        if exp is not None:
            pred = float(exp.partial_sum_prediction(np.array([float(n)]))[0])
            row += [pred, U_n - pred, ch_bar * n ** exp.exponents[-1]]
        else:
            row += [first, U_n - first, math.nan]
        rows.append(row)
    _write_csv(outdir / "renewal.csv",
               ["n", "u_n", "U_n", "first_order", "ratio", "expansion", "residual",
                "error_bar"], rows)
    extra = {"beta": beta}
    if exp is not None and n_max >= 10**3:
        diag = residual_diagnostics(seq, exp, n_lo=max(10**3, n_max // 1000), n_hi=n_max)
        extra["residual_slope"] = diag["fit"].slope
        extra["residual_slope_halfwidth"] = diag["fit"].halfwidth
        extra["c_H"] = exp.c_h
    _write_plot_script(outdir / "plot_renewal.py", "renewal.csv", "n",
                       ["residual"])
    return extra


def _cmd_dual_ergodic(cfg: ExperimentConfig, outdir: Path) -> dict:
    spec = MapSpec(cfg.family, alpha=cfg.alpha)
    grid = Grid(cfg.grid)
    op = assemble_operator(spec, grid, n_trunc=cfg.ntrunc)
    # the log-spaced report times start at 10: keep those within nmax
    ns = np.round(np.logspace(1, np.log10(cfg.nmax), 25)).astype(int).tolist()
    ns = sorted({n for n in ns if n <= cfg.nmax} | {cfg.nmax})
    report = dual_ergodic_report(op, np.ones(grid.m), ns)
    rows = []
    for row in report.rows():
        rows.append([row["n"], row["a_n"], row["sup_error"],
                     row.get("expansion_residual", math.nan), row["error_bar"]])
    _write_csv(outdir / "dual_ergodic.csv",
               ["n", "a_n", "sup_error", "expansion_residual", "error_bar"], rows)
    _write_plot_script(outdir / "plot_dual_ergodic.py", "dual_ergodic.csv", "n",
                       ["sup_error", "expansion_residual"])
    extra = {"c": report.c, "beta": report.beta, "mass_deficit": report.mass_deficit}
    if report.sup_fit is not None:
        extra["sup_error_slope"] = report.sup_fit.slope
    if report.residual_fit is not None:
        extra["expansion_residual_slope"] = report.residual_fit.slope
    return extra


def _cmd_kernel(cfg: ExperimentConfig, outdir: Path) -> dict:
    ns = sorted({100, 500, cfg.nmax} if cfg.nmax >= 12 else {100, 500})
    rows = []
    sequences = {"ones": np.ones(max(ns) + 1)}
    spec = MapSpec(cfg.family, alpha=cfg.alpha)
    if cfg.family == "lsv":
        op = assemble_operator(spec, Grid(cfg.grid), n_trunc=max(max(ns) + 1, cfg.ntrunc))
        dist = return_distribution_from_operator(op)
        sequences["map_derived"] = renewal_sequence(dist, max(ns)).u
    for name, u in sequences.items():
        phi = tb.phi_from_sequence(u)
        bound = float(np.max(np.abs(u)))
        for n in ns:
            params = tb.KernelParams(n=n, p=2, gamma_exp=cfg.gamma)
            ke = tb.kernel_extract(phi, params, seq_bound=bound)
            direct = float(np.sum(u[: n - 2 * params.p + 1]))
            rows.append([name, n, ke.estimate, direct,
                         abs(ke.estimate - direct) / max(abs(direct), 1e-300),
                         ke.quad_error, ke.defect_bound, ke.imag_part])
    _write_csv(outdir / "kernel.csv",
               ["sequence", "n", "extract", "direct", "rel_err", "quad_err",
                "defect_bound", "imag_part"], rows)
    _write_plot_script(outdir / "plot_kernel.py", "kernel.csv", "n", ["rel_err"])
    return {"gamma": cfg.gamma}


def _cmd_contour(cfg: ExperimentConfig, outdir: Path) -> dict:
    if cfg.check == "B1":
        val, err = tb.rotated_gamma_integral(cfg.beta, u=1.0, theta=1.0, r_hi=float(cfg.nmax))
        closed = math.gamma(1.0 - cfg.beta)
        row = [cfg.check, cfg.beta, float(val.real), closed,
               abs(val - closed), err + float(cfg.nmax) ** (-cfg.beta)]
    elif cfg.check == "B2":
        res = tb.line_power_integral(cfg.beta)
        row = [cfg.check, cfg.beta, res.value, res.closed_form, res.abs_error, res.error_bar]
    else:
        res = tb.window_power_integral(cfg.rho, cfg.gamma, cfg.nmax)
        row = [cfg.check, cfg.rho, float(res.value.real), res.main_term,
               res.deviation, res.quad_error + cfg.nmax ** (cfg.rho * cfg.gamma)]
    _write_csv(outdir / "contour.csv",
               ["check", "parameter", "computed", "closed_form", "abs_error", "error_bar"],
               [row])
    return {"check": cfg.check}


def _cmd_polys(cfg: ExperimentConfig, outdir: Path) -> dict:
    rows = []
    maj = tb.indicator_majorant(cfg.epsilon)
    rows.append(["majorant", maj.degree, maj.gap, cfg.epsilon, 1.0, True])
    degrees = cfg.degree_list()
    for m in degrees:
        for side in ("upper", "lower"):
            p = tb.one_sided_fit(m, side)
            rows.append([f"fit_{side}", m, p.gap, m * p.gap, p.coefficient_sum(),
                         p.sign_check()])
    _write_csv(outdir / "polys.csv",
               ["kind", "degree", "gap", "target_or_mgap", "coefficient_sum", "sign_ok"],
               rows)
    return {"epsilon": cfg.epsilon, "degrees": degrees}


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
    try:
        cfg.validate()
        if subcommand not in _COMMANDS:
            raise DomainError(f"unknown subcommand {subcommand!r}")
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    outdir = Path(cfg.out)
    outdir.mkdir(parents=True, exist_ok=True)
    cfg.experiment = cfg.experiment or subcommand
    try:
        extra = _COMMANDS[subcommand](cfg, outdir)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    _write_sidecar(outdir / f"{subcommand.replace('-', '_')}_meta.json", cfg, extra)
    return 0


_CHOICES = {"family": ["lsv", "lsv0"], "check": ["B1", "B2", "B3"]}
_TYPES = {"int": int, "float": float, "str": str}
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
    overrides = {}
    if args.config:
        try:
            overrides.update(ExperimentConfig.from_file(Path(args.config)))
        except (OSError, DomainError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    for f in _FLAGS:
        val = getattr(args, f.name)
        if val is not None:
            overrides[f.name] = val
    try:
        cfg = _coerce(ExperimentConfig, overrides)
    except (DomainError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(args.subcommand, cfg)


if __name__ == "__main__":
    sys.exit(main())
