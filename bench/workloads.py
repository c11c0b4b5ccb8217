"""Workloads of the renewalops benchmark: lists of CLI invocations.

Each workload is a fixed list of ``renewalops`` command lines run in one
fresh process.  Seed 0 runs the named configurations, whose CSVs are
compared with the reference files under ``reference/``.  Any other seed
jitters the continuous parameters (alpha, beta, gamma, epsilon) inside the
small ranges of ``JITTER``; those runs are checked by invariants only.
The configured sizes (grid, truncation, step counts, majorant degree) are
the same for every seed.  Adaptive counts still move a little with the
seed on ``cli-defaults``: quadrature points, and the nnz of the alpha-2
operator by a few entries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

__all__ = ["Invocation", "WORKLOADS", "JITTER", "build"]

# (low, high) of the uniform jitter per parameter, relative for alpha and epsilon.
# alpha only moves down, so beta = 1/alpha never drops below the named
# configurations' 1/2.
JITTER = {
    "alpha": (-0.003, 0.0),    # relative: alpha * (1 - [0, 0.003])
    "beta": (-0.01, 0.01),     # absolute: beta +- 0.01
    "gamma": (-0.01, 0.01),    # absolute: gamma +- 0.01
    "epsilon": (-0.02, 0.02),  # relative: epsilon * (1 +- 0.02)
}
_RELATIVE = {"alpha", "epsilon"}


@dataclass(frozen=True)
class Invocation:
    """One CLI call; ``label`` names its output directory and reference CSV."""

    label: str
    argv: tuple[str, ...]

    @property
    def command(self) -> str:
        return self.argv[0]

    def option(self, name: str, default: str | None = None) -> str | None:
        """Value of ``--name`` in argv, or ``default``."""
        flag = f"--{name}"
        args = list(self.argv)
        return args[args.index(flag) + 1] if flag in args else default


# (label, command, {option: named value}); values that JITTER names move with the seed.
# Sizes keep each acceptance configuration's grid and kernel shapes but shorten
# the time axis, so one repetition takes about 5 s and a run holds several.
_SPECS = {
    # criterion 8's map at grid 1024: assembly-bound, narrow kernels
    "de-lsv0": [
        ("dual-ergodic", "dual-ergodic",
         {"family": "lsv0", "grid": 1024, "ntrunc": 2500, "nmax": 2500}),
    ],
    # every subcommand; dual-ergodic at its built-in grid and truncation,
    # where ``auto`` picks the exact engine path
    "cli-defaults": [
        ("tails", "tails", {"family": "lsv", "alpha": 2.0, "n": 1000}),
        ("renewal", "renewal", {"beta": 0.75, "nmax": 250000}),
        ("dual-ergodic", "dual-ergodic", {"nmax": 500}),
        ("kernel", "kernel", {"family": "lsv", "alpha": 2.0, "gamma": 0.4}),
        ("contour-B1", "contour", {"check": "B1", "beta": 0.5}),
        ("contour-B2", "contour", {"check": "B2", "beta": 0.5}),
        ("contour-B3", "contour", {"check": "B3", "beta": 0.5}),
        ("polys", "polys", {"epsilon": 0.1, "degrees": "4,8,16,32"}),
    ],
}

WORKLOADS = tuple(_SPECS)


def _jitter(name: str, value, rng: random.Random):
    if name not in JITTER:
        return value
    return float(f"{shift(name, value, rng.uniform(*JITTER[name])):.6g}")


def shift(name: str, value: float, u: float) -> float:
    """``value`` moved by ``u``, relatively for alpha and epsilon."""
    return value * (1.0 + u) if name in _RELATIVE else value + u


def build(workload: str, seed: int) -> list[Invocation]:
    """The invocations of ``workload`` for ``seed`` (seed 0: named configs)."""
    if workload not in _SPECS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    out = []
    for label, command, options in _SPECS[workload]:
        argv = [command]
        for key, value in options.items():
            if seed != 0:
                value = _jitter(key, value, rng)
            argv += [f"--{key}", str(value)]
        out.append(Invocation(label, tuple(argv)))
    return out
