"""Output checks for one CLI invocation: reference CSVs and invariants.

Seed 0 compares the numeric CSV columns with ``reference/<workload>/<label>.csv``
at relative tolerance ``RTOL``, loose enough for floating-point reordering
(fast-vs-exact agreement is 1e-10) but far below any change of method.
Columns that are differences of much larger quantities take their scale
from the quantity they are computed from (``_SCALE``).  Placeholder zeros
that stand for "not computed" are never compared.  Every seed checks the
invariants.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from workloads import Invocation

__all__ = ["RTOL", "REFERENCE", "csv_path", "check"]

REFERENCE = Path(__file__).resolve().parent / "reference"
RTOL = 1e-7

# column -> column whose magnitude scales its tolerance, or a fixed scale
_SCALE = {
    "renewal": {"residual": "U_n"},
    "dual-ergodic": {"sup_error": 1.0, "expansion_residual": "a_n"},
    "kernel": {"rel_err": 1.0, "quad_err": "extract", "imag_part": "extract"},
    "contour": {"abs_error": "computed"},
}
_MASS_DEFICIT_MAX = 0.15


def csv_path(inv: Invocation, outdir: Path) -> Path:
    return outdir / f"{inv.command.replace('-', '_')}.csv"


def _read(path: Path) -> list[dict[str, str]]:
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _placeholders(inv: Invocation) -> set[str]:
    """Columns written as 0 because nothing was computed for this config."""
    if inv.command != "dual-ergodic":
        return set()
    family = inv.option("family", "lsv")
    beta = 1.0 / float(inv.option("alpha", "2.0"))
    return {"expansion_residual"} if family == "lsv0" or beta <= 0.5 else set()


def _number(text: str) -> float | None:
    try:
        return float(text)
    except ValueError:
        return None


def _compare(rows, ref_rows, command: str, skip: set[str]) -> list[str]:
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    problems = []
    scales = _SCALE.get(command, {})
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, want_text in ref.items():
            if col in skip:
                continue
            if col not in row:
                return [f"column {col!r} missing"]
            got_text = row[col]
            want, got = _number(want_text), _number(got_text)
            if want is None:
                if got_text != want_text:
                    problems.append(f"row {i} {col}: {got_text!r} != {want_text!r}")
                continue
            scale = scales.get(col, 0.0)
            if isinstance(scale, str):
                scale = abs(float(ref[scale]))
            tol = RTOL * max(abs(want), scale)
            if got is None or not abs(got - want) <= tol:
                problems.append(f"row {i} {col}: {got_text} != reference {want_text}")
    return problems


def _sidecar(inv: Invocation, outdir: Path) -> dict:
    path = outdir / f"{inv.command.replace('-', '_')}_meta.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _invariants(inv: Invocation, outdir: Path, rows, skip: set[str]) -> list[str]:
    problems = []
    for i, row in enumerate(rows):
        for col, text in row.items():
            value = _number(text)
            if col not in skip and value is not None and not math.isfinite(value):
                problems.append(f"row {i} {col} is {text}")

    def col(name):
        return [float(r[name]) for r in rows]

    cmd = inv.command
    if cmd in ("tails", "dual-ergodic") and inv.option("family", "lsv") == "lsv":
        deficit = _sidecar(inv, outdir)["mass_deficit"]
        if not deficit <= _MASS_DEFICIT_MAX:
            problems.append(f"mass_deficit {deficit} > {_MASS_DEFICIT_MAX}")
    if cmd == "tails":
        p = col("tail_prob")
        if not all(0.0 < a <= 1.0 for a in p) or any(b > a for a, b in zip(p, p[1:])):
            problems.append("tail_prob not a nonincreasing sequence in (0, 1]")
    elif cmd == "renewal":
        u = col("U_n")
        if any(b < a for a, b in zip(u, u[1:])):
            problems.append("U_n decreases")
    elif cmd == "dual-ergodic" and inv.option("family", "lsv") == "lsv":
        # the rows nearest n = 1e2, 1e3, ... and the last row
        ns = [int(r["n"]) for r in rows]
        picks = sorted({min(range(len(ns)), key=lambda i: abs(math.log(ns[i] / 10**k)))
                        for k in range(2, int(math.log10(ns[-1])) + 1)} | {len(ns) - 1})
        sup = [float(rows[i]["sup_error"]) for i in picks]
        if any(b >= a for a, b in zip(sup, sup[1:])):
            problems.append(f"sup_error not strictly decreasing over n = "
                            f"{[ns[i] for i in picks]}: {sup}")
    elif cmd == "kernel":
        for r in rows:
            gap = abs(float(r["extract"]) - float(r["direct"]))
            bar = float(r["quad_err"]) + float(r["defect_bound"]) + abs(float(r["imag_part"]))
            if not gap <= bar:
                problems.append(f"kernel n={r['n']}: |extract - direct| {gap} > error bar {bar}")
    elif cmd == "contour":
        for r in rows:
            if not float(r["abs_error"]) <= float(r["error_bar"]):
                problems.append(f"contour {r['check']}: abs_error > error_bar")
    elif cmd == "polys":
        if any(r["sign_ok"] not in ("1", "True") for r in rows):
            problems.append("polys sign_ok false")
    return problems


def check(inv: Invocation, outdir: Path, workload: str | None, seed: int) -> list[str]:
    """Problems with one invocation's outputs (empty when they pass).

    ``workload`` names the reference directory; seed 0 of a named workload
    is compared with its reference CSV, every run with the invariants.
    """
    path = csv_path(inv, outdir)
    try:
        rows = _read(path)
        skip = _placeholders(inv)
        problems = _invariants(inv, outdir, rows, skip)
    except (OSError, KeyError, ValueError) as exc:
        return [f"unreadable output: {exc!r}"]
    if seed == 0 and workload is not None:
        ref_path = REFERENCE / workload / f"{inv.label}.csv"
        try:
            ref_rows = _read(ref_path)
        except OSError as exc:
            return problems + [f"no reference: {exc!r}"]
        problems += _compare(rows, ref_rows, inv.command, skip)
    return problems
