"""Tests of the benchmark itself, on small configurations (about 15 s).

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import shutil
import signal
import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import calibrate  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Invocation, build  # noqa: E402

# every layer at a size that runs in seconds; the first dual-ergodic takes
# the fast engine path with FFT groups, the second the exact path
SMALL = [
    Invocation("de-fast", ("dual-ergodic", "--family", "lsv", "--alpha", "1.6667",
                           "--grid", "32", "--ntrunc", "2500", "--nmax", "2500")),
    Invocation("de-exact", ("dual-ergodic", "--grid", "32", "--ntrunc", "200", "--nmax", "100")),
    Invocation("tails", ("tails", "--n", "50", "--grid", "32")),
    Invocation("renewal", ("renewal", "--beta", "0.75", "--nmax", "5000")),
    Invocation("kernel", ("kernel", "--grid", "32", "--gamma", "0.4")),
    Invocation("contour-B1", ("contour", "--check", "B1", "--beta", "0.5")),
    Invocation("polys", ("polys", "--epsilon", "0.5", "--degrees", "4")),
]


def _run(tmp_path: Path, tag: str, trace: bool):
    return run.run_invocations(SMALL, tmp_path, tag, trace, time.perf_counter() + 170.0)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("bench")
    return {tag: _run(tmp, tag, tag != "plain") for tag in ("plain", "traced", "traced2")}


def test_traced_run_writes_identical_csvs_and_restores_names(runs):
    _, plain, plain_dirs = runs["plain"]
    _, traced, traced_dirs = runs["traced"]
    assert plain["codes"] == traced["codes"] == [0] * len(SMALL)
    assert run.csv_mismatches(SMALL, plain_dirs, traced_dirs) == {}
    assert traced["restored"]
    assert "renewalops.induced.BranchLadder" in traced["patched"]
    assert "renewalops.tauberian.linprog" in traced["patched"]
    assert run.failures(SMALL, traced, traced_dirs, None, 1) == {}


def test_every_layer_is_reached(runs):
    layers = runs["traced"][1]["layers"]
    assert set(layers) | {"trace.overhead_frac"} == set(run.metric_units("per_layer"))
    for name, value in layers.items():
        assert value > 0, name


def test_counts_repeat_exactly(runs):
    first, second = runs["traced"][1]["layers"], runs["traced2"][1]["layers"]
    assert {k: first[k] for k in spans.COUNTS} == {k: second[k] for k in spans.COUNTS}


def test_sampler_times_bursts_and_restores_the_alarm():
    previous = signal.getsignal(signal.SIGALRM)
    with calibrate.Sampler(calibrate.Kernel()) as sampler:
        end = time.perf_counter() + 5 * calibrate.BURST_INTERVAL_S
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.bursts) >= 2 and all(b > 0 for b in sampler.bursts)


def test_patches_restore_in_process():
    sys.path.insert(0, str(run.SRC))
    import numpy as np
    import renewalops.cli as cli
    from renewalops import induced

    before = (cli.main, cli.assemble_operator, induced.BranchLadder, np.fft.rfft,
              vars(induced.InducedOperator)["density_values"])
    patches = spans.install(spans.Tracer())
    assert cli.main is not before[0] and np.fft.rfft is not before[3]
    patches.restore()
    assert patches.restored()
    after = (cli.main, cli.assemble_operator, induced.BranchLadder, np.fft.rfft,
             vars(induced.InducedOperator)["density_values"])
    assert all(a is b for a, b in zip(before, after))


def _reference_output(tmp_path: Path, label: str) -> tuple[Invocation, Path]:
    inv = next(i for i in build("cli-defaults", 0) if i.label == label)
    shutil.copyfile(checks.REFERENCE / "cli-defaults" / f"{label}.csv",
                    checks.csv_path(inv, tmp_path))
    return inv, checks.csv_path(inv, tmp_path)


def test_reference_output_passes(tmp_path):
    inv, _ = _reference_output(tmp_path, "contour-B2")
    assert checks.check(inv, tmp_path, "cli-defaults", 0) == []


def test_corrupted_value_fails_reference_check(tmp_path):
    inv, path = _reference_output(tmp_path, "contour-B2")
    header, row = path.read_text(encoding="utf-8").splitlines()
    cells = row.split(",")
    cells[2] = repr(float(cells[2]) * (1 + 1e-5))  # computed
    path.write_text(f"{header}\n{','.join(cells)}\n", encoding="utf-8")
    problems = checks.check(inv, tmp_path, "cli-defaults", 0)
    assert any("computed" in p for p in problems)
    assert checks.check(inv, tmp_path, "cli-defaults", 1) == []  # invariants still hold


def test_broken_invariant_fails_any_seed(tmp_path):
    inv, path = _reference_output(tmp_path, "polys")
    text = path.read_text(encoding="utf-8").splitlines()
    text[-1] = text[-1].rsplit(",", 1)[0] + ",0"  # sign_ok false
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    assert any("sign_ok" in p for p in checks.check(inv, tmp_path, "cli-defaults", 3))


def test_truncated_csv_fails(tmp_path):
    inv, path = _reference_output(tmp_path, "renewal")
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-5]) + "\n", encoding="utf-8")
    assert checks.check(inv, tmp_path, "cli-defaults", 0)


def test_placeholder_columns_are_not_compared(tmp_path):
    inv = next(i for i in build("cli-defaults", 0) if i.label == "dual-ergodic")
    assert checks._placeholders(inv) == {"expansion_residual"}
    assert checks._placeholders(build("de-lsv0", 0)[0]) == {"expansion_residual"}
    lsv = Invocation("de", ("dual-ergodic", "--family", "lsv", "--alpha", "1.6667"))
    assert checks._placeholders(lsv) == set()


def test_seed_zero_is_named_config_and_other_seeds_jitter():
    for name in WORKLOADS:
        assert build(name, 0) == build(name, 0)
        assert build(name, 7) == build(name, 7)
    named = build("cli-defaults", 0)[0]
    moved = build("cli-defaults", 7)[0]
    assert named.option("alpha") == "2.0"
    assert moved.option("alpha") != "2.0"
    assert -0.003 <= float(moved.option("alpha")) / 2.0 - 1 <= 0
    assert moved.option("n") == named.option("n")
