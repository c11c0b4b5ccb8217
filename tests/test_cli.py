import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

import renewalops
from renewalops import cli, errors
from renewalops.cli import ExperimentConfig, main
from renewalops.grid import GridObservable
from renewalops.scalar import AsymptoticExpansion


# every subcommand's CSV columns
HEADERS = {
    "tails": ["n", "x_n", "y_n", "tail_prob", "asymptote_ratio", "error_bar"],
    "renewal": ["n", "u_n", "U_n", "first_order", "ratio", "expansion", "residual",
                "error_bar"],
    "dual-ergodic": ["n", "a_n", "sup_error", "expansion_residual", "error_bar"],
    "kernel": ["sequence", "n", "extract", "direct", "rel_err", "quad_err", "defect_bound",
               "imag_part"],
    "contour": ["check", "parameter", "computed", "closed_form", "abs_error", "error_bar"],
    "polys": ["kind", "degree", "gap", "target_or_mgap", "coefficient_sum", "sign_ok"],
}


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def write_config(cfg: ExperimentConfig, path: Path):
    """One ``name = value`` line per field, the format ``--config`` reads."""
    lines = [f"{f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestConfig:
    def test_roundtrip(self, tmp_path):
        cfg = ExperimentConfig(family="lsv0", alpha=3.0, grid=128, ntrunc=500,
                               nmax=250, beta=0.7, out=str(tmp_path))
        f = tmp_path / "exp.cfg"
        write_config(cfg, f)
        back = ExperimentConfig.from_file(f)
        from renewalops.cli import _coerce

        assert _coerce(back) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("nonsense = 1\n")
        assert main(["contour", "--config", str(f), "--out", str(tmp_path)]) == 2

    def test_config_not_utf8_rejected(self, tmp_path, capsys):
        f = tmp_path / "exp.cfg"
        f.write_bytes(b"beta = 0.5\n\xff\n")
        assert main(["contour", "--config", str(f), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_flags_override_file(self, tmp_path):
        f = tmp_path / "exp.cfg"
        write_config(ExperimentConfig(beta=0.3, out=str(tmp_path)), f)
        rc = main(["contour", "--config", str(f), "--check", "B2", "--beta", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 0
        meta = json.loads(read(tmp_path / "contour_meta.json"))
        assert meta["config"]["beta"] == 0.5

    def test_file_only_run_writes_the_flag_run_body(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("family = lsv\nalpha = 2\nn = 40\ngrid = 64\n", encoding="utf-8")
        assert main(["tails", "--config", str(f), "--out", str(tmp_path / "file")]) == 0
        assert main(["tails", "--family", "lsv", "--alpha", "2", "--n", "40", "--grid", "64",
                     "--out", str(tmp_path / "flags")]) == 0
        assert read(tmp_path / "file" / "tails.csv") == read(tmp_path / "flags" / "tails.csv")

    def test_flag_wins_over_the_file_in_the_csv(self, tmp_path):
        f = tmp_path / "exp.cfg"
        f.write_text("beta = 0.9\nnmax = 3000\n", encoding="utf-8")
        assert main(["renewal", "--config", str(f), "--nmax", "200",
                     "--out", str(tmp_path / "both")]) == 0
        assert main(["renewal", "--beta", "0.9", "--nmax", "200",
                     "--out", str(tmp_path / "flags")]) == 0
        body = read(tmp_path / "both" / "renewal.csv")
        assert body == read(tmp_path / "flags" / "renewal.csv")
        assert body.splitlines()[-1].startswith("200,")


class TestExitCodes:
    def test_validation_failure(self, tmp_path, capsys):
        bad_flags = [["contour", "--beta", "1.5"], ["kernel", "--gamma", "0.7"],
                     ["polys", "--epsilon", "0"], ["polys", "--degrees", "a"],
                     ["polys", "--degrees", "4,1"]]
        # argparse's choices catch these values as flags, but not from a file
        bad_lines = ["family = foo", "check = B9"]
        for argv in bad_flags:
            assert main(argv + ["--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err.startswith("error: ")
        for line in bad_lines:
            f = tmp_path / "bad.cfg"
            f.write_text(line + "\n")
            assert main(["contour", "--config", str(f), "--out", str(tmp_path)]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    def test_out_through_a_file_rejected(self, tmp_path, capsys, under):
        taken = tmp_path / "taken"
        taken.write_text("")
        out = taken / "sub" if under else taken
        assert main(["contour", "--check", "B2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [["renewal"], ["kernel"],
                                      ["dual-ergodic", "--grid", "32", "--ntrunc", "200"]],
                             ids=["renewal", "kernel", "dual-ergodic"])
    def test_huge_nmax_fails_with_advice_before_allocating(self, tmp_path, argv):
        # under a 3 GiB address-space cap an nmax-sized allocation would end
        # in a MemoryError traceback, not the guard's advice
        cap = 3 << 30
        code = (f"import resource, runpy; resource.setrlimit(resource.RLIMIT_AS, ({cap}, {cap})); "
                "runpy.run_module('renewalops', run_name='__main__')")
        src = str(Path(renewalops.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run([sys.executable, "-c", code, *argv, "--nmax", str(10**11),
                               "--out", str(tmp_path)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 1, done.stderr
        assert "lower nmax" in done.stderr and "Traceback" not in done.stderr

    @pytest.mark.parametrize("argv, option", [
        (["tails", "--n", "200"], "n"),
        (["dual-ergodic"], "ntrunc"),
        (["kernel", "--ntrunc", "10"], "nmax"),
        (["kernel", "--ntrunc", "3000"], "ntrunc"),
    ], ids=["tails", "dual-ergodic", "kernel-nmax", "kernel-ntrunc"])
    def test_assembly_size_advice_names_the_truncation_option(self, tmp_path, capsys,
                                                              monkeypatch, argv, option):
        # kernel's own check (nmax 1000) passes; the 2 MiB block sum of grid 512 does not
        limit = (cli._RENEWAL_STEP_BYTES + cli._DEFECT_STEP_BYTES) * 1001
        monkeypatch.setattr(errors, "BYTE_LIMIT", limit)
        assert main(argv + ["--grid", "512", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: assembly on 512 cells"), err
        assert err.endswith(f"; lower grid or {option}\n"), err

    @pytest.mark.parametrize("argv, option", [
        (["tails", "--n", "64"], "n"),
        # tails assembles at n_trunc = 64 for any n up to 64
        (["tails", "--n", "5"], "n above 64"),
        (["dual-ergodic", "--ntrunc", "3", "--nmax", "5"], "ntrunc"),
        (["kernel", "--ntrunc", "3", "--nmax", "5"], "nmax"),
        (["kernel", "--ntrunc", "600", "--nmax", "5"], "ntrunc"),
    ], ids=["tails", "tails-below-floor", "dual-ergodic", "kernel-nmax", "kernel-ntrunc"])
    def test_mass_deficit_advice_names_the_truncation_option(self, tmp_path, capsys,
                                                             argv, option):
        # beta = 1/8: more than the 0.15 bound of invariant mass returns after these
        # truncations (64 for tails, max(ns) + 1 = 501 or ntrunc for kernel)
        assert main(argv + ["--alpha", "8", "--grid", "8", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: mass deficit"), err
        assert err.endswith(f"; raise {option}\n"), err

    @pytest.mark.parametrize("argv", [
        # the first refinement needs 2 * 528,392 panels over [1, 830000] at rate 1
        ["--check", "B1", "--beta", "0.5", "--nmax", "830000"],
        # and 2 * 1,451,178 over [0, (3e8)^(3/4)]; the cap is 2**20
        ["--check", "B3", "--nmax", "300000000"],
    ], ids=["B1", "B3"])
    def test_contour_past_the_panel_cap_advises_lower_nmax(self, tmp_path, capsys, argv):
        assert main(["contour"] + argv + ["--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: oscillatory quadrature over "), err
        assert err.endswith("; lower nmax\n") and err.count("\n") == 1, err
        assert not (tmp_path / "contour.csv").exists()

    def test_tails_size_advice_below_the_floor_leaves_n_out(self, tmp_path, capsys,
                                                             monkeypatch):
        # the 32 KiB block sum of grid 64 is above 16 KiB; lowering n below 64 frees nothing
        monkeypatch.setattr(errors, "BYTE_LIMIT", 1 << 14)
        assert main(["tails", "--n", "5", "--grid", "64", "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: assembly on 64 cells"), err
        assert err.endswith("; lower grid\n"), err

    def test_lsv0_norming_at_n_1_refused(self, tmp_path, capsys):
        # a_n = 1 / m(n) with m(n) a multiple of log n: undefined at n = 1
        argv = ["dual-ergodic", "--family", "lsv0", "--grid", "32", "--ntrunc", "50"]
        assert main(argv + ["--nmax", "1", "--out", str(tmp_path / "1")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: a_n is undefined at n = 1") and err.count("\n") == 1
        assert not (tmp_path / "1" / "dual_ergodic.csv").exists()
        assert main(argv + ["--nmax", "2", "--out", str(tmp_path / "2")]) == 0
        header, row = read(tmp_path / "2" / "dual_ergodic.csv").splitlines()
        assert header == "n,a_n,sup_error,expansion_residual,error_bar"
        n, a_n, sup_error, placeholder, error_bar = row.split(",")
        assert n == "2" and placeholder == "nan"
        assert float(a_n) == pytest.approx(23.864113019531441, rel=1e-12)
        assert float(sup_error) == pytest.approx(0.95809607509059358, rel=1e-9)
        assert float(error_bar) == pytest.approx(0.99999999999965883, rel=1e-12)

    def test_lsv0_norming_refusal_advises_raising_nmax(self, tmp_path, capsys):
        argv = ["dual-ergodic", "--family", "lsv0", "--grid", "32", "--ntrunc", "50"]
        assert main(argv + ["--nmax", "1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "error: a_n is undefined at n = 1, where m(n) = 0; raise nmax above 1\n"

    @pytest.mark.parametrize("argv, advice", [
        (["renewal", "--beta", "0.99995"], "lower beta"),
        # refused before the grid-1024 assembly, which would take seconds
        (["dual-ergodic", "--alpha", "1.00001", "--grid", "1024"], "raise alpha"),
    ], ids=["renewal", "dual-ergodic"])
    def test_expansion_past_its_term_cap_advises_the_flag(self, tmp_path, capsys, argv, advice):
        assert main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the expansion at beta=") and err.count("\n") == 1, err
        assert err.endswith(f"terms, above 10000; {advice}\n"), err
        assert not list(tmp_path.iterdir())

    def test_lsv0_kernel_at_nmax_1_runs(self, tmp_path):
        # kernel reads no norming, and its report times stay at 100 and 500
        assert main(["kernel", "--family", "lsv0", "--nmax", "1", "--out", str(tmp_path)]) == 0
        ns = [line.split(",")[1] for line in read(tmp_path / "kernel.csv").splitlines()[1:]]
        assert ns == ["100", "500"]

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_success(self, tmp_path):
        assert main(["contour", "--check", "B2", "--beta", "0.5",
                     "--out", str(tmp_path)]) == 0


class TestOutputs:
    def test_contour_schema_and_value(self, tmp_path):
        main(["contour", "--check", "B2", "--beta", "0.5", "--out", str(tmp_path)])
        lines = read(tmp_path / "contour.csv").splitlines()
        assert lines[0] == "check,parameter,computed,closed_form,abs_error,error_bar"
        fields = lines[1].split(",")
        assert abs(float(fields[2]) - 2.6081973286931688) < 1e-9

    def test_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        main(["polys", "--epsilon", "0.5", "--degrees", "4,8", "--out", str(a)])
        main(["polys", "--epsilon", "0.5", "--degrees", "4,8", "--out", str(b)])
        assert read(a / "polys.csv") == read(b / "polys.csv")

    def test_tails_schema(self, tmp_path):
        main(["tails", "--family", "lsv", "--alpha", "2", "--n", "50",
              "--grid", "128", "--out", str(tmp_path)])
        lines = read(tmp_path / "tails.csv").splitlines()
        assert lines[0] == "n,x_n,y_n,tail_prob,asymptote_ratio,error_bar"
        assert len(lines) == 51
        first = lines[1].split(",")
        assert float(first[1]) == 0.5 and float(first[2]) == 0.75

    def test_plot_script_emitted_not_executed(self, tmp_path):
        main(["tails", "--family", "lsv", "--alpha", "2", "--n", "20",
              "--grid", "64", "--out", str(tmp_path)])
        script = tmp_path / "plot_tails.py"
        assert script.exists()
        assert "matplotlib" in read(script)
        assert not list(tmp_path.glob("*.png"))

    def test_sidecar_carries_timestamp_not_csv(self, tmp_path):
        main(["contour", "--check", "B2", "--beta", "0.5", "--out", str(tmp_path)])
        meta = json.loads(read(tmp_path / "contour_meta.json"))
        assert "generated_at" in meta
        assert "generated" not in read(tmp_path / "contour.csv")

    def test_kernel_schema(self, tmp_path):
        rc = main(["kernel", "--family", "lsv", "--alpha", "2", "--grid", "256",
                   "--ntrunc", "600", "--nmax", "100", "--gamma", "0.4",
                   "--out", str(tmp_path)])
        assert rc == 0
        lines = read(tmp_path / "kernel.csv").splitlines()
        assert lines[0].startswith("sequence,n,extract,direct,rel_err")

    def test_dual_ergodic_rows_stop_at_nmax(self, tmp_path):
        # the log-spaced report times start at n = 10, above an nmax of 3
        main(["dual-ergodic", "--grid", "64", "--ntrunc", "200", "--nmax", "3",
              "--out", str(tmp_path)])
        ns = [int(line.split(",")[0])
              for line in read(tmp_path / "dual_ergodic.csv").splitlines()[1:]]
        assert ns[-1] == 3 and max(ns) <= 3

    @pytest.mark.parametrize("argv", [
        ["tails", "--n", "20", "--grid", "64"],
        ["renewal", "--beta", "0.75", "--nmax", "100"],
        ["dual-ergodic", "--grid", "32", "--ntrunc", "200", "--nmax", "50"],
        ["kernel", "--family", "lsv0", "--nmax", "10"],
        ["contour", "--check", "B2"],
        ["polys", "--epsilon", "0.5", "--degrees", "4"],
    ], ids=lambda argv: argv[0])
    def test_csv_header(self, tmp_path, argv):
        assert main(argv + ["--out", str(tmp_path)]) == 0
        header = read(tmp_path / f"{argv[0].replace('-', '_')}.csv").splitlines()[0]
        assert header == ",".join(HEADERS[argv[0]])

    def test_renewal_evaluates_the_expansion_once(self, tmp_path):
        # 9,998 terms at beta = 0.9999: one evaluation over every report time
        # autospec binds self; its mock calls the real method through side_effect
        with mock.patch.object(AsymptoticExpansion, "eval_raw", autospec=True,
                               side_effect=AsymptoticExpansion.eval_raw) as spy:
            assert main(["renewal", "--beta", "0.9999", "--nmax", "300",
                         "--out", str(tmp_path)]) == 0
        assert spy.call_count == 1
        rows = read(tmp_path / "renewal.csv").splitlines()[1:]
        assert len(spy.call_args.args[1]) == len(rows)

    @pytest.mark.parametrize("argv, evaluations", [
        (["dual-ergodic", "--grid", "64", "--ntrunc", "200", "--nmax", "100"], 1),
        (["kernel", "--family", "lsv", "--grid", "64", "--nmax", "500"], 1),
        # the assembly's table and the CLI's own orbit
        (["tails", "--family", "lsv", "--grid", "64", "--n", "100"], 2),
    ], ids=["dual-ergodic", "kernel", "tails"])
    def test_tail_table_is_evaluated_once_per_assembly(self, tmp_path, argv, evaluations):
        with mock.patch.object(GridObservable, "cumulative_at", autospec=True,
                               side_effect=GridObservable.cumulative_at) as spy:
            assert main(argv + ["--out", str(tmp_path)]) == 0
        assert spy.call_count == evaluations

    @pytest.mark.parametrize("check", ["B1", "B2", "B3"])
    def test_contour_error_bar_covers_the_error_at_the_defaults(self, tmp_path, check):
        assert main(["contour", "--check", check, "--out", str(tmp_path)]) == 0
        row = dict(zip(*(line.split(",") for line in
                         read(tmp_path / "contour.csv").splitlines())))
        assert float(row["abs_error"]) <= float(row["error_bar"])

    def test_renewal_float_format(self, tmp_path):
        main(["renewal", "--beta", "0.6", "--nmax", "2000", "--out", str(tmp_path)])
        lines = read(tmp_path / "renewal.csv").splitlines()
        # 17 significant digits on at least one float field
        sample = lines[-1].split(",")[2]
        assert len(sample.replace(".", "").replace("-", "").lstrip("0")) >= 16


@pytest.mark.parametrize("argv, csv", [
    (["tails", "--family", "lsv0", "--n", "100", "--grid", "128"], "tails.csv"),
    (["dual-ergodic", "--alpha", "2", "--grid", "128", "--ntrunc", "400", "--nmax", "300"],
     "dual_ergodic.csv"),
    # j_direct is 128 by default, so the FFT kernel groups for lags 128..800 launch
    (["dual-ergodic", "--alpha", "2", "--grid", "128", "--ntrunc", "800", "--nmax", "800"],
     "dual_ergodic.csv"),
    # the majorant's gap sums 16,385 Chebyshev terms
    (["polys", "--epsilon", "0.1", "--degrees", "4"], "polys.csv"),
    # the 1,024-lag groups launch over several row ranges of their 512 rows
    (["dual-ergodic", "--alpha", "1.6667", "--grid", "512", "--ntrunc", "2500",
      "--nmax", "2500"], "dual_ergodic.csv"),
])
def test_csv_bodies_do_not_depend_on_thread_count(tmp_path, argv, csv):
    src = str(Path(renewalops.__file__).resolve().parents[1])
    bodies = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items() if k != "MKL_NUM_THREADS"}
        # the bundled OpenBLAS reads either variable: set both
        env["OMP_NUM_THREADS"] = env["OPENBLAS_NUM_THREADS"] = threads
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = tmp_path / threads
        subprocess.run([sys.executable, "-m", "renewalops", *argv, "--out", str(out)],
                       env=env, check=True, timeout=300)
        bodies.append(read(out / csv))
    assert bodies[0] == bodies[1]


FOOTPRINT_SCRIPT = """
import sys
from pathlib import Path

TAUBERIAN_ONLY = ("scipy.optimize", "scipy.fft", "scipy.special", "scipy.linalg",
                  "renewalops.tauberian")
out = Path(sys.argv[1])
import renewalops.cli as cli
assert not [m for m in TAUBERIAN_ONLY if m in sys.modules], "import renewalops.cli"
for argv in (["tails", "--n", "100"], ["renewal", "--nmax", "1000"],
             ["dual-ergodic", "--ntrunc", "200", "--nmax", "100"]):
    assert cli.main(argv + ["--grid", "32", "--out", str(out / argv[0])]) == 0, argv
    loaded = [m for m in TAUBERIAN_ONLY if m in sys.modules]
    assert not loaded, (argv[0], loaded)
assert cli.main(["kernel", "--family", "lsv0", "--nmax", "10", "--out",
                 str(out / "kernel")]) == 0
import renewalops
import scipy.optimize
assert renewalops.tauberian.linprog is scipy.optimize.linprog
assert renewalops.indicator_majorant is renewalops.tauberian.indicator_majorant
print("ok")
"""


def test_operator_subcommands_never_load_the_tauberian_layer(tmp_path):
    """A fresh process loads ``scipy.optimize`` and its kin only at ``kernel``."""
    src = str(Path(renewalops.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["ok"]


# the flags each subcommand reads, besides --out and --config
READS = {
    "tails": {"family", "alpha", "grid", "n"},
    "renewal": {"beta", "nmax"},
    "dual-ergodic": {"family", "alpha", "grid", "ntrunc", "nmax"},
    "kernel": {"family", "alpha", "grid", "ntrunc", "nmax", "gamma"},
    "contour": {"check", "beta", "rho", "gamma", "nmax"},
    "polys": {"epsilon", "degrees"},
}
FLAGS = {f.name for f in fields(ExperimentConfig)} - {"experiment", "out"}
# columns that hold nan where a quantity is not computed
PLACEHOLDERS = {"renewal": {"error_bar"}, "dual-ergodic": {"expansion_residual"}}
PLOTTED = {"tails", "renewal", "dual-ergodic", "kernel"}
# small sizes, with the edges of each parameter's domain and values just outside it
VALUES = {
    "family": st.sampled_from(["lsv", "lsv0"]),
    "alpha": st.sampled_from([0.5, 1.0, 1.0001, 1.5, 2.0, 8.0, 40.0]) | st.floats(1.0, 10.0),
    "grid": st.integers(1, 96),
    "ntrunc": st.integers(1, 400),
    "nmax": st.integers(1, 400),
    "n": st.integers(1, 400),
    "beta": st.sampled_from([-0.1, 0.0, 1e-3, 0.5, 0.5001, 0.75, 0.999, 1.0, 1.5])
    | st.floats(0.0, 1.0),
    "gamma": st.sampled_from([0.0, 1e-3, 0.25, 0.4999, 0.5]) | st.floats(1e-3, 0.499),
    "rho": st.sampled_from([-1.0, 0.0, 1e-3, 0.5, 1.0, 2.0]),
    "check": st.sampled_from(["B1", "B2", "B3"]),
    "epsilon": st.sampled_from([-1.0, 0.0, 0.05, 0.1, 0.5, 1.0, 5.0]),
    "degrees": st.lists(st.sampled_from(["x", "1", "2", "3", "4", "8", "16"]),
                        max_size=3).map(",".join),
}
# errors.BYTE_LIMIT values, from one that refuses every guarded size to 128 MiB
BYTE_LIMITS = [1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 27]


@st.composite
def cli_cases(draw):
    """A subcommand, every flag it reads split between argv and a config file, and a byte limit.

    ``entries`` holds the file's ``key = value`` lines; with none, no file is passed.
    """
    sub = draw(st.sampled_from(sorted(READS)))
    argv, entries = [sub], []
    for flag in sorted(READS[sub]):
        value = draw(VALUES[flag])
        if draw(st.booleans()):
            entries.append(f"{flag} = {value}")
        else:
            argv.append(f"--{flag}={value}")
    return argv, entries, draw(st.sampled_from(BYTE_LIMITS))


@pytest.mark.slow
@settings(max_examples=150, derandomize=True, deadline=None)
@given(cli_cases())
@example((["dual-ergodic", "--family=lsv0", "--alpha=2", "--grid=32", "--ntrunc=50",
           "--nmax=1"], [], 1 << 27))
@example((["tails", "--family=lsv", "--alpha=8", "--grid=8", "--n=5"], [], 1 << 27))
@example((["tails", "--n=5"], ["family = lsv", "alpha = 8", "grid = 64"], 1 << 14))
def test_cli_configuration_space(case):
    argv, entries, limit = case
    sub = argv[0]
    drawn = dict(a[2:].split("=", 1) for a in argv[1:]) | dict(e.split(" = ", 1) for e in entries)
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(errors, "BYTE_LIMIT", limit):
        out = Path(tmp) / "out"
        if entries:
            config = Path(tmp) / "exp.cfg"
            config.write_text("\n".join(entries) + "\n", encoding="utf-8")
            argv = argv + [f"--config={config}"]
        with contextlib.redirect_stderr(err):
            code = main(argv + [f"--out={out}"])
        written = {p.name for p in out.glob("*")}
        csv = read(out / f"{sub.replace('-', '_')}.csv") if code == 0 else ""
    assert code in (0, 1, 2)
    lines = err.getvalue().splitlines()
    if code:
        prefix = "error: " if code == 2 else "numeric failure: "
        assert len(lines) == 1 and lines[0].startswith(prefix), lines
        _, sep, advice = lines[0].rpartition("; ")
        named = set(re.findall(r"\w+", advice)) & FLAGS if sep else set()
        assert named <= READS[sub], (lines[0], named - READS[sub])
        assert written == set()
        return
    assert lines == []
    name = sub.replace("-", "_")
    expect = {f"{name}.csv", f"{name}_meta.json"}
    assert written == (expect | {f"plot_{name}.py"} if sub in PLOTTED else expect)
    header, *rows = [line.split(",") for line in csv.splitlines()]
    assert header == HEADERS[sub]
    assert rows
    for row in rows:
        for col, cell in zip(header, row, strict=True):
            assert cell not in ("inf", "-inf"), (col, row)
            assert cell != "nan" or col in PLACEHOLDERS.get(sub, ()), (col, row)
    bound = {"renewal": "nmax", "dual-ergodic": "nmax", "tails": "n"}.get(sub)
    if bound:
        assert max(int(row[0]) for row in rows) <= int(drawn[bound])
