import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import renewalops
from renewalops.cli import ExperimentConfig, main


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

        assert _coerce(ExperimentConfig, back) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        f = tmp_path / "bad.cfg"
        f.write_text("nonsense = 1\n")
        assert main(["contour", "--config", str(f), "--out", str(tmp_path)]) == 2

    def test_flags_override_file(self, tmp_path):
        f = tmp_path / "exp.cfg"
        write_config(ExperimentConfig(beta=0.3, out=str(tmp_path)), f)
        rc = main(["contour", "--config", str(f), "--check", "B2", "--beta", "0.5",
                   "--out", str(tmp_path)])
        assert rc == 0
        meta = json.loads(read(tmp_path / "contour_meta.json"))
        assert meta["config"]["beta"] == 0.5


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
])
def test_csv_bodies_do_not_depend_on_thread_count(tmp_path, argv, csv):
    src = str(Path(renewalops.__file__).resolve().parents[1])
    bodies = []
    for threads in ("1", "2"):
        env = {k: v for k, v in os.environ.items()
               if k not in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
        env["OMP_NUM_THREADS"] = threads
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
