"""renewalops benchmark runner (standard library only).

    python3 bench/run.py --workload de-lsv0 --seed 0 --seconds 40 --trace 0

Run from the repository root.  A run repeats the workload's CLI
invocations, each repetition in a fresh child process with BLAS and OpenMP
pools pinned to one thread, one process at a time, until ``--seconds``
have passed and at least ``MIN_REPS`` repetitions are done.  Every
repetition's outputs are checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics: ``experiment_s`` (first
``cli.main`` call to last return), ``setup_s`` (process start until
``renewalops.cli`` is imported) and ``peak_rss_mb`` (the child's
``ru_maxrss``), each the median over the repetitions; ``setup_s`` also
takes bare import probes, so it has at least ``MIN_SETUPS`` samples.  The
two times are rescaled to a reference host speed with ``calibrate.py``:
set-up by a kernel timed right after it, the experiment by kernel bursts
timed during it, whose own time is taken out.  The host this runs on
changes speed by up to 2x over minutes; the rescaled times follow the
program, the raw ones the other tenants (see README.md).  ``--trace 1``
makes each repetition an untraced and a traced process, and reports the
per-layer metrics of the fastest traced repetition plus
``trace.overhead_frac``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it print each
metric with its unit, ``failed_ops_frac`` and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate
import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
MIN_REPS = 3
MIN_SETUPS = 5
RUN_LIMIT_S = 170.0



def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of BENCHMARK.json's ``end_to_end`` or ``per_layer`` metrics."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


class ChildFailed(RuntimeError):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(spec: dict, spec_path: Path, deadline: float) -> tuple[float, dict]:
    """Start child.py on ``spec``; return (set-up seconds, the child's JSON result)."""
    spec = dict(spec, src=str(SRC))
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    log_path = spec_path.with_suffix(".log")
    with log_path.open("w", encoding="utf-8") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), str(spec_path)],
            stdout=subprocess.PIPE, stderr=log, cwd=ROOT, env=_child_env(),
            bufsize=0,  # unbuffered, so readline takes no bytes communicate must see
        )
        try:
            first = proc.stdout.readline()
            ready_at = time.perf_counter()
            rest, _ = proc.communicate(timeout=max(deadline - ready_at, 0.0))
        except subprocess.TimeoutExpired:
            raise ChildFailed(
                f"child still running at the {RUN_LIMIT_S:.0f} s run limit") from None
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    lines = (first + rest).decode("utf-8", "replace").splitlines()
    if proc.returncode != 0 or not lines or lines[0] != "ready":
        tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise ChildFailed(f"child exited with {proc.returncode}:\n{tail}")
    return ready_at - start, json.loads(lines[-1])


def run_invocations(invocations, workdir: Path, tag: str, trace: bool, deadline: float):
    """Run the invocations in one child; return (set-up seconds, result, output dirs)."""
    outdirs = [workdir / tag / inv.label for inv in invocations]
    spec = {"trace": trace,
            "invocations": [{"argv": list(inv.argv), "out": str(d)}
                            for inv, d in zip(invocations, outdirs)]}
    setup_s, result = run_child(spec, workdir / f"{tag}.json", deadline)
    return setup_s, result, outdirs


def failures(invocations, result: dict, outdirs, workload, seed: int) -> dict[str, str]:
    """Label -> reason for each failed invocation: nonzero exit or failed output check."""
    out = {}
    for inv, code, outdir in zip(invocations, result["codes"], outdirs):
        problems = [f"exit code {code}"] if code != 0 else checks.check(inv, outdir, workload, seed)
        if problems:
            out[inv.label] = "; ".join(problems[:5])
    return out


def csv_mismatches(invocations, dirs_a, dirs_b) -> dict[str, str]:
    """Label -> reason for each invocation whose two CSVs are not byte-identical."""
    out = {}
    for inv, a, b in zip(invocations, dirs_a, dirs_b):
        path_a, path_b = checks.csv_path(inv, a), checks.csv_path(inv, b)
        if not (path_a.is_file() and path_b.is_file()
                and path_a.read_bytes() == path_b.read_bytes()):
            out[inv.label] = "traced CSV differs from untraced"
    return out


def setup_scale(result: dict) -> float:
    """Factor that rescales a child's set-up time to the reference host speed."""
    return calibrate.scale(result["ready_kernel_s"], calibrate.SNAPSHOT_ROUNDS)


def experiment_scale(result: dict) -> float:
    """Factor that rescales a child's experiment time to the reference host speed."""
    bursts = result["bursts_s"]
    if not bursts:  # an experiment shorter than one sampling interval
        return setup_scale(result)
    return calibrate.scale(statistics.median(bursts), calibrate.BURST_ROUNDS)


def scaled_experiment_s(result: dict) -> float:
    """The experiment time without the sampler's bursts, at the reference host speed."""
    return (result["experiment_s"] - sum(result["bursts_s"])) * experiment_scale(result)


def environment(versions: dict) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        **versions,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": THREADS,
        "git_commit": git_commit(),
        "platform": platform.platform(),
    }


def git_commit() -> str:
    """HEAD of the repository the benchmark sits in, or 'unknown' outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def measure(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    """One benchmark run; returns the printed report.

    Repetitions of the workload run one after another, each in a fresh
    process, until ``seconds`` have passed and at least ``MIN_REPS`` are
    done.  With ``trace`` each repetition is an untraced and a traced
    process.  Every repetition's outputs are checked.
    """
    run_start = time.perf_counter()
    deadline = run_start + RUN_LIMIT_S
    invocations = workloads.build(workload, seed)
    modes = ("plain", "traced") if trace else ("plain",)
    reps: dict[str, list[tuple[float, dict]]] = {mode: [] for mode in modes}
    failed: dict[str, str] = {}
    errors: list[str] = []
    longest = 0.0
    while len(reps["plain"]) < MIN_REPS or (
            time.perf_counter() - run_start < seconds
            and time.perf_counter() + longest < deadline - 10):
        rep_start = time.perf_counter()
        dirs = {}
        for mode in modes:
            tag = f"{mode}{len(reps[mode])}"
            setup_s, result, dirs[mode] = run_invocations(
                invocations, workdir, tag, mode == "traced", deadline)
            reps[mode].append((setup_s, result))
            problems = failures(invocations, result, dirs[mode], workload, seed)
            if mode == "traced":
                for label, why in csv_mismatches(invocations, dirs["plain"], dirs[mode]).items():
                    problems[label] = "; ".join(filter(None, [problems.get(label), why]))
                if not result["restored"]:
                    errors.append("tracing left patched names in place")
            failed.update({f"{label} ({tag})": why for label, why in problems.items()})
        for mode in modes:
            shutil.rmtree(workdir / f"{mode}{len(reps[mode]) - 1}", ignore_errors=True)
        longest = max(longest, time.perf_counter() - rep_start)

    plain = [result for _, result in reps["plain"]]
    fastest = min(plain, key=lambda r: r["experiment_s"])
    scaled = statistics.median(scaled_experiment_s(r) for r in plain)
    if trace:
        traced = [result for _, result in reps["traced"]]
        values = dict(min(traced, key=lambda r: r["experiment_s"])["layers"])
        values["trace.overhead_frac"] = statistics.median(
            scaled_experiment_s(r) for r in traced) / scaled - 1.0
        kind = "per_layer"
    else:
        setups = [setup_s * setup_scale(result) for setup_s, result in reps["plain"]]
        while len(setups) < MIN_SETUPS:
            setup_s, result = run_child({"trace": False, "invocations": []},
                                        workdir / "probe.json", deadline)
            setups.append(setup_s * setup_scale(result))
        values = {"experiment_s": scaled,
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}
        kind = "end_to_end"
    metrics = {name: (values[name], unit) for name, unit in metric_units(kind).items()}
    attempted = len(invocations) * sum(len(v) for v in reps.values())
    return {"invocations": invocations, "fastest": fastest, "reps": len(plain),
            "raw_s": statistics.median(r["experiment_s"] for r in plain),
            "scale": statistics.median(experiment_scale(r) for r in plain),
            "failed": failed, "errors": errors, "attempted": attempted, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "renewalops" / "cli.py").is_file():
        print(f"error: no renewalops sources under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    failed, attempted, errors = report["failed"], report["attempted"], report["errors"]
    for label, why in failed.items():
        print(f"FAILED {label}: {why}", file=sys.stderr)
    for line in errors:
        print(f"ERROR {line}", file=sys.stderr)
    fastest = report["fastest"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{report['reps']} repetitions, fastest untraced one (unscaled):")
    for inv, took, code in zip(report["invocations"], fastest["invocation_s"], fastest["codes"]):
        print(f"  {inv.label:16s} {took:9.3f} s  exit {code}  {' '.join(inv.argv)}")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  {'unscaled experiment time (median)':34s} {report['raw_s']:.6g} s")
    print(f"  {'host speed scale (median)':34s} {report['scale']:.6g}")
    print(f"  {'failed_ops_frac':34s} {len(failed) / attempted:.6g} ({len(failed)}/{attempted})")
    print("env " + json.dumps(environment(fastest["versions"]), sort_keys=True))
    print(json.dumps({
        "correct": not failed and not errors,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in report["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
