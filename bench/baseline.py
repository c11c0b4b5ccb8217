"""Run the benchmark over several seeds and record a BENCH_<label>.json summary.

    python3 bench/baseline.py --label seed

For each workload: ``RUNS`` untraced runs with seeds 0, 1, ..., then
``TRACED`` traced runs of seed 0, each ``run_seconds`` (BENCHMARK.json) long.  The summary keeps every run's metrics,
the median, quartiles and spread (interquartile range over the median) of
each end-to-end metric, the median of each per-layer metric, whether the
per-layer counts repeated exactly, and the environment.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
RUNS = 10
TRACED = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, environment) of one ``run.py`` invocation."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=BENCH.parent, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    seconds = json.loads((run.ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    summary = {"label": args.label, "seconds": seconds,
               "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()), "workloads": {}}
    for workload in workloads.WORKLOADS:
        runs, traced = [], []
        for seed in range(RUNS):
            result, env = one_run(workload, seed, seconds, 0)
            runs.append({"seed": seed, **result})
            print(workload, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  "correct" if result["correct"] else "INCORRECT", flush=True)
        for _ in range(TRACED):
            result, env = one_run(workload, 0, seconds, 1)
            traced.append({"seed": 0, **result})
        summary["environment"] = env
        entry = {"runs": runs, "traced_runs": traced,
                 "all_correct": all(r["correct"] for r in runs + traced)}
        entry["end_to_end"] = {
            name: {"unit": runs[0]["metrics"][name]["unit"],
                   **summarize([r["metrics"][name]["value"] for r in runs])}
            for name in runs[0]["metrics"]}
        entry["per_layer"] = {
            name: {"unit": unit,
                   "median": statistics.median(r["metrics"][name]["value"] for r in traced)}
            for name, unit in run.metric_units("per_layer").items()}
        entry["counts_repeat"] = all(
            r["metrics"][name]["value"] == traced[0]["metrics"][name]["value"]
            for r in traced for name in spans.COUNTS)
        summary["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:13s} {name:13s} median {stats['median']:.4g} {stats['unit']}"
                  f"  spread {stats['spread']:.3%}", flush=True)
    out = BENCH / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
