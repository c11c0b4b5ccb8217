"""Record the seed-0 reference CSVs that ``checks.py`` compares against.

    python3 bench/record_reference.py

Runs each workload once at seed 0 and copies every
CSV to ``reference/<workload>/<label>.csv``.  Re-record only when a change
is meant to alter the numbers, and say why in that change.
"""

from __future__ import annotations

import shutil
import sys
import time

import checks
import run
import workloads


def main() -> int:
    for workload in workloads.WORKLOADS:
        invocations = workloads.build(workload, 0)
        workdir = run.WORK / f"reference-{workload}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        try:
            _, result, outdirs = run.run_invocations(
                invocations, workdir, "plain", False, time.perf_counter() + run.RUN_LIMIT_S)
            if any(code != 0 for code in result["codes"]):
                print(f"{workload}: exit codes {result['codes']}", file=sys.stderr)
                return 1
            target = checks.REFERENCE / workload
            target.mkdir(parents=True, exist_ok=True)
            for inv, outdir in zip(invocations, outdirs):
                shutil.copyfile(checks.csv_path(inv, outdir), target / f"{inv.label}.csv")
            print(f"{workload}: {len(invocations)} reference CSVs in {target}")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
