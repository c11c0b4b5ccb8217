"""Run renewalops CLI invocations in this fresh process and report as JSON.

Usage: python3 bench/child.py SPEC.json

SPEC holds ``src`` (the package's source directory), ``trace`` (bool) and
``invocations`` (a list of {"argv": [...], "out": dir}).  The process prints
``ready`` once ``renewalops.cli`` is imported, so the parent can time
set-up to that line, and times the calibration kernel (``calibrate.py``).
It then runs every invocation through ``renewalops.cli.main`` under a
``calibrate.Sampler`` and prints one JSON line with the kernel time, the
sampler's bursts, the experiment time (bursts included), peak RSS, exit
codes and, when traced, the per-layer metrics and whether every patched
name was restored.  A spec without invocations (a set-up probe) reports
the kernel time only.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import calibrate


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    import renewalops.cli as cli

    src = Path(spec["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"renewalops imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3
    print("ready", flush=True)
    kernel = calibrate.Kernel()  # before tracing patches numpy.fft
    ready_kernel_s = kernel.seconds(calibrate.SNAPSHOT_ROUNDS)
    if not spec["invocations"]:
        print(json.dumps({"ready_kernel_s": ready_kernel_s}), flush=True)
        return 0

    tracer = patches = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        patches = spans.install(tracer)
    codes, seconds = [], []
    try:
        with calibrate.Sampler(kernel) as sampler:
            start = time.perf_counter()
            for inv in spec["invocations"]:
                t0 = time.perf_counter()
                try:
                    code = cli.main(list(inv["argv"]) + ["--out", inv["out"]])
                except Exception:  # one failed invocation must not hide the others
                    traceback.print_exc()
                    code = -1
                seconds.append(time.perf_counter() - t0)
                codes.append(code)
            experiment_s = time.perf_counter() - start
    finally:
        if patches is not None:
            patches.restore()

    import numpy
    import scipy

    result = {
        "ready_kernel_s": ready_kernel_s,
        "bursts_s": sampler.bursts,
        "experiment_s": experiment_s,
        "invocation_s": seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": codes,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer)
        result["patched"] = patches.names()
        result["restored"] = patches.restored()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
