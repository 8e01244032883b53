"""One benchmark round in a fresh interpreter: warm up, run a workload, report.

    python3 perfbench/round.py --workload NAME --seed N --out DIR
        --launched T [--jobs N] [--trace]

The parent sets the BLAS thread variables in this process's environment and
passes the CLOCK_MONOTONIC reading taken just before it launched us, so
setup_s covers interpreter start, the qdleak import and the warm-up round.
The last stdout line is a JSON object with the round's measurements.
"""

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qdleak.cli  # noqa: E402

from workloads import WARMUP, WORKLOADS  # noqa: E402


def _cpu_seconds():
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _run_commands(commands, seed, out_dir, jobs):
    """Run each command through the CLI entry point; return exit codes."""
    codes = []
    for cmd in commands:
        try:
            code = qdleak.cli.main(cmd.argv(seed, out_dir / cmd.csv_name, jobs))
        except Exception:  # a crash fails the command's points, not the round
            traceback.print_exc()
            code = -1
        codes.append(code)
    return codes


def _environment():
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--jobs", type=int, default=1)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    warm_dir = args.out / "warmup"
    warm_dir.mkdir(parents=True, exist_ok=True)
    warm_codes = _run_commands(WARMUP, args.seed, warm_dir, 1)
    setup_s = time.monotonic() - args.launched

    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    codes = _run_commands(workload.commands, args.seed, args.out, args.jobs)
    sweep_s = time.perf_counter() - t0
    cpu_s = _cpu_seconds() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {
        "codes": codes, "warmup_codes": warm_codes,
        "setup_s": setup_s, "sweep_s": sweep_s, "cpu_s": cpu_s,
        "peak_rss_mb": peak_rss_mb, "environment": _environment(),
    }
    if tracer is not None:
        result["trace"] = tracer.summary()
        result["work"] = tracer.work
        tracer.write_spans(args.out / "spans.csv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
