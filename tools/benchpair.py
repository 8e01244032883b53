"""Paired benchmark rounds of two qdleak trees, with a bootstrap interval per metric.

    python3 tools/benchpair.py PARENT_ROOT CHANGE_ROOT --workload W [--pairs N]

PARENT_ROOT and CHANGE_ROOT are checkout roots (each holds perfbench/round.py
and src/). Each of the N pairs (10 by default) runs one round of each tree's
own `perfbench/round.py --workload W --seed 101` in a fresh interpreter,
with OpenBLAS/OpenMP/MKL pinned to one thread as perfbench/run.py pins them
and the CSVs written to a temporary directory; the tree that runs first
alternates from pair to pair, so a drift of the machine's speed falls on
both sides alike.

For setup_s, sweep_s, cpu_s and peak_rss_mb it prints each side's median and
quartiles, the median of the per-pair ratios change / parent, a bootstrap
95% interval of that median (RESAMPLES resamples from random.Random(0)),
and the number of pairs the change won (its value was the lower). The
verdict is faster or slower (smaller or larger for peak_rss_mb) only when
the interval excludes 1, "unresolved at ±x%" otherwise, where x is the
interval's larger distance from 1, and "too few pairs" below MIN_PAIRS.

Exit status: 1 when a round fails (a non-zero exit, or a non-zero command or
warm-up code in its report); 0 otherwise; 2 for a usage error.
"""

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

METRICS = ("setup_s", "sweep_s", "cpu_s", "peak_rss_mb")
VERDICT_WORDS = {"peak_rss_mb": ("smaller", "larger")}  # the others are times
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SEED = 101  # perfbench/run.py's default --seed
RESAMPLES = 2000
MIN_PAIRS = 5
ROUND_TIMEOUT_S = 150  # as perfbench/run.py allows one round


class RoundFailed(RuntimeError):
    pass


def run_round(root, workload, out_dir):
    """One round of `root`'s perfbench/round.py; its report, or RoundFailed."""
    env = dict(os.environ, **{var: "1" for var in BLAS_VARS})
    argv = [sys.executable, str(root / "perfbench" / "round.py"), "--workload", workload,
            "--seed", str(SEED), "--out", str(out_dir)]
    launched = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--launched", repr(launched)], cwd=root, env=env,
                              capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise RoundFailed(f"{root}: round timed out after {ROUND_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        tail = (proc.stdout + proc.stderr).strip().splitlines()[-1:] or [""]
        raise RoundFailed(f"{root}: round exited {proc.returncode}: {tail[0]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if any(report["codes"]) or any(report["warmup_codes"]):
        raise RoundFailed(f"{root}: command codes {report['codes']}, "
                          f"warm-up codes {report['warmup_codes']}")
    return report


def run_pairs(parent, change, workload, pairs, out_dir):
    """{side: [report per pair]}; pair i runs the parent first when i is even."""
    reports = {"parent": [], "change": []}
    for i in range(pairs):
        order = (("parent", parent), ("change", change))
        for side, root in order if i % 2 == 0 else order[::-1]:
            reports[side].append(run_round(root, workload, out_dir / f"pair{i}-{side}"))
        print(f"pair {i + 1}/{pairs} done", file=sys.stderr)
    return reports


def quartiles(values):
    """(q1, median, q3) of the values."""
    if len(values) == 1:
        return (values[0],) * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def pair_ratios(parent, change):
    """change / parent, pair by pair."""
    return [c / p for p, c in zip(parent, change, strict=True)]


def bootstrap_interval(ratios, resamples=RESAMPLES):
    """Bootstrap 95% interval of the median ratio, from random.Random(0)."""
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(resamples))
    return medians[round(0.025 * (resamples - 1))], medians[round(0.975 * (resamples - 1))]


def verdict(n_pairs, interval, words=("faster", "slower")):
    """The change's verdict on one metric, lower being better."""
    if n_pairs < MIN_PAIRS:
        return "too few pairs"
    lo, hi = interval
    if hi < 1.0:
        return words[0]
    if lo > 1.0:
        return words[1]
    return f"unresolved at ±{max(1.0 - lo, hi - 1.0):.1%}"


def summarize(reports):
    """One row per metric: both sides' quartiles, the ratio, its interval, wins, verdict."""
    rows = []
    for metric in METRICS:
        parent, change = ([r[metric] for r in reports[side]] for side in ("parent", "change"))
        ratios = pair_ratios(parent, change)
        interval = bootstrap_interval(ratios)
        rows.append({
            "metric": metric, "parent": quartiles(parent), "change": quartiles(change),
            "ratio": statistics.median(ratios), "interval": interval,
            "won": sum(c < p for p, c in zip(parent, change)), "pairs": len(ratios),
            "verdict": verdict(len(ratios), interval,
                               VERDICT_WORDS.get(metric, ("faster", "slower"))),
        })
    return rows


def format_row(row):
    def side(q):
        q1, med, q3 = q
        return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"
    lo, hi = row["interval"]
    return (f"{row['metric']:<12}  {side(row['parent']):<26}  {side(row['change']):<26}  "
            f"{row['ratio']:<6.3f}  [{lo:.3f}, {hi:.3f}]  {row['won']:>2}/{row['pairs']:<2}  "
            f"{row['verdict']}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_root", type=Path)
    ap.add_argument("change_root", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    roots = [root.resolve() for root in (args.parent_root, args.change_root)]
    for root in roots:
        if not (root / "perfbench" / "round.py").is_file():
            ap.error(f"{root} holds no perfbench/round.py")

    with tempfile.TemporaryDirectory(prefix="benchpair-") as tmp:
        try:
            reports = run_pairs(*roots, args.workload, args.pairs, Path(tmp))
        except RoundFailed as exc:
            print(f"benchpair: {exc}", file=sys.stderr)
            return 1

    print(f"workload {args.workload}, {args.pairs} pairs, ratio = change / parent")
    print(f"parent {roots[0]}\nchange {roots[1]}")
    print(f"{'metric':<12}  {'parent median [q1, q3]':<26}  {'change median [q1, q3]':<26}  "
          f"{'ratio':<6}  {'95% interval':<14}  {'won':<5}  verdict")
    for row in summarize(reports):
        print(format_row(row))
    return 0


if __name__ == "__main__":
    sys.exit(main())
