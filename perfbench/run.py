"""Benchmark of the qdleak sweeps: leak curve, rejected rounds, layer depth.

    python3 perfbench/run.py --workload NAME [--seed 101] [--seconds 35] [--trace 0|1]

Run from the root of a qdleak checkout. Each round is a fresh interpreter
(perfbench/round.py) with OpenBLAS/OpenMP/MKL pinned to one thread, which
warms up and then runs the workload's qdleak commands with --jobs 1. Rounds
repeat until S seconds have passed; the metrics are medians over rounds.
Every CSV is checked by perfbench/checks.py afterwards, outside the timing.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced rounds and reports per-layer metrics of the traced ones; it
fails unless every traced call count matches the count the grids imply.
The last stdout line is the JSON result.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

from checks import CHECKS, parse_csv, program_gamma  # noqa: E402
from workloads import WARMUP, WORKLOADS  # noqa: E402

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ROUND_TIMEOUT_S = 150

END_TO_END = {"setup_s": "s", "sweep_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (traced function, what to report)
CALLS, SELF = "calls", "self_s"
PER_LAYER = [
    ("model.run_exchange", CALLS), ("model.run_exchange", SELF),
    ("linalg.apply_unitary", CALLS), ("linalg.apply_unitary", SELF),
    ("linalg.reduced_density", SELF),
    ("linalg.random_complementary_projectors", CALLS),
    ("linalg.random_complementary_projectors", SELF),
    ("model.build_interaction_chain", CALLS), ("model.build_interaction_chain", SELF),
    ("model.build_initial_state", SELF),
    ("model.decoherence_factor", CALLS), ("model.decoherence_factor", SELF),
    ("linalg.kron", CALLS), ("linalg.kron", SELF),
    ("linalg.haar_unitary", CALLS), ("linalg.haar_unitary", SELF),
    ("linalg.orthonormalize_qr", CALLS), ("linalg.orthonormalize_qr", SELF),
    ("eavesdropper.helstrom_pguess", CALLS), ("eavesdropper.helstrom_pguess", SELF),
    ("eavesdropper.nested_control_pguess", CALLS),
    ("eavesdropper.nested_control_pguess", SELF),
    ("eavesdropper.subspace_pguess", SELF),
    ("linalg.trace_norm", CALLS), ("linalg.trace_norm", SELF),
    ("experiments.run_experiment", SELF),
    ("experiments.derive_seed", CALLS),
    ("experiments.write_csv", SELF),
    ("cli.main", SELF),
]
MODULES = ("cli", "experiments", "model", "linalg", "eavesdropper")


def _git_revision():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _child_env(blas_threads):
    env = dict(os.environ)
    for var in BLAS_VARS:
        if blas_threads == "default":
            env.pop(var, None)
        else:
            env[var] = blas_threads
    return env


def run_round(workload, seed, out_dir, trace, jobs, env):
    """Run one round in a fresh interpreter; returns (report, {csv: text})."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for cmd in workload.commands:
        (out_dir / cmd.csv_name).unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "round.py"), "--workload", workload.name,
            "--seed", str(seed), "--out", str(out_dir), "--jobs", str(jobs)]
    if trace:
        argv.append("--trace")
    launched = time.monotonic()
    try:
        proc = subprocess.run(argv + ["--launched", repr(launched)], env=env,
                              capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"round timed out after {ROUND_TIMEOUT_S} s", file=sys.stderr)
        return None, {}
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None, {}
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    texts = {}
    for cmd, code in zip(workload.commands, report["codes"]):
        path = out_dir / cmd.csv_name
        if code == 0 and path.exists():
            texts[cmd.csv_name] = path.read_text(encoding="utf-8")
    return report, texts


def check_outputs(workload, seed, round_texts):
    """Failed points over all rounds; checks each distinct set of CSVs once."""
    check = CHECKS[workload.name]
    gamma = program_gamma(seed) if workload.name == "leak_curve" else None
    verdicts = {}
    failed = 0
    for texts in round_texts:
        tables = [parse_csv(texts[c.csv_name]) if c.csv_name in texts else None
                  for c in workload.commands]
        digest = hashlib.sha256(json.dumps(
            [texts.get(c.csv_name) for c in workload.commands]).encode()).hexdigest()
        if digest not in verdicts:
            verdicts[digest] = check(workload, tables, gamma)
            for key, reasons in sorted(verdicts[digest].items(), key=str):
                print(f"check failed at {key}: {'; '.join(reasons)}", file=sys.stderr)
        failed += len(verdicts[digest])
    return failed


def _layer_metrics(workload, traced, untraced):
    """Per-layer metrics (medians over traced rounds) and count mismatches."""
    expected = workload.expected_calls()
    for cmd in WARMUP:
        expected.update(cmd.expected_calls())
    mismatches = []
    for report in traced:
        seen = {name: calls for name, (calls, _) in report["trace"].items()}
        seen.update(report["work"])
        for name, want in expected.items():
            if seen.get(name) != want:
                mismatches.append(f"{name}: traced {seen.get(name)}, grid implies {want}")

    def median_of(fn):
        return statistics.median(fn(r) for r in traced)

    metrics = {}
    for name, kind in PER_LAYER:
        if kind == CALLS:
            metrics[f"{name}.calls"] = (traced[0]["trace"][name][0], "count")
        else:
            metrics[f"{name}.self_s"] = (median_of(lambda r: r["trace"][name][1]), "s")
    for name in ("linalg.apply_unitary.amplitudes", "experiments.write_csv.bytes"):
        metrics[name] = (statistics.median_low(r["work"][name] for r in traced), "count")

    def builds_per_round(r):
        t = r["trace"]
        rounds = t["model.run_exchange_pair"][0] + t["model.decoherence_factor"][0]
        return t["model.build_interaction_chain"][0] / rounds
    metrics["model.chain_builds_per_round"] = (median_of(builds_per_round), "ratio")
    for module in MODULES:
        metrics[f"{module}.self_s"] = (median_of(lambda r: sum(
            s for n, (_, s) in r["trace"].items() if n.startswith(module + "."))), "s")
    metrics["trace.overhead_s"] = (
        median_of(lambda r: r["sweep_s"]) - statistics.median(r["sweep_s"] for r in untraced),
        "s")
    return metrics, sorted(set(mismatches))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=101)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=1,
                    help="qdleak --jobs inside each round (reference figures only)")
    ap.add_argument("--blas-threads", default="1",
                    help="BLAS threads per round, or 'default' to leave them unset "
                         "(reference figures only)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "qdleak" / "__init__.py").is_file():
        print(f"no qdleak sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload]
    out_dir = OUT / workload.name
    env = _child_env(args.blas_threads)

    rounds, traced, untraced = [], [], []
    started = time.monotonic()
    while not rounds or time.monotonic() - started < args.seconds:
        for trace in ((False, True) if args.trace else (False,)):
            report, texts = run_round(workload, args.seed, out_dir, trace, args.jobs, env)
            rounds.append((report, texts))
            if report is not None:
                (traced if trace else untraced).append(report)

    ok = len(untraced) + len(traced) == len(rounds) and all(
        r["warmup_codes"] == [0] * len(WARMUP) for r in untraced + traced)
    if not ok:
        print("a round crashed or its warm-up failed", file=sys.stderr)
        return 1
    failed = check_outputs(workload, args.seed, [texts for _, texts in rounds])
    attempted = len(workload.points()) * len(rounds)

    info = {"workload": workload.name, "seed": args.seed, "rounds": len(rounds),
            "git_revision": _git_revision(),
            "environment": (untraced or traced or [{}])[0].get("environment")}
    if untraced:
        info["sweep_s"] = [round(r["sweep_s"], 4) for r in untraced]
        info["cpu_per_wall"] = [round(r["cpu_s"] / r["sweep_s"], 4) for r in untraced]
    if traced:
        info["traced_sweep_s"] = [round(r["sweep_s"], 4) for r in traced]

    if args.trace:
        metrics, mismatches = _layer_metrics(workload, traced, untraced)
        info["module_self_share"] = {
            m: round(metrics[f"{m}.self_s"][0] / sum(
                metrics[f"{k}.self_s"][0] for k in MODULES), 4) for m in MODULES}
        for line in mismatches:
            print(f"call count mismatch: {line}", file=sys.stderr)
        correct = failed == 0 and not mismatches
    else:
        metrics = {name: (statistics.median(r[name] for r in untraced), unit)
                   for name, unit in END_TO_END.items()}
        correct = failed == 0
    print(json.dumps(info))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct or not args.trace else 1


if __name__ == "__main__":
    sys.exit(main())
