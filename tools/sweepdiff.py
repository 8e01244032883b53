"""Compare the CSVs that two qdleak source trees write, command by command.

    python3 tools/sweepdiff.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are `src` directories (each holds `qdleak/`). Every
command runs at --jobs 1 and at --jobs 2, each in a fresh interpreter whose
path starts with the tree's `src`:

- the five default sweeps at --reps 5;
- at --reps 5 too, these variants of them: partial-control-table
  --control-mode subset, layers-table --eve-layer 2 --nl-grid 2,3 and
  pguess-vs-epsilon --alpha 0.3;
- every warm-up and workload command of perfbench/workloads.py, with
  perfbench's default seed.

For each CSV it prints whether the trees wrote the same bytes (at --jobs 1
and at --jobs 2), whether their row keys (every column but mean and std)
are equal, the largest |Δmean| and |Δstd| between the trees over both
--jobs, and whether each tree's --jobs 1 and --jobs 2 files agree byte for
byte.

Exit status: 1 when a command fails, row keys differ, a tree's two --jobs
outputs differ or a Δ exceeds TOL (1e-12); 0 otherwise; 2 for a usage error.
"""

import argparse
import csv
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WARMUP, WORKLOADS  # noqa: E402

DEFAULT_COMMANDS = ("decoherence-sweep", "pguess-vs-epsilon", "partial-control-table",
                    "layers-table", "conjecture-check")
REPS = 5
PERFBENCH_SEED = 101  # perfbench/run.py's default --seed
JOBS = (1, 2)
VALUE_COLUMNS = ("mean", "std")
TOL = 1e-12  # the largest |Δmean| and |Δstd| accepted

# argv: SRC then the qdleak arguments; refuses a qdleak imported from elsewhere
_RUNNER = """
import os, sys
src = os.path.realpath(sys.argv[1])
sys.path.insert(0, src)
import qdleak.cli
if not os.path.realpath(qdleak.cli.__file__).startswith(src + os.sep):
    sys.exit(f"qdleak was imported from {qdleak.cli.__file__}, not from {src}")
sys.exit(qdleak.cli.main(sys.argv[2:]))
"""


def command_table():
    """{label: argv(out_path, jobs)} for every command the diff runs."""
    table = {}

    def add(label, argv):
        if label in table:
            raise ValueError(f"two commands share the label {label!r}")
        table[label] = argv

    def qdleak_default(*args):
        return lambda out, jobs: [*args, "--reps", str(REPS), "--jobs", str(jobs),
                                  "--out", str(out)]

    for name in DEFAULT_COMMANDS:
        add(name, qdleak_default(name))
    add("partial-control-table-subset",
        qdleak_default("partial-control-table", "--control-mode", "subset"))
    add("layers-table-eve-layer-2",
        qdleak_default("layers-table", "--eve-layer", "2", "--nl-grid", "2,3"))
    add("pguess-vs-epsilon-alpha-0.3", qdleak_default("pguess-vs-epsilon", "--alpha", "0.3"))
    groups = [("warmup", WARMUP)] + [(w.name, w.commands) for w in WORKLOADS.values()]
    for group, commands in groups:
        for cmd in commands:
            add(f"perfbench-{group}-{Path(cmd.csv_name).stem}",
                lambda out, jobs, cmd=cmd: cmd.argv(PERFBENCH_SEED, out, jobs))
    return table


def run_tree(src, table, labels, jobs, out_dir):
    """Run each command against `src`; {label: CSV path, or None if it failed}."""
    out_dir.mkdir(parents=True)
    written = {}
    for label in labels:
        out = out_dir / f"{label}.csv"
        proc = subprocess.run(
            [sys.executable, "-c", _RUNNER, str(src), *table[label](out, jobs)],
            cwd=out_dir, capture_output=True, text=True)
        if proc.returncode != 0 or not out.is_file():
            tail = proc.stderr.strip().splitlines()[-1:] or [f"exit {proc.returncode}"]
            print(f"{label} (--jobs {jobs}, {src}) failed: {tail[0]}", file=sys.stderr)
            out = None
        written[label] = out
    return written


def run_jobs(src, table, labels, out_dir):
    """{jobs: run_tree's CSV paths} of `src` at each --jobs value."""
    return {j: run_tree(src.resolve(), table, labels, j, out_dir / f"jobs{j}")
            for j in JOBS}


def read_rows(path):
    """(keys, values): the header, then each row's key columns; each row's (mean, std)."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    at = [header.index(c) for c in VALUE_COLUMNS]
    keys = [tuple(header)] + [tuple(v for i, v in enumerate(r) if i not in at) for r in rows]
    return keys, [tuple(r[i] for i in at) for r in rows]


def delta(a, b):
    """|a - b| of two CSV cells: 0 if equal (NaN and blanks alike), inf if one is blank."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if math.isnan(x) and math.isnan(y):
        return 0.0
    d = abs(x - y)
    return math.inf if math.isnan(d) else d


def compare(label, parent, change):
    """One report row for `label`: {jobs: CSV path} of each tree -> dict."""
    if any(p[label] is None for side in (parent, change) for p in side.values()):
        return {"label": label, "failed": True}
    same_bytes = [parent[j][label].read_bytes() == change[j][label].read_bytes()
                  for j in JOBS]
    keys_equal, d_mean, d_std = True, 0.0, 0.0
    for j in JOBS:
        (pk, pv), (ck, cv) = read_rows(parent[j][label]), read_rows(change[j][label])
        keys_equal &= pk == ck
        for a, b in zip(pv, cv):
            d_mean = max(d_mean, delta(a[0], b[0]))
            d_std = max(d_std, delta(a[1], b[1]))
    jobs_agree = [len({side[j][label].read_bytes() for j in JOBS}) == 1
                  for side in (parent, change)]
    return {"label": label, "failed": False, "same_bytes": same_bytes,
            "keys_equal": keys_equal, "d_mean": d_mean, "d_std": d_std,
            "jobs_agree": jobs_agree}


def flagged(row):
    return (row["failed"] or not row["keys_equal"] or not all(row["jobs_agree"])
            or not (row["d_mean"] <= TOL and row["d_std"] <= TOL))


def _yes_no(values, yes, no):
    return ",".join(yes if v else no for v in values)


def format_row(row, width):
    mark = "FLAG" if flagged(row) else "ok"
    if row["failed"]:
        return f"{row['label']:<{width}}  command failed  {mark}"
    return (f"{row['label']:<{width}}  {_yes_no(row['same_bytes'], 'same', 'diff'):<10}  "
            f"{'equal' if row['keys_equal'] else 'DIFFER':<6}  {row['d_mean']:<10.3g}  "
            f"{row['d_std']:<10.3g}  {_yes_no(row['jobs_agree'], 'agree', 'DIFFER'):<12}  "
            f"{mark}")


def main(argv=None):
    table = command_table()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src", type=Path)
    ap.add_argument("change_src", type=Path)
    args = ap.parse_args(argv)
    for src in (args.parent_src, args.change_src):
        if not (src / "qdleak" / "__init__.py").is_file():
            ap.error(f"{src} holds no qdleak package")

    with tempfile.TemporaryDirectory(prefix="sweepdiff-") as tmp:
        parent, change = (run_jobs(src, table, table, Path(tmp) / side)
                          for side, src in (("parent", args.parent_src),
                                            ("change", args.change_src)))
        rows = [compare(label, parent, change) for label in table]

    width = max(len(label) for label in table)
    print(f"{'csv':<{width}}  {'bytes j1,2':<10}  {'keys':<6}  {'max|dmean|':<10}  "
          f"{'max|dstd|':<10}  {'jobs p,c':<12}  status")
    for row in rows:
        print(format_row(row, width))
    bad = sum(flagged(row) for row in rows)
    print(f"{len(rows)} CSVs, {bad} flagged at tol {TOL:g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
