"""The benchmark in perfbench/ still finds every function it traces.

perfbench/run.py --trace 1 fails unless each traced call count equals the
count its workload grids imply, and it reports per-layer metrics of named
qdleak functions. This test runs the benchmark's warm-up commands under its
tracer, in a fresh interpreter (the tracer rebinds module attributes), and
checks both, so a renamed, moved or re-routed traced function fails here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_SCRIPT = r"""
import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "src"))
sys.path.insert(0, str(root / "perfbench"))

import qdleak.cli
from tracer import Tracer
from workloads import WARMUP

spec = importlib.util.spec_from_file_location(
    "_perfbench_run_surface", root / "perfbench" / "run.py")
run = importlib.util.module_from_spec(spec)
spec.loader.exec_module(run)

tracer = Tracer()
tracer.install()
codes = [qdleak.cli.main(cmd.argv(101, out / cmd.csv_name)) for cmd in WARMUP]
expected = Counter()
for cmd in WARMUP:
    expected.update(cmd.expected_calls())
print(json.dumps({
    "codes": codes,
    "calls": {name: calls for name, (calls, _) in tracer.summary().items()},
    "work": tracer.work,
    "expected": dict(expected),
    "per_layer": sorted({name for name, _ in run.PER_LAYER}),
}))
"""


def test_warmup_matches_the_traced_surface(tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT), str(tmp_path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["codes"] == [0] * len(report["codes"])
    seen = {**report["calls"], **report["work"]}
    mismatches = {name: (seen.get(name), want)
                  for name, want in report["expected"].items()
                  if seen.get(name) != want}
    assert not mismatches, f"traced vs implied counts: {mismatches}"
    assert "linalg.apply_unitary.amplitudes" in report["expected"]
    missing = [name for name in report["per_layer"] if name not in report["calls"]]
    assert not missing, f"reported but not traced: {missing}"
