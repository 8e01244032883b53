"""The output checks pass on real CSVs and catch perturbed ones.

    python3 -m pytest perfbench/test_checks.py -q
"""

import copy
import csv
import io
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import qdleak.cli  # noqa: E402

from checks import (CHECKS, parse_csv, program_gamma, quadrature_mean,  # noqa: E402
                    series_mean)
from workloads import WORKLOADS  # noqa: E402

SEED = 101


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{workload: [csv text per command]} from one real run of each workload."""
    out = tmp_path_factory.mktemp("csv")
    texts = {}
    for name, workload in WORKLOADS.items():
        texts[name] = []
        for cmd in workload.commands:
            path = out / cmd.csv_name
            assert qdleak.cli.main(cmd.argv(SEED, path)) == 0
            texts[name].append(path.read_text(encoding="utf-8"))
    return texts


def run_check(name, texts):
    gamma = program_gamma(SEED) if name == "leak_curve" else None
    tables = [None if t is None else parse_csv(t) for t in texts]
    return CHECKS[name](WORKLOADS[name], tables, gamma)


def perturb(texts, index, match, column, change):
    """Copy of the CSV texts with `change` applied to the matching rows' column."""
    rows = parse_csv(texts[index])
    hit = 0
    for row in rows:
        if all(row[k] == v for k, v in match.items()):
            row[column] = repr(change(float(row[column])))
            hit += 1
    assert hit, f"no row matches {match}"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    out = list(texts)
    out[index] = buf.getvalue()
    return out


def test_series_matches_quadrature():
    assert quadrature_mean(1) == pytest.approx(5.0 / 6.0, abs=1e-12)
    for ne in range(1, 8):
        assert abs(series_mean(ne) - quadrature_mean(ne)) <= 1e-12


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_real_outputs_pass(outputs, name):
    assert run_check(name, outputs[name]) == {}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_failed_command_fails_its_points(outputs, name):
    texts = copy.copy(outputs[name])
    texts[0] = None
    failed = run_check(name, texts)
    # leak_curve's antenna points fail too: their full-control twins are gone
    assert set(failed) >= {(0, p) for p in WORKLOADS[name].commands[0].points()}


LEAK = [
    # (command, row match, column, change, failing point)
    (0, {"epsilon": "1.0", "qubits_per_layer": "5"}, "mean", lambda v: v + 1e-9,
     (0, (1.0, 5))),
    (0, {"epsilon": "0.0", "qubits_per_layer": "3"}, "mean", lambda v: v - 0.2,
     (0, (0.0, 3))),
    (0, {"epsilon": "0.5", "qubits_per_layer": "4"}, "mean", lambda v: v + 1e-9,
     (0, (0.5, 4))),
    (1, {"epsilon": "0.5", "qubits_per_layer": "6", "controlled_qubits": "6"}, "mean",
     lambda v: v - 1e-9, (1, (0.5, 6))),
    (1, {"epsilon": "0.0", "qubits_per_layer": "7", "controlled_qubits": "2"}, "mean",
     lambda v: v + 0.5, (1, (0.0, 7))),
]
REJECTED = [
    (0, {"epsilon": "1.0", "qubits_per_layer": "2"}, "mean", lambda v: v - 1e-9,
     (0, (1.0, 2))),
    (0, {"epsilon": "0.0", "qubits_per_layer": "1"}, "mean", lambda v: v + 0.3,
     (0, (0.0, 1))),
    (0, {"epsilon": "0.5", "qubits_per_layer": "6"}, "mean", lambda v: v + 1.5,
     (0, (0.5, 6))),
]
DEPTH = [
    (0, {"epsilon": "0.5", "n_layers": "4"}, "mean", lambda v: v + 1e-9,
     (0, (0.5, 4))),
    (2, {"epsilon": "0.9", "n_layers": "2"}, "mean", lambda v: v + 0.1,
     (2, (0.9, 2))),
    (3, {"epsilon": "0.4", "n_layers": "3", "statistic": "p_guess"}, "mean",
     lambda v: v + 1e-6, (3, (0.4, 0.0, 3))),
    (4, {"epsilon": "0.2", "n_layers": "8", "statistic": "key_rate"}, "mean",
     lambda v: v * 1.01, (4, (0.2, 0.5, 8))),
]


@pytest.mark.parametrize("name,case", [("leak_curve", c) for c in LEAK]
                         + [("rejected_rounds", c) for c in REJECTED]
                         + [("layer_depth", c) for c in DEPTH])
def test_perturbed_outputs_fail(outputs, name, case):
    index, match, column, change, point = case
    failed = run_check(name, perturb(outputs[name], index, match, column, change))
    assert point in failed, failed


def test_rejected_standard_error_counts_both_bases(outputs):
    # 6 standard errors of the 2 * reps averaged values is only 4.2 errors
    # if the repetitions column (reps) were taken as the sample size.
    cmd = WORKLOADS["rejected_rounds"].commands[0]
    match = {"epsilon": "0.0", "qubits_per_layer": "1"}
    row = next(r for r in parse_csv(outputs["rejected_rounds"][0])
               if all(r[k] == v for k, v in match.items()))
    target = 2.0 / 3.0
    sd = max(float(row["std"]), math.sqrt(0.5 - target ** 2))
    shifted = target + 6.0 * sd / math.sqrt(2 * cmd.reps)
    texts = perturb(outputs["rejected_rounds"], 0, match, "mean", lambda v: shifted)
    assert (0, (0.0, 1)) in run_check("rejected_rounds", texts)
