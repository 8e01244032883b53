"""The published numbers must not move: small sweeps against stored CSVs.

Each case runs one experiment on a tiny grid with 2 repetitions and compares
its rows with `tests/data/<case>.csv`: every non-numeric column exactly,
`mean` and `std` to within 1e-12. Together the cases cover all five
experiments, both partial-control models, the 2x2 and the 8..128-dimensional
QR, interior projector links, the Hadamard basis and the 14-qubit ceiling.

The stored CSVs may be regenerated only by a change whose CHANGES.md entry
reports that the values moved, and by how much at most. To regenerate them:

    PYTHONPATH=src python tests/test_published_values.py
"""

import csv
import math
import sys
from pathlib import Path

import pytest

from qdleak.experiments import CSV_HEADER, SweepConfig, run_experiment, write_csv

DATA = Path(__file__).resolve().parent / "data"
TOL = 1e-12
NUMERIC = ("mean", "std")

CASES = {
    "decoherence_sweep": dict(
        experiment="decoherence_sweep", eps_grid=(0.0, 0.5, 1.0), ne_grid=(1, 3, 7)),
    "pguess_vs_epsilon": dict(
        experiment="pguess_vs_epsilon", eps_grid=(0.0, 0.3, 1.0), ne_grid=(3, 7)),
    "pguess_vs_epsilon_alpha": dict(
        experiment="pguess_vs_epsilon", eps_grid=(0.6,), ne_grid=(4,),
        alpha_grid=(0.3,)),
    "partial_control_table_rank": dict(
        experiment="partial_control_table", ne_grid=(3, 5, 7), control_mode="rank"),
    "partial_control_table_subset": dict(
        experiment="partial_control_table", ne_grid=(3, 5, 7), control_mode="subset"),
    "layers_table": dict(
        experiment="layers_table", eps_grid=(0.5, 0.9), nl_grid=(1, 3, 6)),
    "layers_table_last_layer": dict(
        experiment="layers_table", eps_grid=(0.7,), ne_grid=(3,), nl_grid=(2, 4),
        eve_layer=2),
    "layers_table_hadamard": dict(
        experiment="layers_table", eps_grid=(0.0, 0.5, 0.9), ne_grid=(3,), nl_grid=(1, 2),
        basis="hadamard"),
    "pguess_vs_epsilon_hadamard": dict(
        experiment="pguess_vs_epsilon", eps_grid=(0.0, 0.4, 1.0), ne_grid=(5,),
        basis="hadamard"),
    "conjecture_check": dict(
        experiment="conjecture_check", eps_grid=(0.0, 0.5, 1.0),
        alpha_grid=(0.0, math.pi / 6), nl_grid=(1, 3, 5)),
}


def _config(case):
    return SweepConfig(repetitions=2, jobs=1, **CASES[case])


def _read(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))


@pytest.mark.parametrize("case", sorted(CASES))
def test_sweep_matches_published_values(case, tmp_path):
    path = tmp_path / f"{case}.csv"
    write_csv(run_experiment(_config(case)), path)
    got, want = _read(path), _read(DATA / f"{case}.csv")
    assert got[0] == want[0] == list(CSV_HEADER)
    assert len(got) == len(want)
    numeric = [CSV_HEADER.index(name) for name in NUMERIC]
    for line, (g, w) in enumerate(zip(got[1:], want[1:]), start=2):
        for i, name in enumerate(CSV_HEADER):
            if i not in numeric or not w[i]:
                assert g[i] == w[i], f"{case}.csv line {line}: {name}"
            else:
                assert abs(float(g[i]) - float(w[i])) <= TOL, \
                    f"{case}.csv line {line}: {name} {g[i]} != {w[i]}"


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    for name in sorted(CASES):
        write_csv(run_experiment(_config(name)), DATA / f"{name}.csv")
        print(f"wrote {DATA / name}.csv", file=sys.stderr)
