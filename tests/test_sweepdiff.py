"""tools/sweepdiff.py on two commands: a tree against itself, and a perturbed copy."""

import importlib.util
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
_spec = importlib.util.spec_from_file_location("sweepdiff", ROOT / "tools" / "sweepdiff.py")
sweepdiff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sweepdiff)

# two short sweeps: conjecture-check reads the closed form, decoherence-sweep does not
LABELS = ("decoherence-sweep", "conjecture-check")


@pytest.fixture(scope="module")
def table():
    return sweepdiff.command_table()


@pytest.fixture(scope="module")
def parent_run(table, tmp_path_factory):
    """The CSVs of SRC at each --jobs, shared by both tests."""
    return sweepdiff.run_jobs(SRC, table, LABELS, tmp_path_factory.mktemp("parent"))


def report(parent, change):
    """{label: the fields of its printed row} of two runs."""
    rows = [sweepdiff.compare(label, parent, change) for label in LABELS]
    return {row["label"]: sweepdiff.format_row(row, 1).split()[1:] for row in rows}


def test_same_tree_twice_reports_zeros(table, parent_run, tmp_path):
    rows = report(parent_run, sweepdiff.run_jobs(SRC, table, LABELS, tmp_path))
    assert set(rows) == set(LABELS)
    for fields in rows.values():
        assert fields == ["same,same", "equal", "0", "0", "agree,agree", "ok"]


def test_perturbed_constant_is_flagged(table, parent_run, tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    closed_form = copy / "qdleak" / "eavesdropper.py"
    text = closed_form.read_text(encoding="utf-8")
    line = "return 0.5 + 0.5 * t ** (2 * n_layers - 1)"
    assert text.count(line) == 1
    closed_form.write_text(text.replace(line, line.replace("0.5 *", "0.4999999 *")),
                           encoding="utf-8")
    rows = report(parent_run, sweepdiff.run_jobs(copy, table, LABELS, tmp_path / "out"))
    same_bytes, keys, d_mean, _, jobs, status = rows["conjecture-check"]
    assert (same_bytes, keys, jobs, status) == ("diff,diff", "equal", "agree,agree", "FLAG")
    assert sweepdiff.TOL < float(d_mean) < 1e-4
    assert rows["decoherence-sweep"][-1] == "ok"


def test_command_table_holds_the_default_variants(table):
    assert table["layers-table-eve-layer-2"]("x.csv", 1) == [
        "layers-table", "--eve-layer", "2", "--nl-grid", "2,3", "--reps", "5",
        "--jobs", "1", "--out", "x.csv"]
    assert table["pguess-vs-epsilon-alpha-0.3"]("x.csv", 2) == [
        "pguess-vs-epsilon", "--alpha", "0.3", "--reps", "5", "--jobs", "2", "--out", "x.csv"]


def test_main_refuses_a_tree_without_qdleak(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        sweepdiff.main([str(SRC), str(tmp_path)])
    assert exc.value.code == 2
    assert "holds no qdleak package" in capsys.readouterr().err
