"""tools/benchpair.py: its statistics on fixed data, and two pairs of one tree."""

import importlib.util
import random
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("benchpair", ROOT / "tools" / "benchpair.py")
benchpair = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(benchpair)


def test_pair_ratios_are_change_over_parent_pair_by_pair():
    assert benchpair.pair_ratios([1.0, 2.0, 4.0], [2.0, 2.0, 2.0]) == [2.0, 1.0, 0.5]
    with pytest.raises(ValueError):
        benchpair.pair_ratios([1.0, 2.0], [1.0])


def test_quartiles():
    assert benchpair.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert benchpair.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_bootstrap_interval_is_seeded_and_brackets_the_median():
    ratios = [0.90, 0.92, 0.95, 0.97, 0.98, 1.00, 1.01, 1.03, 0.96, 0.94]
    lo, hi = benchpair.bootstrap_interval(ratios)
    assert (lo, hi) == benchpair.bootstrap_interval(ratios)
    assert min(ratios) <= lo <= statistics.median(ratios) <= hi <= max(ratios)
    # the 2.5th and 97.5th percentiles of the resampled medians, written out
    rng = random.Random(0)
    medians = sorted(statistics.median(rng.choices(ratios, k=10)) for _ in range(2000))
    assert (lo, hi) == (medians[50], medians[1949])
    assert benchpair.bootstrap_interval([0.8] * 6) == (0.8, 0.8)


@pytest.mark.parametrize("n_pairs, interval, want", [
    (10, (0.95, 0.99), "faster"),
    (10, (1.01, 1.20), "slower"),
    (10, (0.97, 1.04), "unresolved at ±4.0%"),
    (10, (0.90, 1.02), "unresolved at ±10.0%"),
    (10, (1.0, 1.1), "unresolved at ±10.0%"),
    (4, (0.5, 0.6), "too few pairs"),
    (5, (0.5, 0.6), "faster"),
])
def test_verdict(n_pairs, interval, want):
    assert benchpair.verdict(n_pairs, interval) == want


def test_verdict_words_for_memory():
    assert benchpair.verdict(10, (0.9, 0.95), ("smaller", "larger")) == "smaller"


def test_summarize_counts_wins_and_takes_the_median_ratio():
    parent = [{m: 1.0 for m in benchpair.METRICS} for _ in range(6)]
    change = [{m: v for m in benchpair.METRICS} for v in (0.9, 0.8, 1.02, 0.9, 0.95, 0.85)]
    rows = benchpair.summarize({"parent": parent, "change": change})
    assert [r["metric"] for r in rows] == list(benchpair.METRICS)
    for row in rows:
        assert row["won"] == 5 and row["pairs"] == 6
        assert row["ratio"] == pytest.approx(0.9)
        assert row["parent"] == (1.0, 1.0, 1.0)
    assert rows[1]["verdict"] == "faster"
    assert rows[3]["verdict"] == "smaller"


def test_two_pairs_of_one_tree_on_rejected_rounds(capsys):
    assert benchpair.main([str(ROOT), str(ROOT), "--workload", "rejected_rounds",
                           "--pairs", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "workload rejected_rounds, 2 pairs, ratio = change / parent"
    rows = {line.split()[0]: line for line in lines[4:]}
    assert list(rows) == list(benchpair.METRICS)
    for line in rows.values():
        assert line.endswith("too few pairs")
        assert "/2" in line


def test_a_failing_round_exits_1(capsys):
    assert benchpair.main([str(ROOT), str(ROOT), "--workload", "no_such_workload",
                           "--pairs", "1"]) == 1
    assert "round exited 2" in capsys.readouterr().err


def test_a_root_without_the_round_script_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        benchpair.main([str(tmp_path), str(ROOT), "--workload", "rejected_rounds"])
    assert exc.value.code == 2
