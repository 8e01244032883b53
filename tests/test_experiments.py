"""Sweep engine tests: seeding, determinism, schema, small-grid sanity."""

import csv
import ctypes
import functools
import math
import os
import types
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qdleak import experiments
from qdleak.experiments import (
    CSV_HEADER,
    ResultRow,
    SweepConfig,
    control_seed,
    derive_seed,
    pool_size,
    run_and_write,
    run_experiment,
    scenario_seed,
    write_csv,
)
from qdleak.linalg import DensityMatrix, StateVector
from qdleak.model import DecoherenceFactorParams, ScenarioSpec, decoherence_factor

SMALL = dict(repetitions=3, base_seed=99)
DATA = Path(__file__).resolve().parent / "data"


def rows_by(rows, **match):
    out = [r for r in rows
           if all(getattr(r, k) == v for k, v in match.items())]
    return out


# ------------------------------------------------------------- seeding

def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(7, "scenario", 0.5, 3)
    assert a == derive_seed(7, "scenario", 0.5, 3)
    assert a != derive_seed(7, "scenario", 0.5, 4)
    assert a != derive_seed(8, "scenario", 0.5, 3)
    assert 0 <= a < 2 ** 64
    # type-tagged tokens: the int 1 and the float 1.0 are different coordinates
    assert derive_seed(1) != derive_seed(1.0)


def test_scenario_seed_ignores_layer_count_by_design():
    s = scenario_seed(5, "computational", "haar", 0.3, 0.0, 2, rep=4)
    assert s == scenario_seed(5, "computational", "haar", 0.3, 0.0, 2, rep=4)
    assert s != scenario_seed(5, "computational", "haar", 0.4, 0.0, 2, rep=4)
    assert s != scenario_seed(5, "hadamard", "haar", 0.3, 0.0, 2, rep=4)
    assert control_seed(s) != s


# ------------------------------------------------------- configuration

def test_resolve_config_fills_documented_defaults():
    cfg = SweepConfig(experiment="partial_control_table")
    assert cfg.ne_grid == (3, 4, 5, 6, 7)
    assert cfg.eps_grid == (0.0,)
    assert cfg.control_mode == "rank"
    layers = SweepConfig(experiment="layers_table")
    assert layers.eve_layer == 1
    assert layers.nl_grid == (1, 2, 3)
    # explicit grids and overrides survive resolution
    custom = SweepConfig(experiment="layers_table",
                         eps_grid=(0.5,), nl_grid=(2, 3), eve_layer=2)
    assert custom.eps_grid == (0.5,)
    assert custom.eve_layer == 2
    # only None or an empty grid is unset: 0 is kept, for the scenario to refuse
    with pytest.raises(ValueError, match=r"eve_layer must be in 1\.\.n_layers"):
        SweepConfig(experiment="layers_table", eve_layer=0)


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(experiment="unknown")
    with pytest.raises(ValueError):
        SweepConfig(experiment="layers_table", repetitions=0)
    with pytest.raises(ValueError):
        SweepConfig(experiment="layers_table", control_mode="spectral")
    with pytest.raises(ValueError, match="jobs must be >= 1"):
        SweepConfig(experiment="layers_table", jobs=0)
    for seed in (-1, 2 ** 64):
        with pytest.raises(ValueError):
            SweepConfig(experiment="layers_table", base_seed=seed)
    assert SweepConfig(experiment="layers_table", base_seed=2 ** 64 - 1)
    for eps in (math.nan, math.inf, -0.1, 1.5):
        with pytest.raises(ValueError):
            SweepConfig(experiment="layers_table", eps_grid=(0.5, eps))
    for grids in (dict(eps_grid=(0.5, 0.7, 0.5)), dict(eps_grid=(0.0, -0.0)),
                  dict(ne_grid=(2, 2)), dict(nl_grid=(1, 2, 1)),
                  dict(alpha_grid=(0.3, 0.3))):
        with pytest.raises(ValueError, match="repeats"):
            SweepConfig(experiment="layers_table", **grids)


@pytest.mark.parametrize("experiment", experiments.EXPERIMENTS)
def test_epsilon_range_is_refused_by_the_model_rule(experiment):
    # model._check_coupling is epsilon's one home; the config states no rule of its own
    for eps in (1.5, -0.25, math.nan):
        with pytest.raises(ValueError, match=r"epsilon must lie in \[0, 1\]"):
            SweepConfig(experiment=experiment, eps_grid=(eps,))
    cfg = SweepConfig(experiment=experiment, eps_grid=(-0.0,))
    assert cfg.eps_grid == (0.0,) and math.copysign(1.0, cfg.eps_grid[0]) == 1.0


SCENARIO = dict(basis="computational", key_bit=0, n_layers=2, qubits_per_layer=2,
                epsilon=0.5)


@pytest.mark.parametrize("make", [
    lambda: SweepConfig(experiment="pguess_vs_epsilon", ne_grid=(3.9,)),
    lambda: SweepConfig(experiment="layers_table", nl_grid=(1, 2.0)),
    lambda: SweepConfig(experiment="layers_table", base_seed=1.5),
    lambda: SweepConfig(experiment="layers_table", repetitions=1.5),
    lambda: SweepConfig(experiment="layers_table", jobs=2.0),
    lambda: SweepConfig(experiment="layers_table", eve_layer=1.5),
    lambda: ScenarioSpec(**{**SCENARIO, "qubits_per_layer": 2.0}),
    lambda: ScenarioSpec(**SCENARIO, seed=1.5),
    lambda: ScenarioSpec(**SCENARIO, eve_layer=1.5),
    lambda: ScenarioSpec(**{**SCENARIO, "key_bit": 1.0}),
    lambda: StateVector(np.ones(4) / 2, (2.9, 2)),
    lambda: DensityMatrix(np.eye(2) / 2, (2.5,)),
    lambda: SweepConfig(experiment="layers_table", repetitions=None),
    lambda: SweepConfig(experiment="layers_table", base_seed=None),
    lambda: SweepConfig(experiment="layers_table", jobs=None),
    lambda: ScenarioSpec(**{**SCENARIO, "n_layers": None}),
    lambda: ScenarioSpec(**{**SCENARIO, "qubits_per_layer": None}),
    lambda: ScenarioSpec(**SCENARIO, seed=None),
], ids=["ne_grid", "nl_grid", "base_seed", "repetitions", "jobs", "eve_layer",
        "qubits_per_layer", "seed", "spec_eve_layer", "key_bit", "state_dims",
        "density_dims", "none_repetitions", "none_base_seed", "none_jobs",
        "none_n_layers", "none_qubits_per_layer", "none_seed"])
def test_non_integral_integer_settings_are_refused(make):
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_numpy_integer_settings_are_accepted():
    cfg = SweepConfig(experiment="layers_table", ne_grid=(np.int64(3),),
                      repetitions=np.int32(2), base_seed=np.uint64(2 ** 64 - 1),
                      eve_layer=np.int8(1))
    assert cfg.ne_grid == (3,) and type(cfg.ne_grid[0]) is int
    assert (cfg.repetitions, cfg.base_seed, cfg.eve_layer) == (2, 2 ** 64 - 1, 1)
    spec = ScenarioSpec(**{**SCENARIO, "n_layers": np.int64(2)}, seed=np.uint64(7))
    assert (spec.n_layers, spec.seed) == (2, 7)
    assert type(spec.n_layers) is int and type(spec.seed) is int
    dims = (np.int64(2), np.int64(2))
    for state in (StateVector(np.ones(4) / 2, dims), DensityMatrix(np.eye(4) / 4, dims)):
        assert state.dims == (2, 2) and all(type(d) is int for d in state.dims)


@pytest.mark.parametrize("experiment, grids", [
    ("layers_table", dict(ne_grid=(2, 3))),
    ("layers_table", dict(alpha_grid=(0.0, 0.5))),
    ("pguess_vs_epsilon", dict(nl_grid=(1, 2))),
    ("partial_control_table", dict(nl_grid=(1, 2))),
    ("decoherence_sweep", dict(nl_grid=(1, 2))),
    ("conjecture_check", dict(ne_grid=(1, 2))),
    # grids the experiment pins to its default value
    ("decoherence_sweep", dict(alpha_grid=(0.7,))),
    ("conjecture_check", dict(ne_grid=(2,))),
    ("decoherence_sweep", dict(nl_grid=(2,))),
])
def test_resolve_config_rejects_grids_the_experiment_holds_fixed(experiment, grids):
    with pytest.raises(ValueError):
        SweepConfig(experiment=experiment, **grids)


@pytest.mark.parametrize("experiment, settings", [
    ("decoherence_sweep", dict(eve_layer=1)),
    ("conjecture_check", dict(eve_layer=1)),
    ("layers_table", dict(control_mode="rank")),
    ("pguess_vs_epsilon", dict(control_mode="subset")),
    ("decoherence_sweep", dict(control_mode="rank")),
    ("conjecture_check", dict(control_mode="rank")),
    ("decoherence_sweep", dict(basis="hadamard")),
])
def test_resolve_config_rejects_settings_the_experiment_ignores(experiment, settings):
    with pytest.raises(ValueError):
        SweepConfig(experiment=experiment, **settings)


def test_pool_size_is_bounded_by_points_and_cpus():
    assert pool_size(jobs=1, n_points=10, cpu_count=4) == 1
    assert pool_size(jobs=64, n_points=5, cpu_count=16) == 5
    assert pool_size(jobs=8, n_points=30, cpu_count=2) == 2
    assert pool_size(jobs=4, n_points=1, cpu_count=4) == 1
    assert pool_size(jobs=4, n_points=10, cpu_count=None) == 1


# a host of two CPUs with this process pinned to one, as Python 3.13+ and older tell it
@pytest.mark.parametrize("pinned", [dict(process_cpu_count=lambda: 1),
                                    dict(sched_getaffinity=lambda pid: {0})],
                         ids=["process_cpu_count", "sched_getaffinity"])
def test_default_jobs_and_pool_count_only_the_cpus_the_process_may_use(pinned, monkeypatch):
    import concurrent.futures

    from qdleak.cli import build_parser

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.delattr(os, "process_cpu_count", raising=False)
    for name, value in pinned.items():
        monkeypatch.setattr(os, name, value, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert build_parser().parse_args(["layers-table"]).jobs == 1
    config = SweepConfig(experiment="layers_table", eps_grid=(0.5, 0.7), nl_grid=(1,),
                         repetitions=1, jobs=2)
    assert len(run_experiment(config)) == 2


# ------------------------------------------------------- BLAS threads
# Only the thread-count setting is exercised: no thread or process starts.

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def _clear_blas_vars(monkeypatch):
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)


@pytest.mark.parametrize("var", BLAS_VARS)
def test_blas_pin_leaves_an_explicit_thread_setting_alone(var, monkeypatch):
    def no_lookup():
        raise AssertionError("the OpenBLAS library was looked up")

    _clear_blas_vars(monkeypatch)
    monkeypatch.setenv(var, "3")
    monkeypatch.setattr(experiments, "_bundled_openblas", no_lookup)
    with experiments._one_blas_thread():
        pass


def test_blas_pin_is_a_no_op_without_the_thread_symbols(monkeypatch):
    calls = []
    partial_lib = types.SimpleNamespace(
        scipy_openblas_get_num_threads64_=lambda: calls.append("get") or 4)
    _clear_blas_vars(monkeypatch)
    monkeypatch.setattr(ctypes, "CDLL", lambda path: partial_lib)
    assert experiments._bundled_openblas() is None
    with experiments._one_blas_thread():
        pass
    assert calls == []


def test_blas_pin_is_a_no_op_without_the_bundled_library(monkeypatch):
    import glob

    _clear_blas_vars(monkeypatch)
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    assert experiments._bundled_openblas() is None
    with experiments._one_blas_thread():
        pass


def test_blas_pin_sets_one_thread_and_restores_the_count(monkeypatch):
    threads = experiments._bundled_openblas()
    if threads is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    get_threads, _ = threads
    _clear_blas_vars(monkeypatch)
    before = get_threads()
    with experiments._one_blas_thread():
        assert get_threads() == 1
    assert get_threads() == before


# ------------------------------------------------------- small sweeps

def test_layers_table_small_run():
    cfg = SweepConfig(experiment="layers_table", eps_grid=(0.5, 0.9),
                      nl_grid=(1, 2), **SMALL)
    rows = run_experiment(cfg)
    assert len(rows) == 4
    for row in rows:
        assert row.statistic == "p_guess"
        assert 0.5 - 1e-9 <= row.mean <= 1.0 + 1e-9
        assert row.std >= 0.0
        assert row.repetitions == 3
    # the coupled seeds make each column monotone even at 3 repetitions
    for eps in (0.5, 0.9):
        col = sorted(rows_by(rows, epsilon=eps), key=lambda r: r.n_layers)
        assert col[0].mean >= col[1].mean - 1e-12


def test_pguess_vs_epsilon_no_interaction_endpoint():
    cfg = SweepConfig(experiment="pguess_vs_epsilon", eps_grid=(1.0,),
                      ne_grid=(3,), **SMALL)
    (row,) = run_experiment(cfg)
    assert abs(row.mean - 0.5) < 1e-12
    assert row.std == 0.0


def test_partial_control_table_rows_and_skips():
    cfg = SweepConfig(experiment="partial_control_table", ne_grid=(3,), **SMALL)
    rows = run_experiment(cfg)
    # seven percentage steps: k = 3..-3, of which 1..3 are feasible
    assert len(rows) == 7
    skipped = [r for r in rows if r.skip_reason]
    live = [r for r in rows if not r.skip_reason]
    assert len(skipped) == 4
    assert all(r.skip_reason == "k_out_of_range" for r in skipped)
    assert all(r.mean is None and r.std is None for r in skipped)
    live.sort(key=lambda r: r.controlled_qubits)
    assert [r.controlled_qubits for r in live] == [1, 2, 3]
    # nested antennas: seed-averaged values rise with k
    assert live[0].mean <= live[1].mean + 1e-12 <= live[2].mean + 2e-12


def test_partial_control_subset_mode_runs():
    cfg = SweepConfig(experiment="partial_control_table", ne_grid=(3,),
                      control_mode="subset", **SMALL)
    live = [r for r in run_experiment(cfg) if not r.skip_reason]
    values = {r.controlled_qubits: r.mean for r in live}
    assert values[1] <= values[2] + 1e-12 <= values[3] + 2e-12


def test_decoherence_sweep_no_interaction_endpoint():
    cfg = SweepConfig(experiment="decoherence_sweep", eps_grid=(1.0, 0.0),
                      ne_grid=(2,), **SMALL)
    rows = run_experiment(cfg)
    by_eps = {r.epsilon: r for r in rows}
    assert abs(by_eps[1.0].mean - 1.0) < 1e-12
    assert by_eps[0.0].mean < by_eps[1.0].mean
    assert all(r.statistic == "gamma" for r in rows)


def test_decoherence_sweep_at_full_interaction_averages_two_thirds_per_qubit():
    # at eps = 0 each qubit's overlap |<E0|E1>| has Haar mean 2/3 and mean
    # square 1/2, and the qubits are independent: E[gamma] = (2/3)^ne and
    # E[gamma^2] = 2^-ne, whatever the seed
    cfg = SweepConfig(experiment="decoherence_sweep", eps_grid=(0.0,))
    rows = run_experiment(cfg)
    assert sorted(r.qubits_per_layer for r in rows) == list(range(1, 8))
    for row in rows:
        ne = row.qubits_per_layer
        target = (2.0 / 3.0) ** ne
        exact_sd = math.sqrt(2.0 ** -ne - (4.0 / 9.0) ** ne)
        se = max(row.std, exact_sd) / math.sqrt(row.repetitions)
        assert abs(row.mean - target) <= 5 * se, (ne, row.mean, target, se)


@functools.lru_cache
def overlap_moments(eps, n=800):
    """E|gamma| and E|gamma|^2 of one first-layer qubit, by quadrature.

    With a = eps + (1-eps) sqrt(c) e^{i phi}, the overlap is
    |gamma| = |a| / sqrt(|a|^2 + (1-eps)^2 (1-c)) for c ~ U[0, 1] (the weight
    of the Haar column's first entry) and phi ~ U[0, 2 pi): Gauss-Legendre
    in c times the midpoint rule in phi.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    c = 0.5 * (x + 1.0)[:, None]
    phi = (np.arange(n) + 0.5) * (2.0 * math.pi / n)
    a2 = np.abs(eps + (1.0 - eps) * np.sqrt(c) * np.exp(1j * phi)) ** 2
    g2 = a2 / (a2 + (1.0 - eps) ** 2 * (1.0 - c))
    return float(0.5 * w @ np.sqrt(g2).mean(axis=1)), float(0.5 * w @ g2.mean(axis=1))


def test_overlap_moments_reproduce_the_known_means():
    assert abs(overlap_moments(0.0)[0] - 2.0 / 3.0) <= 1e-7
    assert abs(overlap_moments(0.0)[1] - 0.5) <= 1e-12
    assert abs(overlap_moments(0.5)[0] - 0.8) <= 1e-7
    assert overlap_moments(1.0) == (1.0, 1.0)


def decoherence_z_scores(rows):
    """|mean - E[Gamma]| / SE of each (eps, ne, mean, std, n) row.

    The qubits are independent, so E[Gamma] = (E|gamma|)^ne and
    E[Gamma^2] = (E|gamma|^2)^ne whatever the seed; SE takes the larger of
    the sample and exact stds, and a floor for eps = 1, where gamma is 1
    and both are rounding.
    """
    for eps, ne, mean, std, n in rows:
        m1, m2 = overlap_moments(eps)
        exact_sd = math.sqrt(max(m2 ** ne - m1 ** (2 * ne), 0.0))
        se = max(max(std, exact_sd) / math.sqrt(n), 1e-12)
        yield abs(mean - m1 ** ne) / se


def test_decoherence_sweep_matches_the_exact_moments():
    rows = run_experiment(SweepConfig(experiment="decoherence_sweep", repetitions=25))
    assert len(rows) == 35
    assert max(decoherence_z_scores(
        (r.epsilon, r.qubits_per_layer, r.mean, r.std, r.repetitions) for r in rows)) <= 5


def test_published_decoherence_sweep_matches_the_exact_moments():
    with open(DATA / "decoherence_sweep.csv", newline="") as f:
        rows = [(float(r["epsilon"]), int(r["qubits_per_layer"]), float(r["mean"]),
                 float(r["std"]), int(r["repetitions"])) for r in csv.DictReader(f)]
    assert len(rows) == 9
    assert max(decoherence_z_scores(rows)) <= 5


def test_decoherence_sweep_averages_both_bases_of_every_repetition():
    cfg = SweepConfig(experiment="decoherence_sweep", eps_grid=(0.5,),
                      ne_grid=(2,), **SMALL)
    (row,) = run_experiment(cfg)
    values = []
    for rep in range(SMALL["repetitions"]):
        for basis in ("computational", "hadamard"):
            seed = scenario_seed(SMALL["base_seed"], basis, "haar", 0.5, 0.0, 2, rep)
            spec = ScenarioSpec(basis=basis, key_bit=0, n_layers=1,
                                qubits_per_layer=2, epsilon=0.5, seed=seed)
            values.append(decoherence_factor(
                spec, DecoherenceFactorParams(pointer_basis=basis)))
    assert row.repetitions == len(values) == 6
    assert row.mean == float(np.mean(values))
    assert row.std == float(np.std(values, ddof=1))


def test_conjecture_check_rows():
    cfg = SweepConfig(experiment="conjecture_check", eps_grid=(0.0, 0.5),
                      nl_grid=(1, 2), alpha_grid=(0.0,), **SMALL)
    rows = run_experiment(cfg)
    stats = {r.statistic for r in rows}
    assert stats == {"analytic_p_guess", "p_guess", "deviation",
                     "key_rate", "mutual_information"}
    for row in rows_by(rows, statistic="deviation"):
        assert row.mean <= 1e-9
    for point in ((0.0, 1), (0.5, 2)):
        an = rows_by(rows, statistic="analytic_p_guess",
                     epsilon=point[0], n_layers=point[1])[0]
        sim = rows_by(rows, statistic="p_guess",
                      epsilon=point[0], n_layers=point[1])[0]
        assert abs(an.mean - sim.mean) <= 1e-9
    mi = rows_by(rows, statistic="mutual_information")[0]
    kr = rows_by(rows, statistic="key_rate", epsilon=mi.epsilon,
                 n_layers=mi.n_layers, alpha=mi.alpha)[0]
    assert abs(mi.mean + kr.mean - 1.0) < 1e-12


def test_conjecture_check_skips_degenerate_points():
    cfg = SweepConfig(experiment="conjecture_check", eps_grid=(0.5,),
                      nl_grid=(1,), alpha_grid=(3 * math.pi / 2,), **SMALL)
    rows = run_experiment(cfg)
    assert rows
    assert all(r.skip_reason == "degenerate_coupling" for r in rows)
    assert all(r.mean is None for r in rows)


# ------------------------------------------------ determinism and CSV

def test_rerun_is_byte_identical(tmp_path):
    cfg = SweepConfig(experiment="layers_table", eps_grid=(0.7,),
                      nl_grid=(1, 2), output_path=str(tmp_path / "a.csv"),
                      **SMALL)
    run_and_write(cfg)
    first = (tmp_path / "a.csv").read_bytes()
    run_and_write(cfg)
    assert (tmp_path / "a.csv").read_bytes() == first
    assert b"\r" not in first  # LF endings only


def test_default_output_path_is_named_after_the_experiment(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cfg = SweepConfig(experiment="layers_table", eps_grid=(0.7,), nl_grid=(1,), **SMALL)
    _, path = run_and_write(cfg)
    assert path == "layers_table.csv"
    assert [p.name for p in tmp_path.iterdir()] == [path]


def test_parallel_pool_matches_serial(tmp_path):
    base = dict(experiment="pguess_vs_epsilon", eps_grid=(0.2, 0.8),
                ne_grid=(2, 3), repetitions=2, base_seed=5)
    serial = SweepConfig(output_path=str(tmp_path / "s.csv"), jobs=1, **base)
    parallel = SweepConfig(output_path=str(tmp_path / "p.csv"), jobs=2, **base)
    run_and_write(serial)
    run_and_write(parallel)
    assert (tmp_path / "s.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()


def test_adding_grid_points_keeps_existing_rows(tmp_path):
    small = SweepConfig(experiment="layers_table", eps_grid=(0.5,),
                        nl_grid=(1,), **SMALL)
    bigger = SweepConfig(experiment="layers_table", eps_grid=(0.5, 0.7),
                         nl_grid=(1, 3), **SMALL)
    small_rows = {(r.epsilon, r.n_layers): r for r in run_experiment(small)}
    big_rows = {(r.epsilon, r.n_layers): r for r in run_experiment(bigger)}
    for key, row in small_rows.items():
        assert big_rows[key].mean == row.mean
        assert big_rows[key].std == row.std


def test_csv_schema(tmp_path):
    cfg = SweepConfig(experiment="partial_control_table", ne_grid=(3,),
                      output_path=str(tmp_path / "t.csv"), **SMALL)
    rows, path = run_and_write(cfg)
    lines = (tmp_path / "t.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 1 + len(rows)
    # skipped rows carry the machine-readable reason in the last column
    assert any(line.endswith("k_out_of_range") for line in lines[1:])
    # means survive a text round trip exactly (repr formatting)
    live = [r for r in rows if not r.skip_reason]
    for row in live:
        line = lines[1 + rows.index(row)]
        assert repr(row.mean) in line


def test_rows_are_sorted_stably():
    cfg = SweepConfig(experiment="layers_table", eps_grid=(0.9, 0.5),
                      nl_grid=(2, 1), **SMALL)
    rows = run_experiment(cfg)
    keys = [r.sort_key() for r in rows]
    assert keys == sorted(keys)


def test_result_row_csv_formatting():
    row = ResultRow("layers_table", 0.5, 0.0, 1, 2, 2, "p_guess",
                    0.875, 0.01, 3, 42)
    record = row.to_csv()
    assert record[CSV_HEADER.index("mean")] == "0.875"
    assert record[CSV_HEADER.index("skip_reason")] == ""
    skip = ResultRow("layers_table", 0.5, None, 1, 2, 0, "p_guess",
                     None, None, None, 42, skip_reason="k_out_of_range")
    assert skip.to_csv()[CSV_HEADER.index("mean")] == ""


def test_failed_write_keeps_earlier_csv(tmp_path):
    class Unwritable:
        def to_csv(self):
            raise RuntimeError("row cannot be formatted")

    path = tmp_path / "out.csv"
    earlier_row = ResultRow("layers_table", 0.5, 0.0, 1, 2, 2, "p_guess",
                            0.8, 0.0, 1, 7)
    write_csv([earlier_row], str(path))
    earlier = path.read_bytes()
    with pytest.raises(RuntimeError):
        write_csv([replace(earlier_row, mean=0.9), Unwritable()], str(path))
    assert path.read_bytes() == earlier
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]


def test_write_csv_utf8_lf(tmp_path):
    rows = [ResultRow("layers_table", 0.5, 0.0, 1, 2, 2, "p_guess",
                      0.8, 0.0, 1, 7)]
    path = tmp_path / "out.csv"
    write_csv(rows, str(path))
    data = path.read_bytes()
    assert data.count(b"\n") == 2
    assert b"\r" not in data
