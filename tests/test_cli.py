"""Command-line interface: flags, config files, exit codes, heap policy."""

import ctypes
import types

import pytest

from qdleak import cli, experiments
from qdleak.errors import ContractError


def run_cli(args):
    return cli.main(args)


def test_layers_table_writes_csv(tmp_path, capsys):
    out = tmp_path / "layers.csv"
    code = run_cli(["layers-table", "--reps", "2", "--seed", "7",
                    "--eps-grid", "0.5,0.9", "--nl-grid", "1", "--jobs", "1",
                    "--out", str(out)])
    assert code == 0
    assert out.exists()
    text = out.read_text(encoding="utf-8")
    assert text.splitlines()[0].startswith("experiment,epsilon")
    assert "layers_table" in text
    assert "wrote" in capsys.readouterr().out


def test_conjecture_check_runs(tmp_path):
    out = tmp_path / "conj.csv"
    code = run_cli(["conjecture-check", "--eps-grid", "0,0.5",
                    "--nl-grid", "1,2", "--alpha", "0", "--jobs", "1",
                    "--out", str(out)])
    assert code == 0
    assert "deviation" in out.read_text(encoding="utf-8")


def test_rerun_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["decoherence-sweep", "--reps", "2", "--seed", "3", "--jobs", "1",
            "--eps-grid", "0,1", "--ne-grid", "2"]
    assert run_cli(args + ["--out", str(a)]) == 0
    assert run_cli(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli(["spectral-sweep"])
    assert err.value.code == 2


def test_bad_flag_value_exits_2():
    with pytest.raises(SystemExit) as err:
        run_cli(["layers-table", "--reps", "many"])
    assert err.value.code == 2


def test_invalid_scenario_returns_2(tmp_path, capsys):
    code = run_cli(["layers-table", "--reps", "1", "--jobs", "1",
                    "--eps-grid", "2.0", "--out", str(tmp_path / "x.csv")])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["layers-table", "--ne-grid", "2,3"],
    ["pguess-vs-epsilon", "--nl-grid", "1,2"],
    ["decoherence-sweep", "--alpha", "0.7"],
    ["conjecture-check", "--ne-grid", "2"],
    ["layers-table", "--seed", "-1"],
    ["layers-table", "--eps-grid", "0.5,nan"],
    # flags the command would ignore
    ["conjecture-check", "--eps-grid", "0.5", "--nl-grid", "3", "--alpha", "0",
     "--eve-layer", "2"],
    ["decoherence-sweep", "--ne-grid", "2", "--eve-layer", "5",
     "--control-mode", "subset"],
    ["layers-table", "--control-mode", "subset"],
    ["pguess-vs-epsilon", "--control-mode", "rank"],
    # a grid that repeats a value would compute and write the point twice
    ["layers-table", "--eps-grid", "0.5", "--nl-grid", "1,1"],
])
def test_rejected_before_any_scenario_runs(args, tmp_path, monkeypatch, capsys):
    def no_scenario(**kwargs):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(experiments, "ScenarioSpec", no_scenario)
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--reps", "1", "--jobs", "1", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["layers-table", "--ne-grid", "4", "--nl-grid", "1,2,3,4"],  # 2 + 4*4 > 14
    ["pguess-vs-epsilon", "--ne-grid", "3,9"],                   # ne = 9 > 8
    ["pguess-vs-epsilon", "--alpha", "nan", "--eps-grid", "0.5", "--ne-grid", "3"],
    ["conjecture-check", "--alpha", "nan", "--eps-grid", "0.5", "--nl-grid", "3"],
    ["pguess-vs-epsilon", "--alpha", "inf", "--eps-grid", "0.5", "--ne-grid", "3"],
])
def test_bad_grid_point_rejected_before_any_point_runs(args, tmp_path, monkeypatch, capsys):
    def no_exchange(spec):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(experiments, "run_exchange_pair", no_exchange)
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--reps", "30", "--jobs", "1", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["missing/x.csv", "."])
def test_bad_output_path_rejected_before_any_point_runs(out, tmp_path, monkeypatch, capsys):
    def no_exchange(spec):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(experiments, "run_exchange_pair", no_exchange)
    args = ["pguess-vs-epsilon", "--eps-grid", "0.5", "--ne-grid", "3", "--reps", "30",
            "--jobs", "1", "--out", str(tmp_path / out)]
    assert run_cli(args) == 2
    assert "output path" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("out_flag, conf", [(["--out", ""], None), ([], "out =\n")])
def test_empty_output_path_exits_2(out_flag, conf, tmp_path, monkeypatch, capsys):
    def no_exchange(spec):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(experiments, "run_exchange_pair", no_exchange)
    monkeypatch.chdir(tmp_path)
    args = ["layers-table", "--reps", "1", "--eps-grid", "0.5", "--nl-grid", "1",
            "--jobs", "1"] + out_flag
    if conf is not None:
        (tmp_path / "sweep.conf").write_text(conf, encoding="utf-8")
        args += ["--config", "sweep.conf"]
    assert run_cli(args) == 2
    assert "output path is empty" in capsys.readouterr().err
    assert list(tmp_path.glob("*.csv")) == []


def test_numerical_contract_violation_returns_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_and_write",
                        lambda cfg: (_ for _ in ()).throw(ContractError("boom")))
    code = run_cli(["layers-table", "--reps", "1", "--jobs", "1"])
    assert code == 3
    assert "contract violation" in capsys.readouterr().err


def test_config_file_and_flag_precedence(tmp_path):
    conf = tmp_path / "sweep.conf"
    conf.write_text(
        "# experiment defaults\n"
        "seed = 11\n"
        "reps = 2\n"
        "eps-grid = 0.5\n"
        "nl_grid = 1,2\n"
        f"out = {tmp_path / 'from_file.csv'}\n",
        encoding="utf-8")
    code = run_cli(["layers-table", "--config", str(conf), "--jobs", "1"])
    assert code == 0
    assert (tmp_path / "from_file.csv").exists()

    # a flag overrides the file value
    code = run_cli(["layers-table", "--config", str(conf), "--jobs", "1",
                    "--out", str(tmp_path / "flag_wins.csv")])
    assert code == 0
    assert (tmp_path / "flag_wins.csv").exists()


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("bogus = 1\n", encoding="utf-8")
    assert run_cli(["layers-table", "--config", str(conf)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_file_syntax_error_exits_2(tmp_path):
    conf = tmp_path / "bad.conf"
    conf.write_text("seed 11\n", encoding="utf-8")
    assert run_cli(["layers-table", "--config", str(conf)]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert run_cli(["layers-table", "--config", str(tmp_path / "nope")]) == 2


def test_eve_layer_flag(tmp_path):
    out = tmp_path / "eve.csv"
    code = run_cli(["layers-table", "--reps", "1", "--jobs", "1",
                    "--eps-grid", "0.5", "--nl-grid", "2",
                    "--eve-layer", "2", "--out", str(out)])
    assert code == 0


def test_control_mode_flag(tmp_path):
    out = tmp_path / "sub.csv"
    code = run_cli(["partial-control-table", "--reps", "1", "--jobs", "1",
                    "--ne-grid", "3", "--control-mode", "subset",
                    "--out", str(out)])
    assert code == 0
    assert "k_out_of_range" in out.read_text(encoding="utf-8")


@pytest.mark.parametrize("args, conf", [
    (["--eps-grid", ","], None),
    (["--eps-grid", "0.5", "--ne-grid", ""], None),
    (["--nl-grid", " , "], None),
    ([], "eps_grid =\n"),
    # a blank entry inside a grid
    (["--eps-grid", "0.5,,0.7"], None),
    (["--nl-grid", "3,"], None),
    (["--nl-grid", ",3"], None),
])
def test_empty_grid_exits_2(args, conf, tmp_path, monkeypatch, capsys):
    def no_scenario(**kwargs):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(experiments, "ScenarioSpec", no_scenario)
    if conf is not None:
        (tmp_path / "sweep.conf").write_text(conf, encoding="utf-8")
        args = args + ["--config", str(tmp_path / "sweep.conf")]
    out = tmp_path / "x.csv"
    code = run_cli(["conjecture-check", "--alpha", "0", "--jobs", "1",
                    "--out", str(out)] + args)
    assert code == 2
    assert "holds no value" in capsys.readouterr().err
    assert not out.exists()


# ------------------------------------------------------- heap policy
# Only the mallopt calls are exercised: no thread or process starts.

HEAP_VARS = ("GLIBC_TUNABLES", "MALLOC_TOP_PAD_", "MALLOC_MMAP_THRESHOLD_",
             "MALLOC_TRIM_THRESHOLD_")
M_TOP_PAD, M_MMAP_THRESHOLD = -2, -3  # glibc's malloc.h


def _clear_heap_vars(monkeypatch):
    for var in HEAP_VARS:
        monkeypatch.delenv(var, raising=False)


def test_heap_policy_sets_mmap_threshold_and_top_pad(tmp_path, monkeypatch):
    calls = []
    _clear_heap_vars(monkeypatch)
    monkeypatch.setattr(cli, "_libc_mallopt",
                        lambda: lambda param, value: calls.append((param, value)) or 1)
    code = run_cli(["conjecture-check", "--eps-grid", "0.5", "--nl-grid", "1",
                    "--alpha", "0", "--jobs", "1", "--out", str(tmp_path / "c.csv")])
    assert code == 0
    settings = dict(calls)
    assert len(calls) == len(settings) == 2
    assert settings[M_MMAP_THRESHOLD] == 32 << 20
    assert settings[M_TOP_PAD] == cli._TOP_PAD
    assert 16 << 20 <= cli._TOP_PAD <= 64 << 20


@pytest.mark.parametrize("var", HEAP_VARS)
def test_heap_policy_leaves_explicit_malloc_tuning_alone(var, monkeypatch):
    def no_lookup():
        raise AssertionError("mallopt was looked up")

    _clear_heap_vars(monkeypatch)
    monkeypatch.setenv(var, "1")
    monkeypatch.setattr(cli, "_libc_mallopt", no_lookup)
    cli._keep_freed_heap()


@pytest.mark.parametrize("lib", [types.SimpleNamespace(), None])
def test_heap_policy_is_a_no_op_without_mallopt(lib, monkeypatch):
    def cdll(path):
        if lib is None:
            raise OSError("no C library")
        return lib

    _clear_heap_vars(monkeypatch)
    monkeypatch.setattr(ctypes, "CDLL", cdll)
    assert cli._libc_mallopt() is None
    cli._keep_freed_heap()


def test_heap_policy_finds_the_real_mallopt():
    mallopt = cli._libc_mallopt()
    if mallopt is None:
        pytest.skip("the C library has no mallopt")
    assert mallopt(M_TOP_PAD, cli._TOP_PAD) == 1
