"""Command-line interface: flags, config files, exit codes."""

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
])
def test_rejected_before_any_scenario_runs(args, tmp_path, monkeypatch, capsys):
    def no_scenario(**kwargs):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(experiments, "ScenarioSpec", no_scenario)
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--reps", "1", "--jobs", "1", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


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
