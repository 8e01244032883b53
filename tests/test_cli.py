"""Command-line interface: flags, config files, exit codes, heap policy."""

import contextlib
import ctypes
import io
import os
import signal
import stat
import subprocess
import sys
import tempfile
import types
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdleak import cli, experiments
from qdleak.errors import ContractError

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


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


def test_flags_may_precede_the_command(tmp_path):
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    flags = ["--seed", "7", "--jobs", "1", "--reps", "2", "--eps-grid", "0.5,0.9",
             "--nl-grid", "1"]
    assert run_cli(flags + ["layers-table", "--out", str(before)]) == 0
    assert run_cli(["layers-table"] + flags + ["--out", str(after)]) == 0
    assert before.read_bytes() == after.read_bytes()


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(["--help"])
    assert err.value.code == 0
    out = capsys.readouterr().out
    assert all(command in out for command in cli._COMMANDS)


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
    # an abbreviated flag is refused by argparse, whatever its value
    ["pguess-vs-epsilon", "--eps", "0.5"],
    ["pguess-vs-epsilon", "--eps", "-0.0,0.5"],
    # a depth the command never reads
    ["decoherence-sweep", "--nl-grid", "2"],
])
def test_rejected_before_any_scenario_runs(args, tmp_path, monkeypatch, capsys):
    def no_scenario(**kwargs):
        raise AssertionError("a scenario ran")

    monkeypatch.setattr(experiments, "ScenarioSpec", no_scenario)
    out = tmp_path / "x.csv"
    try:
        code = run_cli(args + ["--reps", "1", "--jobs", "1", "--out", str(out)])
        message = "configuration error"
    except SystemExit as exc:
        code, message = exc.code, f"unrecognized arguments: {' '.join(args[1:])}"
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["layers-table", "--ne-grid", "4", "--nl-grid", "1,2,3,4"],  # 2 + 4*4 > 14
    ["pguess-vs-epsilon", "--ne-grid", "3,9"],                   # ne = 9 > 8
    ["pguess-vs-epsilon", "--alpha", "nan", "--eps-grid", "0.5", "--ne-grid", "3"],
    ["conjecture-check", "--alpha", "nan", "--eps-grid", "0.5", "--nl-grid", "3"],
    ["pguess-vs-epsilon", "--alpha", "inf", "--eps-grid", "0.5", "--ne-grid", "3"],
    # 0 is a value, not an unset eve_layer to fill with the default 1
    ["layers-table", "--eve-layer", "0"],
])
def test_bad_grid_point_rejected_before_any_point_runs(args, tmp_path, monkeypatch, capsys):
    def no_exchange(spec):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(experiments, "run_exchange_pair", no_exchange)
    out = tmp_path / "x.csv"
    assert run_cli(args + ["--reps", "30", "--jobs", "1", "--out", str(out)]) == 2
    assert "configuration error" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("out", ["missing/x.csv", ".", "fifo"])
def test_bad_output_path_rejected_before_any_point_runs(out, tmp_path, monkeypatch, capsys):
    def no_exchange(spec):
        raise AssertionError("a grid point ran")

    monkeypatch.setattr(experiments, "run_exchange_pair", no_exchange)
    if out == "fifo":
        # a node that exists but is no regular file: the rename would replace it
        os.mkfifo(tmp_path / out)
    args = ["pguess-vs-epsilon", "--eps-grid", "0.5", "--ne-grid", "3", "--reps", "30",
            "--jobs", "1", "--out", str(tmp_path / out)]
    assert run_cli(args) == 2
    assert "output path" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()
    if out == "fifo":
        assert stat.S_ISFIFO(os.lstat(tmp_path / out).st_mode)


def test_unwritable_output_directory_exits_2_before_any_point_runs(tmp_path, monkeypatch,
                                                                    capsys):
    # a permission check would pass as root, so the refusal is simulated
    def no_exchange(spec):
        raise AssertionError("a grid point ran")

    def refuse(path, *args, **kwargs):
        raise PermissionError(13, "Permission denied", str(path))

    monkeypatch.setattr(experiments, "run_exchange_pair", no_exchange)
    monkeypatch.setattr(experiments, "open", refuse, raising=False)
    out = tmp_path / "x.csv"
    args = ["pguess-vs-epsilon", "--eps-grid", "0.5", "--ne-grid", "3", "--reps", "30",
            "--jobs", "1", "--out", str(out)]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err and "Permission denied" in err
    assert list(tmp_path.iterdir()) == []


def test_output_probe_leaves_no_file_behind(tmp_path):
    out = tmp_path / "layers.csv"
    assert run_cli(["layers-table", "--reps", "1", "--eps-grid", "0.5", "--nl-grid", "1",
                    "--jobs", "1", "--out", str(out)]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["layers.csv"]


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


def test_cli_import_leaves_multiprocessing_out():
    # only a --jobs pool needs it; a fresh interpreter sees what the import pulls in
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = "import sys, qdleak.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_numerical_contract_violation_returns_3(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_and_write",
                        lambda cfg: (_ for _ in ()).throw(ContractError("boom")))
    code = run_cli(["layers-table", "--reps", "1", "--jobs", "1"])
    assert code == 3
    assert "contract violation" in capsys.readouterr().err


def test_contract_violation_in_a_worker_returns_3(tmp_path, monkeypatch, capsys):
    # the workers fork, so they inherit the patched measurement
    def violated(spec):
        raise ContractError("boom in a worker")

    monkeypatch.setattr(experiments, "run_exchange_pair", violated)
    monkeypatch.setattr(experiments, "_cpu_count", lambda: 2)
    out = tmp_path / "x.csv"
    code = run_cli(["layers-table", "--reps", "1", "--eps-grid", "0.5,0.7", "--nl-grid", "1",
                    "--jobs", "2", "--out", str(out)])
    assert code == 3
    assert "boom in a worker" in capsys.readouterr().err
    assert not out.exists()


# a grid point that kills its worker process, as the kernel's OOM killer would
_DYING_WORKER = """
import os, sys
from qdleak import cli, experiments
parent = os.getpid()

def die(spec):
    if os.getpid() == parent:
        sys.exit("a grid point ran in the parent process")
    os._exit(1)

experiments.run_exchange_pair = die
experiments._cpu_count = lambda: 2
sys.exit(cli.main(sys.argv[1:]))
"""


def test_a_dying_worker_ends_the_sweep_with_exit_1(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    args = ["layers-table", "--reps", "1", "--eps-grid", "0.5,0.7", "--nl-grid", "1",
            "--jobs", "2", "--out", str(tmp_path / "x.csv")]
    # its own process group, so that no worker outlives a hung sweep
    proc = subprocess.Popen([sys.executable, "-c", _DYING_WORKER, *args], env=env,
                            cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the sweep still waited for its dead worker after 60 s")
    assert proc.returncode == 1, err
    assert "BrokenProcessPool" in err
    assert not (tmp_path / "x.csv").exists()


def test_config_keys_are_the_parsers_value_flags():
    # _VALUE_FLAGS and the config file read _CONFIG_KEYS; the parser is the source
    flags = {opt for action in cli.build_parser()._actions for opt in action.option_strings}
    assert flags - {"-h", "--help", "--config"} == \
        {"--" + key.replace("_", "-") for key in cli._CONFIG_KEYS}


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

    # so does a flag placed before the command
    code = run_cli(["--out", str(tmp_path / "flag_first.csv"), "--config", str(conf),
                    "layers-table", "--jobs", "1"])
    assert code == 0
    assert (tmp_path / "flag_first.csv").exists()


def test_config_file_unknown_key_exits_2(tmp_path, capsys):
    conf = tmp_path / "bad.conf"
    conf.write_text("bogus = 1\n", encoding="utf-8")
    assert run_cli(["layers-table", "--config", str(conf)]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_config_file_with_byte_order_mark_is_read(tmp_path):
    conf = tmp_path / "bom.conf"
    conf.write_text("seed = 7\n", encoding="utf-8-sig")
    assert conf.read_bytes().startswith(b"\xef\xbb\xbf")
    common = ["conjecture-check", "--eps-grid", "0.5", "--nl-grid", "1", "--jobs", "1"]
    assert run_cli(common + ["--config", str(conf), "--out", str(tmp_path / "file.csv")]) == 0
    assert run_cli(common + ["--seed", "7", "--out", str(tmp_path / "flag.csv")]) == 0
    assert (tmp_path / "file.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


def test_config_file_repeated_key_exits_2(tmp_path, capsys):
    out = tmp_path / "twice.csv"
    conf = tmp_path / "twice.conf"
    # eve-layer and eve_layer are one key
    for text, lines in (("seed = 7\nreps = 1\nseed = 8\n", (1, 3)),
                        ("eve-layer = 1\neve_layer = 1\n", (1, 2))):
        conf.write_text(text, encoding="utf-8")
        assert run_cli(["layers-table", "--config", str(conf), "--jobs", "1",
                        "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{conf}:{lines[1]}:" in err and f"line {lines[0]}" in err
        assert not out.exists()


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


@pytest.mark.parametrize("command, extra", [
    ("pguess-vs-epsilon", ["--ne-grid", "1"]),
    ("decoherence-sweep", ["--ne-grid", "1"]),
    ("conjecture-check", ["--nl-grid", "1,2"]),
])
def test_negative_zero_names_the_zero_point(command, extra, tmp_path):
    # seeds hash repr() of epsilon and alpha, and repr(-0.0) is not repr(0.0);
    # "-0.0,0.5" given as a separate argument must still be read as the value
    base = [command, "--reps", "2", "--jobs", "1"] + extra
    paths = []
    for zero, joined in (("0.0", True), ("-0.0", True), ("-0.0", False)):
        path = tmp_path / f"{zero}{joined}.csv"
        flags = [] if command == "decoherence-sweep" and zero == "0.0" else [("--alpha", zero)]
        flags.append(("--eps-grid", f"{zero},0.5"))
        args = []
        for flag, value in flags:
            args += [f"{flag}={value}"] if joined else [flag, value]
        assert run_cli(base + args + ["--out", str(path)]) == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes() == paths[2].read_bytes()
    assert "-0.0" not in paths[1].read_text(encoding="utf-8")


# ------------------------------------------------- input property test
# Every input either runs (exit 0, one "wrote" line) or is refused with exit
# 2 and one error line: no traceback, no warning, no exit 3. Grids are tiny
# and repetitions at most 2, so a run that is accepted takes milliseconds;
# --jobs is at most 2.

EPS = ("0", "0.5", "1", "-0.0", "1e-3")
REFUSED = {
    "eps_grid": ("nan", "inf", "-inf", "1.5", "-0.1", "", " ", "0.5,0.5", "0.0,-0.0", "x"),
    "ne_grid": ("0", "-1", "15", "2.5", "", "2,2", "1,,2", "x"),
    "nl_grid": ("0", "9", "", "1,1", "x"),
    "seed": ("-1", "18446744073709551616", "1.5", "0x10", "x"),
    "reps": ("0", "-3", "x"),
    "jobs": ("0", "-1", "x"),
    "alpha": ("nan", "inf", "-inf", "x"),
    "eve_layer": ("0", "9", "x"),
    "control_mode": ("bogus",),
}


def _grid(draw, tokens):
    return ",".join(draw(st.lists(st.sampled_from(tokens), min_size=1, max_size=2,
                                  unique=True)))


def _accepted(draw, command):
    """Settings the command accepts, each drawn from a small range."""
    values = {"eps_grid": _grid(draw, EPS), "reps": draw(st.sampled_from(["1", "2"])),
              "jobs": draw(st.sampled_from(["1", "2"]))}
    if command == "conjecture-check":
        values["nl_grid"] = _grid(draw, ("1", "2", "3"))
    elif command == "layers-table":
        values["ne_grid"] = draw(st.sampled_from(["1", "2", "3"]))
        values["nl_grid"] = _grid(draw, ("1", "2"))
    else:
        values["ne_grid"] = _grid(draw, ("1", "2", "3"))
        # a rejected round reads no layer past the first
        depths = ["1"] if command == "decoherence-sweep" else ["1", "2"]
        values["nl_grid"] = draw(st.sampled_from(depths))
    optional = {"seed": ("0", "7", "18446744073709551615")}
    if command != "decoherence-sweep":
        optional["alpha"] = ("0", "-0.0", "0.3", "1e308")
    if command not in ("decoherence-sweep", "conjecture-check"):
        optional["eve_layer"] = ("1",)
    if command == "partial-control-table":
        optional["control_mode"] = ("rank", "subset")
    for key, tokens in optional.items():
        if draw(st.booleans()):
            values[key] = draw(st.sampled_from(tokens))
    return values


@st.composite
def cli_inputs(draw):
    """(argv without --out, config-file bytes or None).

    A setting the command accepts, with up to two of its values replaced
    by refused ones.
    """
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    values = _accepted(draw, command)
    for _ in range(draw(st.sampled_from([0, 0, 1, 1, 2]))):
        key = draw(st.sampled_from(sorted(REFUSED)))
        values[key] = draw(st.sampled_from(REFUSED[key]))
    argv = [command]
    lines = []
    for key, value in values.items():
        flag = f"--{key.replace('_', '-')}"
        if draw(st.booleans()):
            # "-0.0,1" or "-inf" is read as the value in either form
            argv += draw(st.sampled_from([[f"{flag}={value}"], [flag, value]]))
        else:
            lines.append(f"{draw(st.sampled_from([key, key.replace('_', '-')]))} = {value}")
    if draw(st.integers(0, 4)) == 0:
        lines.append(draw(st.sampled_from(["colour = red", "no equals sign", "# note"])))
    conf = None
    if lines or draw(st.booleans()):
        text = "\n".join(draw(st.permutations(lines))) + "\n"
        conf = text.encode()
        if all(draw(st.booleans()) for _ in range(3)):
            # a file that is not UTF-8
            conf = text.encode("utf-16") if draw(st.booleans()) else b"\xff" + conf
    return argv, conf


def _run_captured(argv):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue(), caught


@settings(derandomize=True, deadline=None, max_examples=150)
@given(cli_inputs())
def test_any_input_runs_or_exits_2_with_one_line(case):
    argv, conf = case
    with tempfile.TemporaryDirectory() as tmp:
        argv = argv + ["--out", os.path.join(tmp, "out.csv")]
        if conf is not None:
            with open(os.path.join(tmp, "sweep.conf"), "wb") as fh:
                fh.write(conf)
            argv += ["--config", os.path.join(tmp, "sweep.conf")]
        code, out, err, caught = _run_captured(argv)
    assert not caught, [str(w.message) for w in caught]
    assert "Traceback" not in err
    assert code in (0, 2), (code, err)
    if code == 0:
        assert err == ""
        assert len(out.splitlines()) == 1 and out.startswith("wrote ")
        return
    lines = err.splitlines()
    if len(lines) == 1:
        assert lines[0].startswith("qdleak: configuration error: ")
    else:
        # argparse prints its usage, then its one error line
        assert lines[0].startswith("usage: qdleak ")
        assert [line for line in lines if "error" in line] == lines[-1:]
        assert lines[-1].startswith("qdleak: error: ")


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
