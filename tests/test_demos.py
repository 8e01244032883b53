"""Every demo script, and README's library tour, runs to completion.

Demos run from a clean working directory; their output does not depend on
Python's per-process string hashing.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


def run_demo(demo, cwd, **env_vars):
    env = dict(os.environ, **env_vars)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(demo)], cwd=cwd, env=env,
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    assert run_demo(demo, tmp_path).strip()


def test_decoherence_demo_prints_the_same_table_whatever_the_hash_seed(tmp_path):
    demo = ROOT / "demos" / "04_decoherence_layers.py"
    assert run_demo(demo, tmp_path, PYTHONHASHSEED="1") == \
        run_demo(demo, tmp_path, PYTHONHASHSEED="2")


def test_readme_library_tour_runs(capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("## Library tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()
