"""Smoke tests: each script in scripts/ runs to completion on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("script, args, expect", [
    ("beta_grid.py", ["--punctures", "0,0", "1,0", "--nx", "6", "--ny", "4"], "beta range"),
    ("counterexample_table.py", ["--max-n", "3"], "k lower"),
    ("geodesic_demo.py", ["--base", "8", "--rungs", "2"], "final path vertices"),
], ids=["beta_grid", "counterexample_table", "geodesic_demo"])
def test_script_runs(script, args, expect):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


@pytest.mark.parametrize("script, args", [
    ("beta_grid.py", ["--punctures", "0,0", "1,0", "--nx", "3", "--ny", "2"]),
    ("counterexample_table.py", ["--max-n", "2"]),
], ids=["beta_grid", "counterexample_table"])
def test_script_writes_csv(script, args, tmp_path):
    out = tmp_path / "out.csv"
    proc = _run(script, *args, "--csv", str(out))
    assert proc.returncode == 0, proc.stderr
    assert f"wrote {out}" in proc.stdout
    assert len(out.read_text().splitlines()) > 1
