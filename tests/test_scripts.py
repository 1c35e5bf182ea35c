"""Smoke tests: each script in scripts/ runs to completion on tiny inputs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qhyp.beta import beta_field
from qhyp.domains import FiniteComplement

ROOT = Path(__file__).resolve().parents[1]


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


@pytest.mark.parametrize("script, args, expect", [
    ("beta_grid.py", ["--punctures", "0,0", "1,0", "--nx", "6", "--ny", "4"], "beta range"),
    ("geodesic_demo.py", ["--base", "8", "--rungs", "2"], "final path vertices"),
], ids=["beta_grid", "geodesic_demo"])
def test_script_runs(script, args, expect):
    proc = _run(script, *args)
    assert proc.returncode == 0, proc.stderr
    assert expect in proc.stdout


@pytest.mark.parametrize("script, args", [
    ("beta_grid.py", ["--punctures", "0,0", "1,0", "--nx", "3", "--ny", "2"]),
], ids=["beta_grid"])
def test_script_writes_csv(script, args, tmp_path):
    out = tmp_path / "out.csv"
    proc = _run(script, *args, "--csv", str(out))
    assert proc.returncode == 0, proc.stderr
    assert f"wrote {out}" in proc.stdout
    assert len(out.read_text().splitlines()) > 1


def test_beta_grid_csv_bytes_equal_the_per_value_loop(tmp_path):
    # grid points land on both punctures, where beta is not finite
    out = tmp_path / "beta.csv"
    proc = _run("beta_grid.py", "--punctures", "0,0", "1,0", "--window", "-1", "2", "-1", "1",
                "--nx", "7", "--ny", "5", "--csv", str(out))
    assert proc.returncode == 0, proc.stderr
    xs, ys = np.linspace(-1.0, 2.0, 7), np.linspace(-1.0, 1.0, 5)
    B = beta_field(FiniteComplement([0j, 1 + 0j]), xs[None, :] + 1j * ys[:, None])
    assert not np.isfinite(B).all()
    # the script's writer before it shared the heatmap's
    want = ["re,im,beta\n"]
    for r in range(5):
        for c in range(7):
            want.append(f"{xs[c]:.17g},{ys[r]:.17g},{B[r, c]:.17g}\n")
    assert out.read_bytes() == "".join(want).encode()
