"""End-to-end exercises of the command line front end.

Each test drives qhyp.cli.main with an argv list, so argument parsing, JSON
emission, file outputs, and exit codes are covered without spawning
subprocesses.
"""

import hashlib
import json
import math

import pytest

from qhyp.cli import main

HALFPLANE = '{"type": "upper_half_plane"}'
ONE_PUNCT = '{"type": "finite_complement", "punctures": [[0.0, 0.0]]}'
TWO_PUNCT = '{"type": "finite_complement", "punctures": [[0.0, 0.0], [1.0, 0.0]]}'


def run(capsys, *argv):
    rc = main(list(argv))
    out, err = capsys.readouterr()
    return rc, out, err


def test_distance_one_puncture_encloses_exact(capsys):
    rc, out, _ = run(capsys, "distance", "--domain", ONE_PUNCT,
                     "--from", "1,0", "--to", str(math.e) + ",0")
    assert rc == 0
    d = json.loads(out)["distance"]
    assert d["lower"] <= 1.0 <= d["upper"]
    assert d["lower"] > 0.0


def test_distance_accepts_negative_coordinates(capsys):
    # a leading minus in an option value must not be mistaken for a flag
    rc, out, _ = run(capsys, "distance", "--domain", ONE_PUNCT,
                     "--from", "-0.5,0", "--to", "-2,0")
    assert rc == 0
    d = json.loads(out)["distance"]
    assert d["lower"] <= math.log(4.0) <= d["upper"]


def test_distance_h_halfplane_is_exact(capsys):
    rc, out, _ = run(capsys, "distance", "--domain", HALFPLANE,
                     "--metric", "h", "--from", "0,1", "--to", "0,2")
    assert rc == 0
    d = json.loads(out)["distance"]
    assert d["lower"] == pytest.approx(math.log(2.0), abs=1e-12)
    assert d["upper"] == pytest.approx(math.log(2.0), abs=1e-12)


def test_distance_numeric_method(capsys):
    rc, out, _ = run(capsys, "distance", "--domain", ONE_PUNCT,
                     "--method", "numeric", "--resolution", "64",
                     "--from", "1,0", "--to", "0,1")
    assert rc == 0
    d = json.loads(out)["distance"]
    assert d["lower"] <= math.pi / 2.0 <= d["upper"]


def test_geodesic_writes_csv(tmp_path, capsys):
    csv = tmp_path / "path.csv"
    rc, out, _ = run(capsys, "geodesic", "--domain", ONE_PUNCT,
                     "--from", "1,0", "--to", "0,1",
                     "--resolution", "32", "--csv", str(csv))
    assert rc == 0
    payload = json.loads(out)
    lines = csv.read_text().strip().splitlines()
    assert lines[0] == "re,im"
    first = [float(v) for v in lines[1].split(",")]
    last = [float(v) for v in lines[-1].split(",")]
    assert first == pytest.approx([1.0, 0.0], abs=1e-12)
    assert last == pytest.approx([0.0, 1.0], abs=1e-12)
    assert len(lines) - 1 == len(payload["path"])


def test_geodesic_truncates_long_paths(capsys):
    rc, out, _ = run(capsys, "geodesic", "--domain", ONE_PUNCT,
                     "--from", "1,0", "--to", "0,1",
                     "--resolution", "32", "--max-vertices", "4")
    assert rc == 0
    payload = json.loads(out)
    assert len(payload["path"]) == 4
    assert payload["path_truncated"] is True


def test_geodesic_negative_max_vertices_is_exit_2(capsys):
    rc, out, err = run(capsys, "geodesic", "--domain", ONE_PUNCT,
                       "--from", "1,0", "--to", "0,1",
                       "--resolution", "32", "--max-vertices", "-3")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "--max-vertices" in err and "-3" in err


def test_heatmap_grid_and_sidecar(tmp_path, capsys):
    out_csv = tmp_path / "beta.csv"
    rc, out, _ = run(capsys, "heatmap", "--domain", TWO_PUNCT,
                     "--field", "beta", "--window", "-1", "2", "-1", "1",
                     "--nx", "8", "--ny", "6", "--out", str(out_csv))
    assert rc == 0
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "re,im,value"
    assert len(lines) == 1 + 8 * 6
    sidecar = json.loads((tmp_path / "beta.json").read_text())
    assert sidecar["nx"] == 8 and sidecar["ny"] == 6
    assert 0.0 < sidecar["finite_fraction"] <= 1.0
    assert sidecar["field_s"] >= 0.0 and sidecar["write_s"] >= 0.0
    assert "wrote" in out


# SHA-256 of each CSV and the sidecar's (finite_fraction, min, max) on a
# 13x9 grid over [-1, 2] x [-1, 1] in the plane minus {0, 1}; grid points
# land on both punctures, so the maps hold nan and inf
HEATMAP_PINS = {
    "beta": ("940ef8c068a503c4b884a566d61ff2448b940440314a61b2a51b690f389ecc79",
             0.9829059829059829, 0.0, 1.3862943611198906),
    "bp-upper": ("7dd401793b7c1782537eb2188ad2a4e1327b0e6db1de5574ae1096d219c9d2bd",
                 0.9316239316239316, 3.2048625910656305, 50.2731804351739),
    "delta": ("5d765c5b050aab2558d482b7adb09cb640b299e52d82db72d7e6696b6820f704",
              1.0, 0.0, 1.4142135623730951),
    "qh-density": ("7883a03925d437fa43a4079d9da6a1a5d4b4796acb2984ce6300cd5aa46f9316",
                   0.9829059829059829, 0.7071067811865475, 4.0),
}


@pytest.mark.parametrize("field", sorted(HEATMAP_PINS))
def test_heatmap_csv_bytes_pinned(tmp_path, capsys, field):
    out_csv = tmp_path / "map.csv"
    rc, _, _ = run(capsys, "heatmap", "--domain", TWO_PUNCT, "--field", field,
                   "--window", "-1", "2", "-1", "1", "--nx", "13", "--ny", "9",
                   "--out", str(out_csv))
    assert rc == 0
    digest, finite_fraction, lo, hi = HEATMAP_PINS[field]
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == digest
    sidecar = json.loads((tmp_path / "map.json").read_text())
    assert (sidecar["finite_fraction"], sidecar["min"], sidecar["max"]) == (
        finite_fraction, lo, hi)


def test_beta_map_reports(capsys):
    deep = ('{"type": "finite_complement", "punctures": '
            '[[0.0, 0.0], [%r, 0.0]]}' % math.exp(6))
    rc, out, _ = run(capsys, "beta-map", "--domain", deep,
                     "--at", "1,0", "--at", "-1,0")
    assert rc == 0
    payload = json.loads(out)
    by_point = {tuple(r["point"]): r for r in payload["reports"]}
    assert by_point[(1.0, 0.0)]["value"] == pytest.approx(6.0, abs=1e-12)
    assert by_point[(-1.0, 0.0)]["value"] >= 0.0


def test_up_check_geometric_family(tmp_path, capsys):
    spec = tmp_path / "set.json"
    spec.write_text(json.dumps({
        "points": [[0.0, 0.0]],
        "families": [{"center": [0.0, 0.0], "ratio": 4.0, "scale": 1.0}],
    }))
    rc, out, _ = run(capsys, "up-check", "--set", str(spec))
    assert rc == 0
    payload = json.loads(out)
    assert payload["unbounded"] is False
    assert payload["sup_modulus"] == pytest.approx(math.log(4.0), rel=1e-12)


def test_qi_verify_identity_on_halfplane(capsys):
    rc, out, _ = run(capsys, "qi-verify", "--domain", HALFPLANE,
                     "--mode", "identity", "--pairs", "6", "--seed", "1")
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "identity"
    assert payload["report"]["ok"] is True
    assert payload["report"]["pairs"] == 6


def test_qi_verify_global_two_punctures(capsys):
    rc, out, _ = run(capsys, "qi-verify", "--domain", TWO_PUNCT,
                     "--mode", "global", "--pairs", "4", "--seed", "0")
    assert rc == 0
    payload = json.loads(out)
    assert payload["mode"] == "global"
    assert payload["report"]["ok"] is True
    assert payload["map"]["additive_constant"] > 0.0
    rep = payload["report"]
    assert (rep["proved"], rep["violated"], rep["inconclusive"]) == (4, 0, 0)


CHARTS = {"punctures": [[0.0, 0.0], [1.0, 0.0]], "radii": [0.25, 0.25],
          "xis": [[1.0, 0.0], [0.0, 0.0]], "r_inf": 5.0, "xi_inf": [1.0, 0.0]}


def test_qi_verify_config_is_parsed(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CHARTS))
    rc, out, _ = run(capsys, "qi-verify", "--domain", TWO_PUNCT, "--mode", "global",
                     "--pairs", "1", "--config", str(cfg))
    assert rc == 0
    assert json.loads(out)["map"]["radii"] == [0.25, 0.25]


@pytest.mark.parametrize("key", sorted(CHARTS))
def test_qi_verify_config_missing_key_is_exit_2(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in CHARTS.items() if k != key}))
    rc, _, err = run(capsys, "qi-verify", "--domain", TWO_PUNCT, "--mode", "global",
                     "--pairs", "1", "--config", str(cfg))
    assert rc == 2
    assert err.startswith("error:") and repr(key) in err


def test_qi_verify_config_malformed_value_is_exit_2(capsys):
    bad = json.dumps(dict(CHARTS, radii=[0.25, "wide"]))
    rc, _, err = run(capsys, "qi-verify", "--domain", TWO_PUNCT, "--mode", "global",
                     "--pairs", "1", "--config", bad)
    assert rc == 2
    assert "radii[1]" in err


@pytest.mark.parametrize("axis", ["--nx", "--ny"])
def test_heatmap_empty_grid_is_exit_2(tmp_path, capsys, axis):
    out_csv = tmp_path / "beta.csv"
    rc, _, err = run(capsys, "heatmap", "--domain", TWO_PUNCT,
                     "--field", "beta", "--window", "-1", "2", "-1", "1",
                     axis, "0", "--out", str(out_csv))
    assert rc == 2
    assert err.startswith("error:") and axis in err
    assert not out_csv.exists()


def test_counterexample_table_and_csv(tmp_path, capsys):
    csv = tmp_path / "table.csv"
    rc, out, _ = run(capsys, "counterexample", "--max-n", "4",
                     "--csv", str(csv))
    assert rc == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("n=")]
    assert len(rows) == 4
    # the first row has no certified hyperbolic upper bound yet
    assert "-" in rows[0]
    header = csv.read_text().splitlines()[0]
    assert header.startswith("n,")
    assert f"wrote {csv}" in out


def test_verify_all_subset(capsys):
    rc, out, _ = run(capsys, "verify-all", "--criteria", "1,9")
    assert rc == 0
    assert "PASS  criterion 01" in out
    assert "PASS  criterion 09" in out
    assert "2/2 criteria passed" in out


@pytest.mark.parametrize("criteria, named", [("99", "99"), ("5,99", "99"),
                                              ("0,1", "0")])
def test_verify_all_unknown_criterion_is_exit_2(capsys, criteria, named):
    rc, out, err = run(capsys, "verify-all", "--criteria", criteria)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and f"unknown criterion {named} " in err


def test_bad_domain_schema_is_exit_2(capsys):
    rc, _, err = run(capsys, "distance", "--domain", '{"type": "nope"}',
                     "--from", "0,1", "--to", "0,2")
    assert rc == 2
    assert "error:" in err


def test_point_outside_domain_is_exit_2(capsys):
    rc, _, err = run(capsys, "distance", "--domain", ONE_PUNCT,
                     "--from", "0,0", "--to", "1,0")
    assert rc == 2
    assert "error:" in err


def test_usage_errors_are_exit_2(capsys):
    rc, _, _ = run(capsys, "distance", "--domain", ONE_PUNCT,
                   "--from", "1,0", "--to", "2,0", "--metric", "bogus")
    assert rc == 2
    rc, _, _ = run(capsys)
    assert rc == 2
