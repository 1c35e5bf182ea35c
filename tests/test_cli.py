"""End-to-end exercises of the command line front end.

Each test drives qhyp.cli.main with an argv list, so argument parsing, JSON
emission, file outputs, and exit codes are covered without spawning
subprocesses.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from qhyp import FiniteComplement
from qhyp.beta import beta_field
from qhyp.cli import _FIELDS, _sample_pairs, main
from qhyp.domains import domain_from_json_text

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


@pytest.mark.parametrize("command", [["geodesic"], ["distance", "--method", "numeric"]])
def test_resolution_zero_is_exit_2(capsys, command):
    rc, out, err = run(capsys, *command, "--domain", ONE_PUNCT,
                       "--from", "1,0", "--to", "0,1", "--resolution", "0")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "at least 8 samples" in err


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
    "chordal-qh-density": ("dd85447267052acaa1dee8690bb4b9648b83efd0adb583907a9e42c0ac1a74d9",
                           0.9829059829059829, 0.40824829046386296, 4.525483399593904),
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


def _heatmap_csv_reference(path, xs, ys, V):
    """The heatmap CSV writer as it was before the vectorized one."""
    fmt = "{:.17g}".format
    xcol = [fmt(x) for x in xs.tolist()]
    with open(path, "w") as fh:
        fh.write("re,im,value\n")
        for i, y in enumerate(ys.tolist()):
            line = ("{}," + fmt(y) + ",{:.17g}\n").format
            fh.write("".join(map(line, xcol, V[i].tolist())))


# the benchmark's field maps at 128x128: the plane minus 16 points
# e^{2 pi i k/16} (1 + 0.5 (k mod 2)), and the upper half-plane
RING16 = json.dumps({"type": "finite_complement", "punctures": [
    [z.real, z.imag] for z in (complex(math.cos(2 * math.pi * k / 16),
                                       math.sin(2 * math.pi * k / 16)) * (1.0 + 0.5 * (k % 2))
                               for k in range(16))]})


@pytest.mark.parametrize("dom_json, field, window", [
    (RING16, "beta", (-2.0, 2.0, -2.0, 2.0)),
    (RING16, "bp-upper", (-2.0, 2.0, -2.0, 2.0)),
    (RING16, "delta", (-2.0, 2.0, -2.0, 2.0)),
    (RING16, "chordal-qh-density", (-2.0, 2.0, -2.0, 2.0)),
    (HALFPLANE, "chordal-qh-density", (-2.0, 2.0, 0.01, 3.0)),
], ids=["ring16-beta", "ring16-bp-upper", "ring16-delta", "ring16-chordal-qh-density",
        "halfplane-chordal-qh-density"])
def test_heatmap_csv_equals_reference_writer(tmp_path, capsys, dom_json, field, window):
    out_csv, ref_csv = tmp_path / "map.csv", tmp_path / "ref.csv"
    rc, _, _ = run(capsys, "heatmap", "--domain", dom_json, "--field", field,
                   "--window", *map(repr, window), "--nx", "128", "--ny", "128",
                   "--out", str(out_csv))
    assert rc == 0
    x0, x1, y0, y1 = window
    xs, ys = np.linspace(x0, x1, 128), np.linspace(y0, y1, 128)
    Z = xs[None, :] + 1j * ys[:, None]
    V = np.asarray(_FIELDS[field](domain_from_json_text(dom_json))(Z), dtype=float)
    _heatmap_csv_reference(ref_csv, xs, ys, V)
    assert out_csv.read_bytes() == ref_csv.read_bytes()


def test_heatmap_sidecar_counts_fallback_values(tmp_path, capsys):
    out_csv = tmp_path / "map.csv"
    # a finite map away from the punctures: every value takes the fast path
    rc, _, _ = run(capsys, "heatmap", "--domain", TWO_PUNCT, "--field", "qh-density",
                   "--window", "0.3", "0.7", "0.2", "0.6", "--nx", "13", "--ny", "9",
                   "--out", str(out_csv))
    assert rc == 0
    assert json.loads((tmp_path / "map.json").read_text())["write_fallback"] == 0
    # the pinned beta map holds nan and inf on the punctures
    rc, _, _ = run(capsys, "heatmap", "--domain", TWO_PUNCT, "--field", "beta",
                   "--window", "-1", "2", "-1", "1", "--nx", "13", "--ny", "9",
                   "--out", str(out_csv))
    assert rc == 0
    sidecar = json.loads((tmp_path / "map.json").read_text())
    non_finite = round((1.0 - sidecar["finite_fraction"]) * 13 * 9)
    assert non_finite > 0 and sidecar["write_fallback"] >= non_finite


def test_heatmap_beta_csv_bytes_equal_the_per_value_loop(tmp_path, capsys):
    # grid points land on both punctures, where beta is not finite
    out_csv = tmp_path / "beta.csv"
    rc, _, _ = run(capsys, "heatmap", "--domain", TWO_PUNCT, "--field", "beta",
                   "--window", "-1", "2", "-1", "1", "--nx", "7", "--ny", "5",
                   "--out", str(out_csv))
    assert rc == 0
    xs, ys = np.linspace(-1.0, 2.0, 7), np.linspace(-1.0, 1.0, 5)
    B = beta_field(domain_from_json_text(TWO_PUNCT), xs[None, :] + 1j * ys[:, None])
    assert not np.isfinite(B).all()
    want = ["re,im,value\n"]
    for r in range(5):
        for c in range(7):
            want.append(f"{xs[c]:.17g},{ys[r]:.17g},{B[r, c]:.17g}\n")
    assert out_csv.read_bytes() == "".join(want).encode()


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


@pytest.mark.parametrize("horizon, ok", [("1", True), ("0", False), ("-1", False)])
def test_up_check_horizon_below_one_is_exit_2(capsys, horizon, ok):
    spec = ('{"points": [[0, 0]], '
            '"families": [{"center": [0, 0], "ratio": 4, "scale": 1}]}')
    rc, out, err = run(capsys, "up-check", "--set", spec, "--horizon", horizon)
    if ok:
        assert rc == 0
        assert json.loads(out)["sup_modulus"] == pytest.approx(math.log(4.0), rel=1e-12)
    else:
        assert rc == 2 and out == ""
        assert err.startswith("error:") and "horizon must be at least 1" in err


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


@pytest.mark.parametrize("pairs", ["0", "-3"])
def test_qi_verify_pairs_below_one_is_exit_2(capsys, pairs):
    rc, out, err = run(capsys, "qi-verify", "--domain", TWO_PUNCT,
                       "--pairs", pairs)
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "--pairs must be at least 1" in err


@pytest.mark.parametrize("seed, digest", [
    (0, "7d1fdc46b37e7e5ffb894ee630162ba6f99673ed828746c37e73fdf3baa6bf1f"),
    (1, "f0ca2d99e398354d35bf5fc72f1556a9921871f21e633d5831ab57121bb384b5"),
    (2, "c26ece6c201f112f32bca2b7eaeee0e1ba7267bc3f18a95f4b8e21e4ee4272e4"),
])
def test_sample_pairs_pinned(seed, digest):
    # the draws of qi-verify and of the benchmark's verify workload
    dom = FiniteComplement([0.0, 1.0])
    pairs = _sample_pairs(dom, 12, seed)
    text = ";".join(f"{z.real.hex()},{z.imag.hex()}" for pair in pairs for z in pair)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert _sample_pairs(dom, 4, seed) == pairs[:4]


def test_qi_verify_window_missing_the_domain_is_exit_2(capsys):
    far_disk = ('{"type": "translated_scaled", "base": {"type": "unit_disk"}, '
                '"scale": [1, 0], "shift": [100, 0]}')
    t0 = time.perf_counter()
    rc, out, err = run(capsys, "qi-verify", "--domain", far_disk, "--pairs", "2")
    assert time.perf_counter() - t0 < 5.0
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "found 0 of 2 pairs in 2000 draws" in err


@pytest.mark.parametrize("axis", ["--nx", "--ny"])
def test_heatmap_empty_grid_is_exit_2(tmp_path, capsys, axis):
    out_csv = tmp_path / "beta.csv"
    rc, _, err = run(capsys, "heatmap", "--domain", TWO_PUNCT,
                     "--field", "beta", "--window", "-1", "2", "-1", "1",
                     axis, "0", "--out", str(out_csv))
    assert rc == 2
    assert err.startswith("error:") and axis in err
    assert not out_csv.exists()


@pytest.mark.parametrize("field", ["beta", "delta"])
@pytest.mark.parametrize("window", [("-1", "inf", "-1", "1"), ("-1", "2", "nan", "1"),
                                    ("-1e308", "1e308", "-1", "1"),
                                    ("-inf", "1", "0.1", "1"), ("-1", "2", "-NaN", "1")],
                         ids=["inf-bound", "nan-bound", "inf-span",
                              "minus-inf-bound", "minus-nan-bound"])
def test_heatmap_non_finite_window_is_exit_2(tmp_path, capsys, field, window):
    out_csv = tmp_path / "map.csv"
    rc, _, err = run(capsys, "heatmap", "--domain", TWO_PUNCT, "--field", field,
                     "--window", *window, "--out", str(out_csv))
    assert rc == 2
    assert err.startswith("error:") and "--window" in err
    assert not out_csv.exists()


@pytest.mark.parametrize("point", ["-inf,1", "-Infinity,1", "-nan,1"])
def test_distance_negative_non_finite_point_is_exit_2(capsys, point):
    # a value starting with a minus sign must reach the point check, not be
    # read as an unknown flag
    rc, _, err = run(capsys, "distance", "--domain", TWO_PUNCT,
                     "--from", point, "--to", "1,1")
    assert rc == 2
    assert err.startswith("error:") and "non-finite" in err


def test_counterexample_table_and_csv(tmp_path, capsys):
    csv = tmp_path / "table.csv"
    rc, out, _ = run(capsys, "counterexample", "--max-n", "4",
                     "--csv", str(csv))
    assert rc == 0
    rows = [ln for ln in out.splitlines() if ln.startswith("n=")]
    assert len(rows) == 4
    # the first row has no certified hyperbolic upper bound yet
    assert "-" in rows[0]
    # criterion 11: the gap is negative at n = 3 and positive from n = 4
    assert "certified gap turns positive at n = 4" in out
    header = csv.read_text().splitlines()[0]
    assert header.startswith("n,")
    assert f"wrote {csv}" in out
    rc, out, _ = run(capsys, "counterexample", "--max-n", "2")
    assert rc == 0 and "no positive gap yet; raise --max-n" in out


def test_counterexample_past_the_double_range_is_exit_2(capsys):
    rc, out, _ = run(capsys, "counterexample", "--max-n", "10")
    assert rc == 0 and len([ln for ln in out.splitlines() if ln.startswith("n=")]) == 10
    rc, out, err = run(capsys, "counterexample", "--max-n", "11")
    assert rc == 2 and out == ""
    assert err.startswith("error:") and "max_n must be at most 10" in err


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
