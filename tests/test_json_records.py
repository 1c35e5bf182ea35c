"""The JSON writer: every result record round-trips through ``json`` and
writes each complex number as an [re, im] pair."""

import dataclasses
import json
import math

from qhyp import (
    INF,
    Annulus,
    BPDecayReport,
    DistanceInterval,
    FiniteComplement,
    Polyline,
    TranslatedScaled,
    UnitDisk,
    UpperHalfPlane,
    bp_lambda_bounds,
    build_global_qi_map,
    check_abc,
    check_annulus_k_comparison,
    check_bp_decay,
    chordal_up_to_euclidean_bound,
    domain_from_json,
    fat_annulus_witness,
    to_json,
    up_modulus_sup,
    verify_rough_isometry,
)
from qhyp import solver as solver_module
from qhyp.domains import ComplementPoint


def _round_trip(record) -> dict:
    """``record.as_dict()``, checked to survive ``json`` unchanged and to
    hold each complex field as its [re, im] pair."""
    out = record.as_dict()
    assert json.loads(json.dumps(out)) == out
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, complex):
            assert out[f.name] == [value.real, value.imag]
    return out


def test_to_json_conversions():
    assert to_json(1.5 - 2j) == [1.5, -2.0]
    assert to_json(INF) == "infinity"
    assert to_json(Annulus(1j, inner=0.5, outer=2.0)) == {
        "center": [0.0, 1.0], "inner": 0.5, "outer": 2.0}
    assert to_json(Polyline([0, 1 + 1j])) == [[0.0, 0.0], [1.0, 1.0]]
    assert to_json((1, (2j,), {"k": math.inf})) == [1, [[0.0, 2.0]], {"k": math.inf}]
    dom = TranslatedScaled(FiniteComplement([0, 1]), 2j, 1.0)
    assert to_json(dom) == dom.to_json_dict()
    assert domain_from_json(to_json(dom)) == dom
    assert to_json(None) is None and to_json("x") == "x" and to_json(True) is True


def test_bp_bounds_without_an_upper_bound():
    # the exponent vanishes on the unit disk: the upper end is unbounded
    out = _round_trip(bp_lambda_bounds(UnitDisk(), 0.25 + 0.5j))
    assert out["upper_available"] is False and out["upper"] == math.inf
    assert "Infinity" in json.dumps(out)


def test_bp_decay_report():
    dom = FiniteComplement([0.0, -math.exp(-5.0), -math.exp(5.0)])
    _round_trip(check_bp_decay(dom, Annulus(0.0, d=1.0, m=5.0), samples=20))
    bad = BPDecayReport(ok=False, samples=1, violations=1, worst_low=0.4, worst_high=1.0,
                        examples=((0.5 + 0.25j, 0.1, 0.2, 0.8),))
    assert _round_trip(bad)["examples"] == [[[0.5, 0.25], 0.1, 0.2, 0.8]]


def test_abc_report_with_a_violation():
    dom = FiniteComplement([0.0, 100.0])
    ann = Annulus(0.0, d=1.0, m=math.log(2.0))
    bad = Polyline([0.01, 50.0, 0.01 + 0.005j, 50.0 + 1.0j])
    report = check_abc(dom, bad, math.pi, math.log(2.0), [ann])
    assert report.violations
    v = _round_trip(report)["violations"][0]
    assert v["annulus"] == {"center": [0.0, 0.0], "inner": ann.inner, "outer": ann.outer}
    assert v["crossings"] == report.violations[0].crossings >= 3


def test_up_records():
    _round_trip(chordal_up_to_euclidean_bound(3.0))
    # a real point is written as a pair, and infinity by name
    out = _round_trip(up_modulus_sup([ComplementPoint(0.0)]))
    assert out["isolated"] == [[0.0, 0.0], "infinity"]


def test_fat_annulus_witness():
    w = fat_annulus_witness(5.0)
    out = _round_trip(w)
    assert domain_from_json(out["domain"]) == w.domain
    assert out["annulus"] == to_json(w.annulus)
    assert out["k_enclosure"] == list(w.k_enclosure)


def test_rough_isometry_report_with_a_violation():
    # h = k on the half-plane, so a window of 0.01 h misses every pair
    pairs = [(1j, 2 + 3j), (0.5 + 0.5j, -1 + 2j)]
    report = verify_rough_isometry(UpperHalfPlane(), lambda z: z, pairs,
                                   multiplicative=0.01)
    assert report.violated == 2
    out = _round_trip(report)
    assert (out["violated"], out["proved"], out["inconclusive"]) == (2, 0, 0)
    v = out["violations"][0]
    assert v["a"] == [0.0, 1.0] and v["b"] == [2.0, 3.0]
    assert v["h"] == report.violations[0]["h"].as_dict()
    assert set(v["k_image"]) == {"lower", "upper", "lower_source", "upper_source"}


def test_annulus_comparison_report_with_a_violation(monkeypatch):
    # an enclosure far above twice the one-puncture distance is a violation
    monkeypatch.setattr(solver_module, "k_interval_fast",
                        lambda domain, a, b: DistanceInterval(1e3, 2e3, "stub", "stub"))
    report = check_annulus_k_comparison(FiniteComplement([0.0, 100.0]),
                                        Annulus(0.0, inner=0.01, outer=50.0), n_pairs=2)
    assert report.violated == 2
    out = _round_trip(report)
    v = out["violations"][0]
    a = report.violations[0]["a"]
    assert v["a"] == [a.real, a.imag]
    assert v["interval"] == {"lower": 1e3, "upper": 2e3,
                             "lower_source": "stub", "upper_source": "stub"}


def test_global_map_keeps_its_layout():
    gmap = build_global_qi_map(FiniteComplement([0.0, 1.0]))
    out = to_json(gmap)
    assert out == gmap.as_dict()
    assert out["witnesses"] == [[x.real, x.imag] for x in gmap.config.xis]
    assert "config" not in out and "domain" not in out
    assert json.loads(json.dumps(out)) == out
