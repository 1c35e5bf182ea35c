"""Collapse maps, rough-isometry verification, and the divergence table."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhyp import (
    KAPPA,
    FiniteComplement,
    PunctureConfig,
    UpperHalfPlane,
    build_global_qi_map,
    counterexample_divergence,
    default_config,
    phi_infinity,
    phi_p,
    phi_punctured_disk,
    psi_log,
    qie_inequality_check,
    qs_eventual_identity_index,
    theta_ray,
    verify_rough_isometry,
)


# ---------------------------------------------------------------------------
# Model collapse maps
# ---------------------------------------------------------------------------

def test_phi_punctured_disk_reference_point():
    assert phi_punctured_disk(1.0 / 16.0, r=0.25) == pytest.approx(0.125, abs=1e-15)


def test_phi_punctured_disk_is_identity_on_chart_rim():
    for theta in (0.0, 1.0, 2.5):
        z = 0.25 * complex(math.cos(theta), math.sin(theta))
        assert phi_punctured_disk(z, r=0.25) == pytest.approx(z, rel=1e-12)


def test_phi_punctured_disk_compresses_radially():
    # log(1/|phi|) = log(1/r) * log(1/r) / log(1/|z|): deep points come out
    # exponentially less deep, angles are kept
    z = 1e-8 * 1.0j
    w = phi_punctured_disk(z, r=0.25)
    assert w.real == pytest.approx(0.0, abs=1e-18)
    assert abs(w) > abs(z)
    assert abs(w) < 0.25
    with pytest.raises(ValueError):
        phi_punctured_disk(0.0)
    with pytest.raises(ValueError):
        phi_punctured_disk(1.5)
    with pytest.raises(ValueError):
        phi_punctured_disk(0.1, r=1.0)


def test_theta_and_psi_helpers():
    assert theta_ray(0.0, 2.0j) == pytest.approx(1.0j)
    assert psi_log(0.5, 0.0, 1.0) == pytest.approx(math.log(2.0))


def test_phi_p_lands_on_ray_and_monotone():
    p, xi, r_p = 1.0j, 1.0j + 2.0, 0.5
    unit = theta_ray(p, xi)
    zs = [p + 0.4, p + 0.1j, p + 1e-6 * (1.0 + 1.0j)]
    depths = []
    for z in zs:
        w = phi_p(z, p, xi, r_p)
        v = (w - p) / unit
        # image sits on the ray through xi, inside the chart radius
        assert abs(v.imag) <= 1e-12
        assert 0.0 < v.real <= r_p * (1.0 + 1e-12)
        depths.append(v.real)
    # closer to the puncture means closer to it in the image as well
    assert depths[0] > depths[2]
    with pytest.raises(ValueError):
        phi_p(p, p, xi, r_p)


def test_phi_infinity_fixed_circle_and_growth():
    xi, r_inf = 2.0, 8.0
    w_rim = phi_infinity(r_inf * 1.0j, xi, r_inf)
    # on the rim the image lands on the witness ray at the rim radius
    assert abs(w_rim) == pytest.approx(r_inf, rel=1e-12)
    assert w_rim.real > 0.0 and abs(w_rim.imag) < 1e-9
    w_far = phi_infinity(1e9, xi, r_inf)
    assert abs(w_far) > r_inf
    # growth is logarithmic in |z|
    assert abs(w_far) < r_inf * math.log(1e9) / math.log(r_inf / abs(xi)) + 1.0
    with pytest.raises(ValueError):
        phi_infinity(1.0, xi, r_inf)  # inside the chart radius


# ---------------------------------------------------------------------------
# Chart configuration
# ---------------------------------------------------------------------------

def test_default_config_twice_punctured():
    cfg = default_config(FiniteComplement([0.0, 1.0]))
    assert cfg.punctures == (0.0, 1.0)
    assert cfg.radii == (0.25, 0.25)
    assert cfg.xis == (1.0, 0.0)
    assert cfg.r_inf == pytest.approx(5.0)
    assert cfg.xi_inf == 1.0
    assert cfg.violations() == []


def test_config_violations_reported():
    # oversized chart disks overlap and exceed the gap
    bad = PunctureConfig(punctures=(0.0, 1.0), radii=(0.8, 0.8),
                         xis=(1.0, 0.0), r_inf=10.0, xi_inf=1.0)
    msgs = " ".join(bad.violations())
    assert "gap" in msgs
    assert "separated" in msgs
    with pytest.raises(ValueError):
        bad.validate()


def test_config_requires_consistent_witnesses():
    bad = PunctureConfig(punctures=(0.0, 1.0), radii=(0.25, 0.25),
                         xis=(0.5j, 0.0), r_inf=10.0, xi_inf=1.0)
    assert any("witness" in v for v in bad.violations())
    small_rinf = PunctureConfig(punctures=(0.0, 1.0), radii=(0.25, 0.25),
                                xis=(1.0, 0.0), r_inf=3.0, xi_inf=1.0)
    assert any("quarter" in v for v in small_rinf.violations())


# ---------------------------------------------------------------------------
# Global map assembly
# ---------------------------------------------------------------------------

def test_global_map_charts_and_constant():
    dom = FiniteComplement([0.0, 1.0])
    gmap = build_global_qi_map(dom)
    assert gmap.additive_constant is not None
    assert gmap.additive_constant > 12.0 * KAPPA + 4.0
    assert gmap.m_prime == pytest.approx(12.0 * KAPPA + 4.0, rel=1e-12)
    # middle points are fixed, chart points are moved toward the witness ray
    mid = 0.5 + 0.1j
    assert gmap.chart_of(mid) == "middle"
    assert gmap(mid) == mid
    deep = 1e-6j
    assert gmap.chart_of(deep) == "puncture:0"
    img = gmap(deep)
    assert dom.contains(img)
    assert abs(img) < 0.25
    far = 100.0j
    assert gmap.chart_of(far) == "infinity"
    assert abs(gmap(far)) > gmap.config.r_inf


def test_global_map_rejects_mismatched_config():
    dom = FiniteComplement([0.0, 1.0])
    other = default_config(FiniteComplement([0.0, 2.0]))
    with pytest.raises(ValueError):
        build_global_qi_map(dom, other)


# ---------------------------------------------------------------------------
# Rough isometry verification
# ---------------------------------------------------------------------------

def test_identity_on_halfplane_is_rough_isometry():
    dom = UpperHalfPlane()
    pairs = [(1.0j, 2.0j), (0.5 + 0.5j, -1.0 + 1.0j), (3.0 + 0.1j, 3.0 + 4.0j)]
    report = verify_rough_isometry(dom, lambda z: z, pairs)
    assert report.ok
    assert report.slack <= 1e-9
    # with no additive room, k's padded quadrature upper bound sits just
    # above the exact h, so no pair is proved although none is violated
    assert (report.proved, report.violated, report.inconclusive) == (0, 0, 3)


def test_rough_isometry_detects_certified_failure():
    # a constant map collapses every pair, so the image distance enclosure is
    # [0, 0] while the source distance is exactly known; the shortfall is a
    # certified violation of the (1, 0) window
    dom = UpperHalfPlane()
    pairs = [(1.0j, 1024.0j), (2.0j, 0.5 + 2.0j)]
    report = verify_rough_isometry(dom, lambda z: 1.0j, pairs,
                                   multiplicative=1.0, additive=0.0)
    assert not report.ok
    assert report.violations
    # first pair alone certifies an excess of h(i, 1024 i) = log 1024
    assert report.slack >= math.log(1024.0) - 1e-9
    assert (report.proved, report.violated, report.inconclusive) == (0, 2, 0)


def test_rough_isometry_additive_budget_absorbs_failure():
    dom = UpperHalfPlane()
    pairs = [(1.0j, 1024.0j), (2.0j, 0.5 + 2.0j)]
    strict = verify_rough_isometry(dom, lambda z: 1.0j, pairs)
    assert not strict.ok
    generous = verify_rough_isometry(dom, lambda z: 1.0j, pairs,
                                     additive=strict.slack + 1e-6)
    assert generous.ok
    assert generous.slack == 0.0
    assert (generous.proved, generous.violated, generous.inconclusive) == (2, 0, 0)
    assert generous.as_dict()["proved"] == 2


# ---------------------------------------------------------------------------
# Scalar chaining inequality and quasisymmetric tail
# ---------------------------------------------------------------------------

def test_qie_reference_values():
    report = qie_inequality_check(1.0, 1.0, 10.0, 1.0)
    assert report.ok
    assert report.lhs == pytest.approx(5.5)
    assert report.rhs == pytest.approx(5.0)
    with pytest.raises(ValueError):
        qie_inequality_check(1.0, 1.0, 1.0, 2.0)
    with pytest.raises(ValueError):
        qie_inequality_check(-1.0, 1.0, 2.0, 1.0)


@settings(deadline=None, max_examples=80)
@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=1.0, max_value=1e3),
    st.floats(min_value=1e-6, max_value=1.0),
)
def test_qie_check_matches_closed_form(K, L, x_over_y, y):
    # the bound is conditional, not universal: it holds exactly when
    # y (K + L + x) >= L x, so the checker must agree with that criterion
    x = y * x_over_y
    report = qie_inequality_check(K, L, x, y)
    assert report.lhs == pytest.approx((K + x) / (K + y))
    assert report.rhs == pytest.approx((L / (K + L)) * (x / y))
    margin = y * (K + L + x) - L * x
    scale = y * (K + L + x) + L * x
    if margin > 1e-9 * scale:
        assert report.ok
    elif margin < -1e-9 * scale:
        assert not report.ok


def test_qie_can_fail():
    # small y relative to x with a large multiplicative constant breaks it
    report = qie_inequality_check(1.0, 2.0, 4.0, 1.0)
    assert not report.ok
    assert report.lhs == pytest.approx(2.5)
    assert report.rhs == pytest.approx(8.0 / 3.0)


def test_qs_identity_index_doubling():
    report = qs_eventual_identity_index(2.0, 1.0, [2.0 ** n for n in range(1, 9)])
    # doubling log-moduli shrink the gaps by e^{-2} or faster from the start
    assert report.index == 0
    assert report.tau == pytest.approx(0.25)
    with pytest.raises(ValueError):
        qs_eventual_identity_index(2.0, 1.0, [1.0, 1.0])
    with pytest.raises(ValueError):
        qs_eventual_identity_index(0.0, 1.0, [1.0, 2.0])


def test_qs_identity_index_slow_start():
    # early gaps contract too slowly; only the fast tail qualifies
    mods = [1.0, 1.1, 1.2, 5.0, 10.0, 20.0, 40.0]
    report = qs_eventual_identity_index(2.0, 1.0, mods)
    assert report.index >= 2


# ---------------------------------------------------------------------------
# Divergence table
# ---------------------------------------------------------------------------

def test_divergence_table_values():
    table = counterexample_divergence(7)
    assert len(table.rows) == 7
    first = table.rows[0]
    assert first.h_upper is None and first.bound is None
    assert first.k_lower == pytest.approx(2.0)
    r3 = table.rows[2]
    assert r3.bound == pytest.approx(-0.35517218060720435, abs=1e-9)
    r7 = table.rows[6]
    assert r7.bound == pytest.approx(110.93448345817839, abs=1e-9)
    # the gap eventually increases without bound
    bounds = [r.bound for r in table.rows if r.bound is not None]
    assert all(b2 > b1 for b1, b2 in zip(bounds[1:], bounds[2:]))


def test_divergence_table_csv(tmp_path):
    table = counterexample_divergence(4)
    text = table.csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == "n,L,k_lower,h_upper,bound"
    assert len(lines) == 5
    # row one leaves the unavailable columns empty
    assert lines[1].endswith(",,")
    out = tmp_path / "table.csv"
    table.write_csv(str(out))
    assert out.read_text() == text


def test_divergence_requires_positive_length():
    with pytest.raises(ValueError):
        counterexample_divergence(0)


def test_divergence_stops_where_b_n_overflows():
    # b_10 = e^512 is a double, b_11 = e^1024 is not
    assert counterexample_divergence(10).rows[-1].b == math.exp(512.0)
    with pytest.raises(ValueError, match="max_n must be at most 10"):
        counterexample_divergence(11)
