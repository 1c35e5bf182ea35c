"""Boundary-gap exponent, density bounds, bounce-or-cross, uniform perfectness."""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qhyp import (
    INF,
    KAPPA,
    Annulus,
    ComplementDisk,
    ComplementDiskExterior,
    ComplementHalfPlane,
    ComplementPoint,
    DomainError,
    ExteriorUnitDisk,
    FiniteComplement,
    Polyline,
    PuncturedSubdomain,
    PuncturedUnitDisk,
    SchemaError,
    TranslatedScaled,
    UnitDisk,
    UpperHalfPlane,
    UPCircle,
    UPCircleFamily,
    UPRay,
    beta,
    beta_field,
    bp_lambda_bounds,
    bp_lower_density,
    bp_upper_density,
    check_abc,
    check_bp_decay,
    chordal_up_to_euclidean_bound,
    dyadic_annulus_candidates,
    fat_annulus_witness,
    up_modulus_sup,
    up_set_from_json,
)
from qhyp.constants import NEAREST_BOUNDARY_SLACK


# ---------------------------------------------------------------------------
# The boundary-gap exponent
# ---------------------------------------------------------------------------

def test_beta_deep_gap_value():
    # nearest boundary at distance 1, the rest at e^6: at the throat middle
    # the exponent is the remaining log-depth toward the far circle radius
    dom = FiniteComplement([0.0, math.exp(6.0)])
    res = beta(dom, 1.0)
    assert res.delta == pytest.approx(1.0)
    assert res.value == pytest.approx(6.0, abs=1e-12)
    assert res.annulus is not None
    assert res.annulus.d == pytest.approx(1.0)
    assert res.annulus.half_modulus == pytest.approx(res.value, rel=1e-12)
    assert res.witnesses
    w = res.witnesses[0]
    assert w.contribution == pytest.approx(res.value, rel=1e-12)


def test_beta_vanishes_between_close_boundary_points():
    dom = FiniteComplement([0.0, 1.0])
    res = beta(dom, -1.0)
    assert res.value == 0.0
    assert res.annulus is None


def test_beta_field_matches_scalar():
    dom = FiniteComplement([0.0, 1.0])
    zs = np.array([-1.0 + 0.0j, 0.5 + 2.0j, 10.0j, 0.25 + 0.0j])
    field = beta_field(dom, zs)
    for z, bv in zip(zs, field):
        assert bv == beta(dom, complex(z)).value


def test_beta_field_nan_outside():
    dom = FiniteComplement([0.0, 1.0])
    field = beta_field(dom, np.array([0.0 + 0.0j, 0.5 + 0.5j]))
    assert math.isnan(field[0])
    assert math.isfinite(field[1])


def _beta_field_all_points(domain, z, slack=NEAREST_BOUNDARY_SLACK):
    """Every (i, j) component pass on every point, the nearest-component
    mask applied only at the end."""
    z = np.asarray(z, dtype=np.complex128)
    comps = domain.complement_components()
    dists = np.stack([c.distance_field(z) for c in comps])
    delta = dists.min(axis=0)
    valid = delta > 0.0
    safe_delta = np.where(valid, delta, 1.0)
    out = np.full(z.shape, math.inf)
    for i, ci in enumerate(comps):
        mask = dists[i] <= safe_delta * (1.0 + slack)
        if not np.any(mask):
            continue
        zeta = ci.nearest_point_field(z)
        for j, cj in enumerate(comps):
            if i == j and isinstance(cj, ComplementPoint):
                continue
            lo, hi = cj.xi_range_field(zeta)
            t = np.minimum(np.maximum(safe_delta, lo), hi)
            with np.errstate(all="ignore"):
                q = safe_delta / np.where(t > 0, t, np.nan)
                # a quotient outside the normal range: the difference of logs
                contribution = np.where((q >= sys.float_info.min) & (q < math.inf),
                                        np.abs(np.log(q)),
                                        np.abs(np.log(safe_delta) - np.log(t)))
            contribution = np.where(mask & np.isfinite(contribution), contribution, math.inf)
            out = np.minimum(out, contribution)
    return np.where(valid, out, math.nan)


RING = [complex(math.cos(2 * math.pi * k / 16), math.sin(2 * math.pi * k / 16))
        * (1.0 + 0.5 * (k % 2)) for k in range(16)]


BETA_DOMAINS = pytest.mark.parametrize("dom", [
    FiniteComplement(RING),
    PuncturedUnitDisk(),
    PuncturedSubdomain(ExteriorUnitDisk(), [2.0, -2.5j, 1.5 + 1.5j]),
    PuncturedSubdomain(UnitDisk(), [0.25j, -0.3]),
    FiniteComplement([0.0, 1.0]),
    # the half-plane's range from each puncture has hi = inf
    PuncturedSubdomain(UpperHalfPlane(), [1j, 1 + 2j]),
    TranslatedScaled(FiniteComplement(RING), 1e-150),
    TranslatedScaled(FiniteComplement(RING), 1e150),
    # 2 + 2i lies in the disk's range [1, 3] from 2, so the union merges
    PuncturedSubdomain(ExteriorUnitDisk(), [2.0, 2.0 + 2.0j, -3.0]),
], ids=["ring16", "punctured-disk", "disk-and-points", "unit-disk-and-points", "two-points",
        "half-plane-and-points", "ring16-1e-150", "ring16-1e150", "disk-and-merged-points"])


def _ulps_off(z, k):
    """z with each coordinate moved k ulps (toward -inf for k < 0)."""
    x, y = z.real.copy(), z.imag.copy()
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
        y = np.nextafter(y, math.copysign(math.inf, k))
    return x + 1j * y


@BETA_DOMAINS
def test_beta_field_equals_all_points_reference(dom):
    xs = np.linspace(-2.5, 2.5, 101)
    z = (xs[None, :] + 1j * xs[:, None]).ravel()
    # the bisector of 0 and 1, where both punctures are nearest
    z = np.concatenate([z, 0.5 + 1j * np.linspace(-3.0, 3.0, 61)])
    # points at radii log-uniform in [1e-300, 1e300] about each finite
    # boundary point, and points a few ulps off the bisector of each pair
    rng = np.random.default_rng(0)
    pts = dom.finite_boundary_points()
    for p in pts:
        z = np.concatenate([z, p + 10.0 ** rng.uniform(-300.0, 300.0, 40)
                            * np.exp(2j * math.pi * rng.uniform(size=40))])
    for i, p in enumerate(pts):
        for q in pts[i + 1:]:
            line = (p + q) / 2.0 + 1j * (q - p) * np.linspace(-3.0, 3.0, 7)
            z = np.concatenate([z] + [_ulps_off(line, k) for k in (-3, -1, 1, 2)])
    got = beta_field(dom, z)
    assert np.array_equal(got, _beta_field_all_points(dom, z), equal_nan=True)
    assert np.array_equal(beta_field(dom, z.reshape(2, -1)), got.reshape(2, -1),
                          equal_nan=True)


_window = st.floats(min_value=-2.5, max_value=2.5)


@BETA_DOMAINS
@settings(deadline=None, max_examples=60)
@given(_window, _window)
# points where a scalar reimplementation of the exponent differs from the field
# in the last bits
@example(-2.5, -1.9)
@example(-1.05, 0.0)
@example(-0.4, -0.4)
def test_beta_value_is_beta_field_bit_for_bit(dom, x, y):
    z = complex(x, y)
    assume(dom.contains(z))
    assert beta(dom, z).value == beta_field(dom, z)


def test_gap_ranges_belong_to_their_domain():
    # two domains built in turn, each evaluated after the other has filled
    # its ranges: each keeps its own, and gives the all-points values
    z = np.array([0.5 + 0.5j, 2.0 + 0j, -1.0 + 0.25j, 1.5 - 2.0j])
    first = FiniteComplement([0.0, 1.0, 1j])
    second = FiniteComplement([0.0, 3.0, 5j])
    ranges = first.gap_ranges(0)
    for dom in (first, second, first, FiniteComplement([0.0, 1.0, 1j])):
        assert np.array_equal(beta_field(dom, z), _beta_field_all_points(dom, z))
    assert first.gap_ranges(0) is ranges
    assert np.array_equal(second.gap_ranges(0)[0], [3.0, 5.0])
    # a lone point has no gap: the exponent needs a second boundary point
    assert FiniteComplement([0.0]).gap_ranges(0)[0].size == 0
    with pytest.raises(DomainError):
        beta_field(FiniteComplement([0.0]), z)


@pytest.mark.parametrize("dom", [FiniteComplement(RING), FiniteComplement([0.0, 1.0])],
                         ids=["ring16", "two-points"])
def test_beta_field_on_0d_input_and_single_points(dom):
    z = 0.3 + 0.2j
    value = beta(dom, z).value
    at = beta_field(dom, np.asarray(z))
    assert at.shape == () and at == value
    assert beta_field(dom, np.array([z])).tolist() == [value]
    assert np.isnan(beta_field(dom, np.asarray(1 + 0j)))


def test_beta_at_subnormal_distance_builds_its_annulus():
    # e^beta overflows, d e^beta does not; d e^-beta underflows to 0, so the
    # witness is the punctured disk about 0 out to the unit circle
    res = beta(PuncturedUnitDisk(), 2.2250738585e-313j)
    assert res.value > 709.8
    ann = res.annulus
    assert ann.center == 0 and ann.kind == "punctured_disk"
    assert ann.outer == pytest.approx(1.0, rel=1e-12)


def test_beta_similarity_invariance():
    base = FiniteComplement([0.0, math.exp(6.0)])
    moved = TranslatedScaled(base, 2.0j, 5.0 - 1.0j)
    for z in (1.0, 40.0, 0.5 + 3.0j):
        expected = beta(base, z).value
        got = beta(moved, 2.0j * z + (5.0 - 1.0j)).value
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_beta_rejects_boundary_point():
    dom = FiniteComplement([0.0, 1.0])
    with pytest.raises(DomainError):
        beta(dom, 0.0)


# ---------------------------------------------------------------------------
# Pointwise density bounds
# ---------------------------------------------------------------------------

def test_bp_bounds_at_vanishing_exponent():
    dom = FiniteComplement([0.0, 1.0])
    bounds = bp_lambda_bounds(dom, -1.0)
    assert bounds.beta == 0.0
    assert bounds.lower == pytest.approx(1.0 / KAPPA, abs=1e-15)
    assert not bounds.upper_available


def test_bp_bounds_ordered_when_available():
    dom = FiniteComplement([0.0, math.exp(6.0)])
    bounds = bp_lambda_bounds(dom, 1.0)
    assert bounds.upper_available
    assert bounds.lower == pytest.approx(1.0 / (KAPPA + 6.0), rel=1e-12)
    assert bounds.upper == pytest.approx((math.pi / 2.0) / 6.0, rel=1e-12)
    assert bounds.lower < bounds.upper


def test_bp_density_fields_match_pointwise():
    dom = FiniteComplement([0.0, math.exp(6.0)])
    zs = np.array([1.0 + 0.0j, 2.0j, -3.0 + 0.0j])
    lo = bp_lower_density(dom)(zs)
    hi = bp_upper_density(dom)(zs)
    for z, l, h in zip(zs, lo, hi):
        b = bp_lambda_bounds(dom, complex(z))
        assert l == pytest.approx(b.lower, rel=1e-12)
        if b.upper_available:
            assert h == pytest.approx(b.upper, rel=1e-12)
        else:
            assert math.isinf(h)


def test_bp_decay_across_throat():
    m = 9.0
    dom = FiniteComplement([0.0, -math.exp(-m), -math.exp(m)])
    report = check_bp_decay(dom, Annulus(0.0, d=1.0, m=m), samples=80, seed=3)
    assert report.ok
    assert report.violations == 0
    assert report.worst_low >= 1.0
    assert report.worst_high <= 1.0


def test_bp_decay_needs_room():
    dom = FiniteComplement([0.0, -1.0, -2.0])
    with pytest.raises(ValueError):
        check_bp_decay(dom, Annulus(0.0, d=1.0, m=1.0))


# ---------------------------------------------------------------------------
# Bounce or cross
# ---------------------------------------------------------------------------

def test_dyadic_candidates_avoid_boundary():
    dom = FiniteComplement([0.0, 100.0])
    nu = math.log(2.0)
    cands = dyadic_annulus_candidates(dom, nu, 0.25, 8.0)
    assert cands
    for ann in cands:
        for p in dom.finite_boundary_points():
            r = abs(p - ann.center)
            assert not (ann.inner * (1.0 + 1e-12) < r < ann.outer * (1.0 - 1e-12))


def test_dyadic_candidates_validation():
    dom = FiniteComplement([0.0, 100.0])
    with pytest.raises(ValueError):
        dyadic_annulus_candidates(dom, -1.0, 0.25, 8.0)
    with pytest.raises(ValueError):
        dyadic_annulus_candidates(dom, 1.0, 8.0, 0.25)


def test_abc_accepts_single_pass_and_bounce():
    dom = FiniteComplement([0.0, 100.0])
    cands = [Annulus(0.0, d=1.0, m=math.log(2.0))]
    # clean radial pass: one crossing
    report = check_abc(dom, Polyline([0.01, 50.0]), math.pi, math.log(2.0), cands)
    assert report.ok and report.checked == 1
    # shallow bounce: stays within the mu-band of the center circle
    report = check_abc(dom, Polyline([0.5, 1.5, 0.5 + 0.1j]), math.pi, math.log(2.0), cands)
    assert report.ok


def test_abc_flags_double_crossing_wanderer():
    dom = FiniteComplement([0.0, 100.0])
    cands = [Annulus(0.0, d=1.0, m=math.log(2.0))]
    bad = Polyline([0.01, 50.0, 0.01 + 0.005j, 50.0 + 1.0j])
    report = check_abc(dom, bad, math.pi, math.log(2.0), cands)
    assert not report.ok
    v = report.violations[0]
    assert v.crossings >= 3
    assert v.min_radius < math.exp(-math.pi)
    assert v.max_radius > math.exp(math.pi)


def test_abc_finds_candidates_itself():
    dom = FiniteComplement([0.0, 100.0])
    report = check_abc(dom, Polyline([0.01, 50.0]), math.pi, math.log(2.0))
    assert report.ok
    assert report.candidates > 0


# ---------------------------------------------------------------------------
# Uniform perfectness
# ---------------------------------------------------------------------------

def test_up_geometric_circle_family():
    E = (ComplementPoint(0.0), UPCircleFamily(0.0, 4.0, 1.0))
    report = up_modulus_sup(E)
    assert not report.unbounded
    assert report.sup_modulus == pytest.approx(math.log(4.0), abs=1e-15)
    assert report.witness is not None
    assert report.witness.modulus == pytest.approx(math.log(4.0), rel=1e-12)


@pytest.mark.parametrize("horizon", [1, 0, -1])
def test_up_horizon_must_be_at_least_one(horizon):
    E = (ComplementPoint(0.0), UPCircleFamily(0.0, 4.0, 1.0))
    if horizon >= 1:
        assert up_modulus_sup(E, horizon=horizon).sup_modulus == pytest.approx(
            math.log(4.0), abs=1e-15)
    else:
        # one enumerated circle and the collapsed tail would show no gap
        with pytest.raises(ValueError, match="horizon must be at least 1"):
            up_modulus_sup(E, horizon=horizon)


def test_up_isolated_points_unbounded():
    E = (ComplementPoint(0.0), ComplementPoint(1.0))
    report = up_modulus_sup(E)
    assert report.unbounded
    assert math.isinf(report.sup_modulus)
    labels = {("inf" if p is INF or getattr(p, "real", None) is None else complex(p))
              for p in report.isolated}
    assert len(report.isolated) == 3


def test_up_disk_pair_modulus():
    # two unit disks with centers 2e apart: the best separating annulus is
    # centered on one disk and runs from its rim to the other's near edge
    gap = 2.0 * math.e
    E = (ComplementDisk(0.0, 1.0), ComplementDisk(gap, 1.0),
         ComplementDiskExterior(0.0, 100.0))
    report = up_modulus_sup(E)
    assert not report.unbounded
    assert report.sup_modulus >= math.log(gap - 1.0) - 1e-9
    assert report.witness is not None


def test_up_monotone_under_more_blockers():
    base = (ComplementPoint(0.0), UPCircleFamily(0.0, 16.0, 1.0))
    thick = base + (UPCircleFamily(0.0, 16.0, 2.0),)
    sup_base = up_modulus_sup(base).sup_modulus
    sup_thick = up_modulus_sup(thick).sup_modulus
    assert sup_thick <= sup_base + 1e-12


def test_up_json_parser_strict():
    E = up_set_from_json({"points": [[0, 0]],
                          "families": [{"center": [0, 0], "ratio": 4.0, "scale": 1.0}],
                          "includes_infinity": True})
    assert E == (ComplementPoint(0j), UPCircleFamily(0j, 4.0, 1.0))
    with pytest.raises(SchemaError):
        up_set_from_json({"blobs": []})
    with pytest.raises(SchemaError):
        up_set_from_json({"points": [[0, 0]], "includes_infinity": False})
    with pytest.raises(SchemaError):
        up_set_from_json({"disks": [{"center": [0, 0]}]})
    with pytest.raises(SchemaError):
        up_set_from_json({"disks": [{"center": [0, 0], "radius": 1.0, "color": "red"}]})


RANGE_PIECES = [ComplementPoint(0.5 - 1j), ComplementDisk(3.0, 0.5),
                ComplementDiskExterior(1j, 4.0), ComplementHalfPlane(-5j, 1.0 - 1j),
                UPCircle(-1.0 + 2j, 1.5), UPRay(2.0 + 1j, -1.0 + 3j)]


def _piece_samples(piece):
    """Points of a piece, dense near the pieces' scale: its point, its
    circle, or its boundary line or ray out to length 1e4."""
    theta = np.linspace(0.0, 2.0 * math.pi, 20001)
    t = np.concatenate([np.linspace(0.0, 20.0, 40001), np.geomspace(20.0, 1e4, 2001)])
    if isinstance(piece, ComplementPoint):
        return np.array([piece.point])
    if isinstance(piece, (ComplementDisk, ComplementDiskExterior, UPCircle)):
        return piece.center + piece.radius * np.exp(1j * theta)
    u = piece.direction / abs(piece.direction)
    if isinstance(piece, UPRay):
        return piece.origin + t * u
    return piece.origin + np.concatenate([-t, t]) * u


@pytest.mark.parametrize("piece", RANGE_PIECES, ids=lambda p: type(p).__name__)
def test_xi_range_field_brackets_the_piece(piece):
    zeta = np.array([0.0, 2.5 - 0.5j, -3.0 + 4.0j, 7.0 + 2j, 1j])
    lo, hi = piece.xi_range_field(zeta)
    assert lo.shape == hi.shape == zeta.shape
    for k, z in enumerate(zeta):
        # the scalar distance is the array range's lower end, bit for bit
        assert piece.distance_to(complex(z)) == float(piece.xi_range_field(complex(z))[0])
        d = np.abs(_piece_samples(piece) - z)
        # every sampled point lies in [lo, hi], and lo is the nearest one's
        # distance, except from inside a solid piece, where lo is 0
        assert lo[k] <= d.min() * (1.0 + 1e-12) and d.max() <= hi[k] * (1.0 + 1e-12)
        if not isinstance(piece, (ComplementHalfPlane, ComplementDiskExterior)) \
                or lo[k] > 0.0:
            assert d.min() == pytest.approx(lo[k], rel=1e-6, abs=1e-9)
        if isinstance(piece, (ComplementPoint, ComplementDisk, UPCircle)):
            assert d.max() == pytest.approx(hi[k], rel=1e-6)
        else:
            assert hi[k] == math.inf


def test_up_circle_and_ray():
    # seen from the circle's sample at -1 the circle spans [0, 2] and the
    # ray [6, inf): the widest empty annulus runs from 2 to 6, modulus log 3
    E = (UPCircle(0.0, 1.0), UPRay(5.0, 1.0))
    report = up_modulus_sup(E)
    assert not report.unbounded
    assert report.sup_modulus == 1.0986122886681098
    assert report.witness.center == pytest.approx(-1.0, abs=1e-15)
    assert (report.witness.inner, report.witness.outer) == (2.0, 6.0)
    assert report.centers_examined == 9


README_SET = {
    "points": [[0, 0]],
    "circles": [{"center": [0, 0], "radius": 2.0}],
    "disks": [{"center": [3, 0], "radius": 0.5}],
    "disk_exteriors": [{"center": [0, 0], "radius": 100.0}],
    "rays": [{"origin": [0, 0], "direction": [1, 0]}],
    "halfplanes": [{"origin": [0, -5], "direction": [0, -1]}],
    "families": [{"center": [0, 0], "ratio": 4.0, "scale": 1.0}],
    "includes_infinity": True,
}


def test_up_readme_example_set():
    E = (ComplementPoint(0.0), UPCircle(0.0, 2.0), ComplementDisk(3.0, 0.5),
         UPRay(0.0, 1.0), ComplementHalfPlane(-5j, -1j),
         ComplementDiskExterior(0.0, 100.0), UPCircleFamily(0.0, 4.0, 1.0))
    assert up_set_from_json(README_SET) == E
    for parts in (E, list(E)):
        report = up_modulus_sup(parts)
        assert not report.unbounded
        assert report.sup_modulus == 0.0 and report.witness is None
        assert report.centers_examined == 27


_ROWS = {"circles": {"center": [0, 0], "radius": 1.0},
         "disks": {"center": [0, 0], "radius": 1.0},
         "rays": {"origin": [0, 0], "direction": [1, 0]},
         "halfplanes": {"origin": [0, 0], "direction": [1, 0]},
         "disk_exteriors": {"center": [0, 0], "radius": 1.0},
         "families": {"center": [0, 0], "ratio": 4.0, "scale": 1.0}}


@pytest.mark.parametrize("key", ["points"] + sorted(_ROWS))
def test_up_json_rejects_malformed_rows(key):
    with pytest.raises(SchemaError, match=f"{key} must be a list"):
        up_set_from_json({key: {}})
    with pytest.raises(SchemaError, match=rf"{key}\[0\]"):
        up_set_from_json({key: [7]})
    if key == "points":
        return
    row = _ROWS[key]
    up_set_from_json({key: [row]})
    with pytest.raises(SchemaError, match=rf"unknown field 'color' in {key}\[0\]"):
        up_set_from_json({key: [dict(row, color="red")]})
    for field in row:
        short = {f: v for f, v in row.items() if f != field}
        with pytest.raises(SchemaError, match=rf"missing field '{field}' in {key}\[0\]"):
            up_set_from_json({key: [short]})


def test_up_chordal_conversion():
    conv = chordal_up_to_euclidean_bound(2.0)
    assert (conv.center_outside, conv.center_inside, conv.general) == (8.0, 32.0, 1024.0)
    with pytest.raises(ValueError):
        chordal_up_to_euclidean_bound(1.99)


# ---------------------------------------------------------------------------
# Fat annulus witness
# ---------------------------------------------------------------------------

def test_fat_annulus_witness_shape():
    w = fat_annulus_witness(5.0)
    assert w.annulus_separates
    assert w.k_star_ab == pytest.approx(2.0, abs=1e-12)
    assert w.k_enclosure[0] <= w.k_star_ab <= w.k_enclosure[1]
    assert w.h_lower_ab == pytest.approx(w.h_lower_closed_form, abs=1e-12)
    assert w.bp_upper_integral == pytest.approx(w.bp_upper_closed_form, rel=1e-9)
    assert w.domain.contains(w.a) and w.domain.contains(w.b) and w.domain.contains(w.c)


def test_fat_annulus_witness_gap_grows():
    shallow = fat_annulus_witness(3.0)
    deep = fat_annulus_witness(12.0)
    # quasihyperbolic separation grows linearly, the hyperbolic floor only
    # logarithmically, so the certified gap widens with the throat depth
    gap_shallow = shallow.k_star_ab - shallow.h_lower_ab
    gap_deep = deep.k_star_ab - deep.h_lower_ab
    assert gap_deep > gap_shallow + 3.0


def test_fat_annulus_witness_validation():
    with pytest.raises(ValueError):
        fat_annulus_witness(1.0)
