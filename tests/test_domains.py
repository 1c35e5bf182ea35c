"""Plane domains: membership, boundary distances, JSON wire format, path length."""

import cmath
import json
import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qhyp import (
    INF,
    ComplementDisk,
    ComplementDiskExterior,
    ComplementHalfPlane,
    ComplementPoint,
    DomainError,
    ExteriorUnitDisk,
    FiniteComplement,
    OutsideDomainError,
    Polyline,
    PuncturedSubdomain,
    PuncturedUnitDisk,
    SchemaError,
    TranslatedScaled,
    UnitDisk,
    UpperHalfPlane,
    beta,
    beta_field,
    chordal_distance,
    chordal_distance_field,
    domain_from_json,
    domain_from_json_text,
    hyperbolic_disk_distance,
    punctured_k_length,
    quasihyperbolic_density,
    rho_length,
)

ALL_DOMAINS = [
    FiniteComplement([0.0]),
    FiniteComplement([0.0, 1.0]),
    FiniteComplement([0.0, 1.0, -2.0j], contains_infinity=True),
    UnitDisk(),
    PuncturedUnitDisk(),
    ExteriorUnitDisk(),
    UpperHalfPlane(),
    PuncturedSubdomain(UnitDisk(), [0.25j]),
    TranslatedScaled(UnitDisk(), 2.0j, 1.0),
]


# ---------------------------------------------------------------------------
# Membership and boundary distance
# ---------------------------------------------------------------------------

def test_membership_basic():
    twice = FiniteComplement([0.0, 1.0])
    assert twice.contains(0.5j)
    assert not twice.contains(0.0)
    assert not twice.contains(1.0)
    assert not twice.contains(INF)
    sphere = FiniteComplement([0.0], contains_infinity=True)
    assert sphere.contains(INF)
    assert UnitDisk().contains(0.9j)
    assert not UnitDisk().contains(1.0)
    assert ExteriorUnitDisk().contains(3.0)
    assert not ExteriorUnitDisk().contains(0.5)
    assert UpperHalfPlane().contains(2.0j)
    assert not UpperHalfPlane().contains(-1.0j)
    assert not UpperHalfPlane().contains(5.0)


def test_delta_values():
    twice = FiniteComplement([0.0, 1.0])
    assert twice.delta(0.25) == pytest.approx(0.25)
    assert twice.delta(0.75) == pytest.approx(0.25)
    assert twice.delta(3.0) == pytest.approx(2.0)
    assert UnitDisk().delta(0.25j) == pytest.approx(0.75)
    assert UpperHalfPlane().delta(1.0 + 2.0j) == pytest.approx(2.0)
    assert ExteriorUnitDisk().delta(-3.0) == pytest.approx(2.0)
    disk_star = PuncturedUnitDisk()
    assert disk_star.delta(0.25) == pytest.approx(0.25)
    assert disk_star.delta(0.9) == pytest.approx(0.1, abs=1e-12)


def test_delta_field_matches_scalar():
    dom = FiniteComplement([0.0, 1.0, 2.0j])
    zs = np.array([0.3 + 0.1j, -1.0, 5.0, 0.5 + 1.0j])
    field = dom.delta_field(zs)
    for z, d in zip(zs, field):
        assert d == pytest.approx(dom.delta(complex(z)), abs=1e-14)


def test_nearest_boundary():
    dom = FiniteComplement([0.0, 4.0])
    assert beta(dom, 1.0).nearest == (pytest.approx(0.0),)
    assert beta(dom, 3.5).nearest == (pytest.approx(4.0),)
    # the midpoint sees both punctures
    assert sorted(beta(dom, 2.0).nearest, key=abs) == [
        pytest.approx(0.0),
        pytest.approx(4.0),
    ]
    for dom, z, want in [(UnitDisk(), 0.5, 1.0), (UpperHalfPlane(), 2.0 + 3.0j, 2.0)]:
        assert beta(dom, z).nearest == (pytest.approx(want),)
        (comp,) = dom.complement_components()
        assert list(comp.nearest_point_field(np.array([z]))) == [pytest.approx(want)]


def test_delta_outside_raises():
    dom = FiniteComplement([0.0])
    with pytest.raises(OutsideDomainError):
        dom.delta(0.0)
    with pytest.raises(OutsideDomainError):
        UnitDisk().delta(2.0)


def test_coincident_punctures_rejected():
    with pytest.raises(DomainError):
        FiniteComplement([1.0, 1.0 + 1e-18])
    with pytest.raises(DomainError):
        PuncturedSubdomain(UnitDisk(), [2.0])
    # coincidence is relative to the points' size, as scaling the plane
    # minus {0, 1} by 1e-20 builds the same set
    assert FiniteComplement([0.0, 1e-20]).punctures == (0j, 1e-20 + 0j)
    assert PuncturedSubdomain(UnitDisk(), [1e-16, 2e-16]).punctures == (1e-16 + 0j, 2e-16 + 0j)
    tiny = domain_from_json({"type": "finite_complement", "punctures": [[0, 0], [1e-20, 0]]})
    assert tiny == FiniteComplement([0.0, 1e-20])
    assert tiny.finite_boundary_points() == TranslatedScaled(
        FiniteComplement([0.0, 1.0]), 1e-20).finite_boundary_points()


def test_hyperbolicity_flag():
    assert not FiniteComplement([0.0]).is_hyperbolic
    assert FiniteComplement([0.0, 1.0]).is_hyperbolic
    assert UnitDisk().is_hyperbolic
    # the sphere minus two points carries no hyperbolic metric
    assert not FiniteComplement([0.0, 1.0], contains_infinity=True).is_hyperbolic
    assert FiniteComplement([0.0, 1.0, 2.0], contains_infinity=True).is_hyperbolic


@pytest.mark.parametrize("dom, points, punctures", [
    (FiniteComplement([0.0, 1.0j]), (0j, 1j), (0j, 1j)),
    (FiniteComplement([2.0], contains_infinity=True), (2 + 0j,), (2 + 0j,)),
    (FiniteComplement([]), (), None),
    (UnitDisk(), (), None),
    (PuncturedUnitDisk(), (0j,), None),
    (ExteriorUnitDisk(), (), None),
    (UpperHalfPlane(), (), None),
    (PuncturedSubdomain(UnitDisk(), [0.5]), (0.5 + 0j,), None),
    (TranslatedScaled(FiniteComplement([0.0, 1.0]), 2.0j, 3.0), (3 + 0j, 3 + 2j),
     (3 + 0j, 3 + 2j)),
    (TranslatedScaled(UpperHalfPlane(), 2.0, 1.0), (), None),
], ids=["finite", "sphere-minus-one", "plane", "disk", "punctured-disk", "exterior",
        "half-plane", "punctured-subdomain", "moved-finite", "moved-half-plane"])
def test_point_components_found_once(dom, points, punctures):
    # the point components, and the punctures only where every component is one
    assert dom.finite_boundary_points() == points
    assert dom.point_punctures() == punctures
    assert dom.finite_boundary_points() is dom.finite_boundary_points()


def test_translated_scaled_matches_manual():
    base = FiniteComplement([0.0, 1.0])
    moved = TranslatedScaled(base, 2.0j, 3.0)
    # punctures move to 3 and 3 + 2j
    assert not moved.contains(3.0)
    assert not moved.contains(3.0 + 2.0j)
    assert moved.delta(3.0 + 1.0j) == pytest.approx(1.0)
    z = 0.25 + 0.5j
    assert moved.delta(2.0j * z + 3.0) == pytest.approx(2.0 * base.delta(z))


def test_punctured_subdomain_delta():
    dom = PuncturedSubdomain(UnitDisk(), [0.5])
    assert dom.delta(0.25) == pytest.approx(0.25)
    assert dom.delta(0.9) == pytest.approx(0.1, abs=1e-12)
    assert not dom.contains(0.5)


def _chordal_to_real_line_by_candidates(z: complex) -> float:
    """Chordal distance from z to the extended real line as the minimum over
    infinity, Re z and the stationary points of |z - t|^2 / (1 + t^2)."""
    x, y = z.real, z.imag
    best = 2.0 / math.hypot(1.0, abs(z))
    cands = [x]
    # with u = x - t: -x u^2 + (1 + x^2 - y^2) u + x y^2 = 0
    bq = 1.0 + x * x - y * y
    if x != 0.0:
        s = math.sqrt(bq * bq + 4.0 * x * x * y * y)
        for u in ((bq + s) / (2.0 * x), (bq - s) / (2.0 * x)):
            cands.append(x - u)
    for t in cands:
        if math.isfinite(t):
            best = min(best, chordal_distance(z, complex(t, 0.0)))
    return best


def _upper_points(n: int, seed: int) -> np.ndarray:
    """n points of the upper half-plane with |z| log-uniform in [1e-6, 1e6]."""
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(math.log(1e-6), math.log(1e6), n))
    return r * np.exp(1j * rng.uniform(0.0, math.pi, n))


def test_halfplane_chordal_distance_closed_form():
    dom = UpperHalfPlane()
    assert dom.chordal_boundary_distance(1j) == pytest.approx(math.sqrt(2.0), abs=1e-15)
    real = np.array([0.0, -0.0, 1e-300, -3.0, 7.5, 1e300])
    assert np.all(dom.chordal_boundary_distance_field(real) == 0.0)
    z = _upper_points(400, 0)
    got = dom.chordal_boundary_distance_field(z)
    want = np.array([_chordal_to_real_line_by_candidates(complex(p)) for p in z])
    assert np.all(np.abs(got - want) <= 1e-12 * want)


def test_halfplane_chordal_distance_below_every_real_point():
    dom = UpperHalfPlane()
    theta = np.linspace(-math.pi / 2.0, math.pi / 2.0, 20001)[1:-1]
    for p in _upper_points(60, 1):
        t = np.concatenate([np.tan(theta), [p.real]])
        sampled = float(np.min(chordal_distance_field(t, p)))
        assert dom.chordal_boundary_distance(p) <= sampled + 1e-12


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=-20.0, max_value=20.0),
       st.floats(min_value=1e-6, max_value=math.pi - 1e-6))
def test_halfplane_chordal_distance_symmetries(log_r, angle):
    # the reflection z -> -conj(z) and z -> -1/z are chordal isometries that
    # keep the upper half-plane; conjugation leaves it, and outside the
    # domain the distance is 0, as delta is
    dom = UpperHalfPlane()
    z = math.exp(log_r) * complex(math.cos(angle), math.sin(angle))
    d = dom.chordal_boundary_distance(z)
    assert dom.chordal_boundary_distance(-z.conjugate()) == d
    assert dom.chordal_boundary_distance(-1.0 / z) == pytest.approx(d, rel=1e-12)
    assert dom.chordal_boundary_distance_field(np.array([z.conjugate()]))[0] == 0.0


def _chordal_boundary_reference(dom, z):
    """The chordal boundary distance as computed before the one-pass field:
    each component lifts z on its own, and the minimum is taken over a list
    of one array per component, plus one for infinity."""
    z = np.asarray(z, dtype=np.complex128)
    parts = []
    for comp in dom.complement_components():
        if isinstance(comp, ComplementPoint):
            parts.append(chordal_distance_field(z, comp.point))
        elif isinstance(comp, ComplementHalfPlane):
            r = np.abs(z)
            lift = np.hypot(1.0, r)
            s = 2.0 * np.maximum(z.imag, 0.0) / lift / lift
            c = np.hypot(2.0 * z.real / lift / lift, ((r - 1.0) / lift) * ((r + 1.0) / lift))
            parts.append(s * np.sqrt(2.0 / (1.0 + c)))
        else:  # a circle about 0
            proj = comp.radius * np.exp(1j * np.angle(np.where(z == 0, 1.0, z)))
            lift_z = np.hypot(1.0, np.abs(z))
            lift_p = math.hypot(1.0, comp.radius)
            parts.append(np.where(comp.distance_field(z) > 0,
                                  2.0 * np.abs(z - proj) / (lift_z * lift_p), 0.0))
    if dom.sphere_boundary_includes_infinity():
        parts.append(2.0 / np.hypot(1.0, np.abs(z)))
    out = parts[0]
    for p in parts[1:]:
        out = np.minimum(out, p)
    return out


CHORDAL_DOMAINS = [
    FiniteComplement([0.0, 1.0, 1.0j, -1.5 + 0.5j]),
    FiniteComplement([0.0, 1.0, -2.0j], contains_infinity=True),
    UnitDisk(),
    PuncturedUnitDisk(),
    UpperHalfPlane(),
]


@pytest.mark.parametrize("dom", CHORDAL_DOMAINS,
                         ids=["plane-minus-four", "sphere-minus-three", "disk",
                              "punctured-disk", "halfplane"])
@pytest.mark.parametrize("shape", [(), (7,), (5, 9)], ids=["0d", "1d", "2d"])
def test_chordal_field_equals_per_component_minimum(dom, shape):
    rng = np.random.default_rng(len(shape))
    n = max(1, int(np.prod(shape)))
    r = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), n))
    z = r * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n))
    # up to half of them on or outside the boundary, where the distance is 0
    edge = np.array([0.0, 1.0, 1.0j, -1.5 + 0.5j, -2.0j, 2.0, -0.5j, 0.6 - 0.8j])
    k = min(n // 2, edge.size)
    z[:k] = edge[:k]
    z = z.reshape(shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        got = dom.chordal_boundary_distance_field(z)
        want = _chordal_boundary_reference(dom, z)
    assert np.shape(got) == np.shape(want) == shape
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
    outside = np.asarray(dom.delta_field(z)) == 0.0
    assert np.all(np.asarray(got)[outside] == 0.0)
    assert np.all(np.asarray(got)[~outside] > 0.0)
    if shape == ():
        assert isinstance(got, np.float64)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dom", ALL_DOMAINS, ids=lambda d: type(d).__name__)
def test_json_roundtrip(dom):
    text = json.dumps(dom.to_json_dict())
    back = domain_from_json_text(text)
    assert back == dom
    assert hash(back) == hash(dom)


PINNED_IDS = ["sphere-minus-three", "plane-minus-one", "disk", "punctured-disk", "exterior",
              "halfplane", "punctured-subdomain", "translated-scaled"]
PINNED_DESCRIPTIONS = [
    (FiniteComplement([0.0, 1.0, -2.0j], contains_infinity=True),
     "FiniteComplement({'type': 'finite_complement', 'punctures': [[0.0, 0.0], [1.0, 0.0], "
     "[-0.0, -2.0]], 'contains_infinity': True})",
     '{"type": "finite_complement", "punctures": [[0.0, 0.0], [1.0, 0.0], [-0.0, -2.0]], '
     '"contains_infinity": true}'),
    (FiniteComplement([0.5]),
     "FiniteComplement({'type': 'finite_complement', 'punctures': [[0.5, 0.0]]})",
     '{"type": "finite_complement", "punctures": [[0.5, 0.0]]}'),
    (UnitDisk(), "UnitDisk({'type': 'unit_disk'})", '{"type": "unit_disk"}'),
    (PuncturedUnitDisk(), "PuncturedUnitDisk({'type': 'punctured_unit_disk'})",
     '{"type": "punctured_unit_disk"}'),
    (ExteriorUnitDisk(), "ExteriorUnitDisk({'type': 'exterior_unit_disk'})",
     '{"type": "exterior_unit_disk"}'),
    (UpperHalfPlane(), "UpperHalfPlane({'type': 'upper_half_plane'})",
     '{"type": "upper_half_plane"}'),
    (PuncturedSubdomain(UnitDisk(), [0.25j, -0.3]),
     "PuncturedSubdomain({'type': 'punctured_subdomain', 'base': {'type': 'unit_disk'}, "
     "'punctures': [[0.0, 0.25], [-0.3, 0.0]]})",
     '{"type": "punctured_subdomain", "base": {"type": "unit_disk"}, '
     '"punctures": [[0.0, 0.25], [-0.3, 0.0]]}'),
    (TranslatedScaled(PuncturedUnitDisk(), 2.0j, 1.0),
     "TranslatedScaled({'type': 'translated_scaled', 'base': {'type': 'punctured_unit_disk'}, "
     "'scale': [0.0, 2.0], 'shift': [1.0, 0.0]})",
     '{"type": "translated_scaled", "base": {"type": "punctured_unit_disk"}, '
     '"scale": [0.0, 2.0], "shift": [1.0, 0.0]}'),
]


@pytest.mark.parametrize("dom, text, wire", PINNED_DESCRIPTIONS, ids=PINNED_IDS)
def test_repr_and_json_dict_pinned_with_key_order(dom, text, wire):
    assert repr(dom) == text
    assert json.dumps(dom.to_json_dict()) == wire


@pytest.mark.parametrize("dom", [d for d, _, _ in PINNED_DESCRIPTIONS], ids=PINNED_IDS)
def test_mutating_the_json_dict_leaves_the_domain_unchanged(dom):
    before = json.dumps(dom.to_json_dict())
    out = dom.to_json_dict()
    out["type"] = "mutated"
    for value in out.values():
        if isinstance(value, list):
            value.append([9.0, 9.0])
        if isinstance(value, dict):
            value.clear()
    assert json.dumps(dom.to_json_dict()) == before
    assert dom == domain_from_json_text(before)


def test_a_translated_scaled_copy_is_another_domain():
    disk, image = UnitDisk(), TranslatedScaled(UnitDisk(), 1.0, 0.0)
    assert disk != image and image != disk
    assert image == TranslatedScaled(UnitDisk(), 1.0, 0.0)
    assert hash(image) == hash(TranslatedScaled(UnitDisk(), 1.0, 0.0))


@pytest.mark.parametrize("dom", [d for d, _, _ in PINNED_DESCRIPTIONS], ids=PINNED_IDS)
def test_components_built_once(dom):
    assert dom.complement_components() is dom.complement_components()


def test_finite_complement_components_built_once():
    dom = FiniteComplement([0.0, 1.0, -2.0j], contains_infinity=True)
    comps = dom.complement_components()
    assert dom.complement_components() is comps
    assert [c.point for c in comps] == [0.0, 1.0, -2.0j]
    # equality, hashing and the wire format still come from the punctures
    same = FiniteComplement([0.0, 1.0, -2.0j], contains_infinity=True)
    assert same == dom and hash(same) == hash(dom)
    assert same.complement_components() is not comps
    assert dom != FiniteComplement([0.0, 1.0, -2.0j])
    assert dom.to_json_dict() == {"type": "finite_complement",
                                  "punctures": [[0.0, 0.0], [1.0, 0.0], [0.0, -2.0]],
                                  "contains_infinity": True}


def test_json_rejects_unknown_type():
    with pytest.raises(SchemaError):
        domain_from_json({"type": "pac_man"})
    with pytest.raises(SchemaError, match="unknown domain type"):
        domain_from_json({"type": ["unit_disk"]})


def test_json_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="unknown field 'radius' in domain type 'unit_disk'"):
        domain_from_json({"type": "unit_disk", "radius": 2.0})
    with pytest.raises(SchemaError):
        domain_from_json(
            {"type": "finite_complement", "punctures": [[0, 0]], "extra": 1}
        )


def test_json_rejects_malformed_points():
    with pytest.raises(SchemaError):
        domain_from_json({"type": "finite_complement", "punctures": [[0]]})
    with pytest.raises(SchemaError):
        domain_from_json({"type": "finite_complement", "punctures": "zero"})
    with pytest.raises(SchemaError):
        domain_from_json_text("not json at all")


def test_json_missing_required_field():
    with pytest.raises(SchemaError):
        domain_from_json({"type": "finite_complement"})
    with pytest.raises(SchemaError,
                       match="missing field 'scale' in domain type 'translated_scaled'"):
        domain_from_json({"type": "translated_scaled", "base": {"type": "unit_disk"}})


def test_disk_h_lower_a_few_ulps_outside_the_circle():
    # the distance to the disk is taken as distance_field takes it, so a
    # point the domain contains never maps onto the unit circle
    disk = ComplementDisk(0.0, 1.0)
    for k in range(64):
        for ulps in range(1, 6):
            a = cmath.exp(2j * math.pi * k / 64) * (1.0 + ulps * 2.2e-16)
            if disk.distance_field(np.asarray(a)) > 0:
                v, name = disk.h_lower(a, 2.0 + 1.0j)
                assert math.isfinite(v) and v > 0 and name == "disk"


@pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e-10, 1e150, 1e300])
def test_round_h_lower_is_scale_invariant(scale):
    # the product of the four factors underflows (1e-160, 1e-300) or
    # overflows (1e150, 1e300) on scaled circles; the factors' exponents are
    # then set apart from their mantissas
    for comp, a, b in ((ComplementDisk(0.0, 1.0), 3.0, -2.0 + 1.5j),
                       (ComplementDiskExterior(0.0, 1.0), 0.5, 0.25j)):
        v, _ = comp.transformed(scale, 0.0).h_lower(scale * a, scale * b)
        assert v == pytest.approx(comp.h_lower(a, b)[0], rel=1e-14)


def test_round_h_lower_at_the_ends_of_the_float_range():
    # 1e308 and a point one ulp outside a circle of radius 1e-300: r |a - b|
    # over the square roots of the two smaller factors overflows, although x
    # is about 5.7e7
    disk = ComplementDisk(0.0, 1e-300)
    near = math.nextafter(1e-300, math.inf)
    assert disk.distance_field(np.asarray(near)) > 0
    log_x = math.log(1e-300) + math.log(1e308) - 0.5 * (
        2.0 * math.log(1e308) + math.log(near - 1e-300) + math.log(near + 1e-300))
    v, name = disk.h_lower(1e308, near)
    assert name == "disk" and v == pytest.approx(2.0 * math.asinh(math.exp(log_x)), rel=1e-13)
    # |a - b| overflows: the bound is the trivial 0, never above h
    assert ComplementDisk(0.0, 1e-10).h_lower(1e308, -1e308) == (0.0, "disk")


# ---------------------------------------------------------------------------
# Density line integrals
# ---------------------------------------------------------------------------

def test_rho_length_constant_density_is_euclidean():
    path = Polyline([0.0, 1.0, 1.0 + 2.0j])
    val = rho_length(path, lambda z: np.ones_like(z, dtype=float))
    assert val == pytest.approx(path.euclidean_length, rel=1e-10)


def test_rho_length_logarithmic_integral():
    # integral of |dz| / |z| along [1, e] is exactly 1
    path = Polyline([1.0, math.e])
    val = rho_length(path, lambda z: 1.0 / np.abs(z), rel_tol=1e-12)
    assert val == pytest.approx(1.0, rel=1e-10)


def test_rho_length_additive_over_subpaths():
    dom = FiniteComplement([0.0, 1.0])
    density = quasihyperbolic_density(dom)
    path = Polyline([0.2 + 0.1j, 0.5 + 0.4j, 2.0 + 0.3j, 3.0])
    total = rho_length(path, density, rel_tol=1e-11)
    parts = sum(
        rho_length(Polyline(path.points[i:i + 2]), density, rel_tol=1e-11)
        for i in range(len(path) - 1)
    )
    assert total == pytest.approx(parts, rel=1e-9)


def test_rho_length_rejects_path_through_boundary():
    dom = FiniteComplement([0.0])
    density = quasihyperbolic_density(dom)
    with pytest.raises(OutsideDomainError):
        rho_length(Polyline([-1.0, 1.0]), density)


def _counting(density):
    seen = [0]

    def rho(z):
        seen[0] += np.size(z)
        return density(z)
    return rho, seen


def test_rho_length_stop_above_cuts_off_above_the_cutoff():
    # integral of |dz| / |z| along [1, e^5] is 5
    path = Polyline([1.0, math.exp(5.0)])
    full_rho, full = _counting(lambda z: 1.0 / np.abs(z))
    cut_rho, cut = _counting(lambda z: 1.0 / np.abs(z))
    exact = rho_length(path, full_rho, rel_tol=1e-12)
    partial = rho_length(path, cut_rho, rel_tol=1e-12, stop_above=2.0)
    assert 2.0 < partial <= exact
    assert cut[0] < full[0]


def test_rho_length_stop_above_is_bit_identical_when_not_reached():
    dom = FiniteComplement([0.0, 1.0])
    density = quasihyperbolic_density(dom)
    path = Polyline([0.2 + 0.1j, 0.5 + 0.4j, 2.0 + 0.3j, 3.0])
    val = rho_length(path, density, rel_tol=1e-10)
    assert rho_length(path, density, rel_tol=1e-10, stop_above=val) == val
    assert rho_length(path, density, rel_tol=1e-10, stop_above=2.0 * val) == val


def _rho_length_per_half(path, density, rel_tol=1e-8, stop_above=math.inf):
    """``rho_length`` as it was with two density calls per level, one for
    the left halves and one for the right: the reference for one call per
    level."""
    if isinstance(path, Polyline):
        z1s, z2s = path.segments()
    else:
        arr = np.asarray(list(path), dtype=np.complex128)
        z1s, z2s = arr[:-1], arr[1:]
    if len(z1s) == 0:
        return 0.0

    def mid_value(a, b):
        vals = np.asarray(density((a + b) / 2.0), dtype=float)
        if np.any(~np.isfinite(vals)) or np.any(vals < 0.0):
            raise OutsideDomainError("density is not finite and positive on the path")
        return vals * np.abs(b - a)

    starts = z1s.copy()
    ends = z2s.copy()
    coarse = mid_value(starts, ends)
    total = 0.0
    for _ in range(60):
        if len(starts) == 0:
            break
        mids = (starts + ends) / 2.0
        left = mid_value(starts, mids)
        right = mid_value(mids, ends)
        fine = left + right
        err = np.abs(fine - coarse) / 3.0
        done = err <= 0.5 * rel_tol * np.maximum(fine, 1e-300)
        total += float(np.sum(np.where(done, fine + (fine - coarse) / 3.0, 0.0)))
        if total > stop_above:
            return total
        keep = ~done
        starts = np.concatenate([starts[keep], mids[keep]])
        ends = np.concatenate([mids[keep], ends[keep]])
        coarse = np.concatenate([left[keep], right[keep]])
    return math.inf if len(starts) else total


def _inverse_distance(p):
    def rho(z):
        with np.errstate(divide="ignore"):
            return 1.0 / np.abs(np.asarray(z) - p)
    return rho


def _rho_plus(dom):
    """The finite Beardon-Pommerenke bound min(2/delta, (pi/2)/(delta beta))."""
    def rho(z):
        with np.errstate(divide="ignore", over="ignore"):
            return np.minimum(2.0, (math.pi / 2.0) / beta_field(dom, z)) / dom.delta_field(z)
    return rho


_DENSITIES = {
    "inverse-distance": _inverse_distance(0.25 + 0.125j),
    "rho-plus-two-points": _rho_plus(FiniteComplement([0.0, 1.0])),
    "rho-plus-disk-and-points": _rho_plus(PuncturedSubdomain(UnitDisk(), [0.25j, -0.3])),
}
_vertex = st.builds(complex, st.floats(-2.0, 2.0), st.floats(-2.0, 2.0))


@settings(deadline=None, max_examples=60)
@given(st.lists(_vertex, min_size=2, max_size=5), st.sampled_from(sorted(_DENSITIES)),
       st.sampled_from([1e-3, 1e-8]), st.sampled_from([math.inf, 1.5]))
# segments whose first midpoint is the pole or a puncture
@example([0.0, 0.5 + 0.25j], "inverse-distance", 1e-8, math.inf)
@example([-0.5, 0.5, 0.5 + 1j], "rho-plus-two-points", 1e-3, 1.5)
@example([0.1 + 0.25j, -0.1 + 0.25j], "rho-plus-disk-and-points", 1e-8, math.inf)
def test_rho_length_equals_per_half_reference(vertices, name, rel_tol, stop_above):
    # every density here is pointwise, so one call on both halves of a level
    # gives the values, the errors and the early stop of two calls
    density = _DENSITIES[name]
    try:
        want = _rho_length_per_half(vertices, density, rel_tol, stop_above)
    except OutsideDomainError as exc:
        with pytest.raises(OutsideDomainError, match=str(exc)):
            rho_length(vertices, density, rel_tol=rel_tol, stop_above=stop_above)
        return
    assert rho_length(vertices, density, rel_tol=rel_tol, stop_above=stop_above) == want


@settings(deadline=None, max_examples=30)
@given(st.floats(min_value=0.1, max_value=10.0), st.floats(min_value=0.1, max_value=10.0))
def test_rho_length_radial_quasihyperbolic(r1, r2):
    # along a radial ray in the punctured plane the length is |log(r1/r2)|
    if abs(math.log(r1 / r2)) < 1e-9:
        return
    dom = FiniteComplement([0.0])
    path = Polyline([complex(r1, 0.0), complex(r2, 0.0)])
    val = rho_length(path, quasihyperbolic_density(dom), rel_tol=1e-11)
    assert val == pytest.approx(abs(math.log(r1 / r2)), rel=1e-8)



# ---------------------------------------------------------------------------
# Closed-form k-length in the plane minus finitely many points
# ---------------------------------------------------------------------------

def _dec_asinh(x: Decimal) -> Decimal:
    if x < 0:
        return -_dec_asinh(-x)
    if x < Decimal("1e-20"):
        return x - x * x * x / 6
    return (x + (x * x + 1).sqrt()).ln()


def _dec_asinh_gap(x0: Decimal, x1: Decimal) -> Decimal:
    """asinh(x1) - asinh(x0) for x0 < x1, without cancellation: on one side
    of 0 it is asinh of sinh(A - B) = (x1 - x0)(x1 + x0) / (x1 sqrt(1 + x0^2)
    + x0 sqrt(1 + x1^2))."""
    if x0 < 0 < x1:
        return _dec_asinh(x1) + _dec_asinh(-x0)
    if x1 <= 0:
        x0, x1 = -x1, -x0
    return _dec_asinh((x1 - x0) * (x1 + x0)
                      / (x1 * (1 + x0 * x0).sqrt() + x0 * (1 + x1 * x1).sqrt()))


def _dec_k_length(points, punctures):
    """The exact k-length of a polyline in the plane minus ``punctures``,
    evaluated with 800 significant digits: each segment is cut where the
    nearest puncture changes, and each piece integrated by its asinh terms
    (a log where the segment's line meets the puncture).  800 digits exceed
    the 632 decades from the smallest subnormal to the largest double, so
    the difference of two coordinates keeps the smaller one to at least 160
    digits; at 50, 1 - 1e-51 and 0.6991... - 1.3e-220 rounded to 1 and
    0.6991...
    Returns (length, smallest d_p / L over the segments)."""
    with localcontext() as ctx:
        ctx.prec = 800
        punct = [(Decimal(q.real), Decimal(q.imag)) for q in punctures]
        total, thinnest = Decimal(0), Decimal("Infinity")
        for z0, z1 in zip(points[:-1], points[1:]):
            # from the end nearer the punctures, where the cuts lie best
            if min(abs(q - z1) for q in punctures) < min(abs(q - z0) for q in punctures):
                z0, z1 = z1, z0
            ux, uy = Decimal(z0.real), Decimal(z0.imag)
            dx, dy = Decimal(z1.real) - ux, Decimal(z1.imag) - uy
            length = (dx * dx + dy * dy).sqrt()
            ex, ey = dx / length, dy / length
            feet = [(px - ux) * ex + (py - uy) * ey for px, py in punct]
            dists = [abs((py - uy) * ex - (px - ux) * ey) for px, py in punct]
            thinnest = min([thinnest] + [dp / length for dp in dists])
            cuts = {Decimal(0), length}
            for i, (pix, piy) in enumerate(punct):
                for qx, qy in punct[i + 1:]:
                    nx, ny = qx - pix, qy - piy
                    den = ex * nx + ey * ny
                    if den != 0:
                        t = (((pix + qx) / 2 - ux) * nx + ((piy + qy) / 2 - uy) * ny) / den
                        if 0 < t < length:
                            cuts.add(t)
            cuts = sorted(cuts)
            for t0, t1 in zip(cuts[:-1], cuts[1:]):
                tm = (t0 + t1) / 2
                k = min(range(len(punct)), key=lambda i: (tm - feet[i]) ** 2 + dists[i] ** 2)
                s0, s1, dp = t0 - feet[k], t1 - feet[k], dists[k]
                if dp == 0:
                    if s0 * s1 <= 0:
                        return math.inf, thinnest
                    total += abs((s1 / s0).ln())
                else:
                    total += _dec_asinh_gap(s0 / dp, s1 / dp)
        return total, thinnest


def _scaled_vertex(draw, punctures):
    p = punctures[draw(st.integers(0, len(punctures) - 1))]
    r = 10.0 ** draw(st.floats(-300.0, 300.0))
    return p + r * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))


@st.composite
def _scale_spanning_polyline(draw):
    """1-4 punctures in [-2, 2]^2 and a polyline whose vertices lie at radii
    log-uniform in [1e-300, 1e300] about them."""
    coord = st.floats(-2.0, 2.0)
    punctures = draw(st.lists(st.builds(complex, coord, coord), min_size=1, max_size=4,
                              unique=True))
    vertices = [_scaled_vertex(draw, punctures) for _ in range(draw(st.integers(2, 5)))]
    return punctures, vertices


@settings(deadline=None, max_examples=60)
@given(_scale_spanning_polyline())
# pairs whose reference at 50 digits was wrong: infinite for the first,
# where the exact length is 623.0177343306720..., and 230.424 for the
# second, where it is 229.5425956581378...
@example(([0j, 1 + 1.3359981496945882e-220j], [1 + 0j, 1e-51 + 0j]))
@example(([0j, 1.3359981496945882e-220j, 0.6991032611908312j],
          [1e-50 + 0.6991032611908312j, 1e-50 + 0j]))
# cases once 1.13e-12, 7.1e-12 and 3.6e-12 above the reference: pieces
# across their foot taken as centred on it, and the absolute pad at a
# length of 2^-1022
@example(([-0.75 + 0j, 0j], [0.25 + 0j, 0.24999999999949996 + 9.999999999998333e-07j]))
@example(([0j, 1j], [1000 + 0j, 1000 + 1j]))
@example(([0j], [1 + 0j, 1 + 2.2250738585072014e-308j]))
# subnormal k-lengths, once 3.8e-12 relative and 18 steps of 2^-1074 above
# the reference, by the 2^-1070 underflow pad of each piece
@example(([0j], [1 + 0j, 1 + 2.225073858507e-311j]))
@example(([0j], [1e300 + 0j, 1e300 + 5e-24j]))
def test_punctured_k_length_bounds_the_decimal_reference(case):
    punctures, vertices = case
    if any(v in punctures for v in vertices) or any(
            v == w for v, w in zip(vertices[:-1], vertices[1:])):
        return  # a vertex on a puncture, or a segment of length 0
    got = punctured_k_length(vertices, punctures)
    exact, thinnest = _dec_k_length(vertices, punctures)
    if exact == math.inf:
        assert got == math.inf
        return
    assert Decimal(got) >= exact
    # d_p is known to about 16 ulps of |p - u|, and the integral moves by
    # 2 dd / d_p where the segment passes its foot: so the bound is tight to
    # 1e-12 only where no segment passes closer than 1e-3 of its length.
    # Where 1e-12 of the value is below the float spacing 2^-1074, no float
    # need lie that close above it: there one step of the spacing is allowed
    if thinnest > Decimal("1e-3") and got < math.inf:
        spacing = Decimal(2.0 ** -1074)
        slack = spacing if exact * Decimal("1e-12") < spacing else 0
        assert Decimal(got) <= exact * (1 + Decimal("1e-12")) + slack


@st.composite
def _subnormal_scale_polyline(draw):
    """A polyline of 2-4 vertices at radii log-uniform in [1e-323, 1e-300]
    about the puncture 0, each either drawn afresh or a step of relative
    size 1e-9 to 1 from the one before, so that segment lengths and
    distances to 0 run through the subnormal range."""
    punctures = draw(st.sampled_from([[0j], [0j, 1 + 0j], [0j, 1j, -1.5 + 0.5j]]))
    vertices = []
    for _ in range(draw(st.integers(2, 4))):
        r = 10.0 ** draw(st.floats(-323.0, -300.0))
        z = r * cmath.exp(1j * draw(st.floats(0.0, 2.0 * math.pi)))
        if vertices and draw(st.booleans()):
            z = vertices[-1] + 10.0 ** draw(st.floats(-9.0, 0.0)) * z
        vertices.append(z)
    return punctures, vertices


@settings(deadline=None, max_examples=60)
@given(_subnormal_scale_polyline())
# a segment of length 1.9e-310 about 7.7e-304 from 0: its direction
# seg / length overflowed, and the length came out as its pads, 8.4e-323
@example(([0j], [5.791662683904014e-304 + 5.044546766215964e-304j,
                 5.7916643614803846e-304 + 5.044545965386952e-304j]))
def test_punctured_k_length_bounds_the_decimal_reference_at_subnormal_scales(case):
    punctures, vertices = case
    if any(v in punctures for v in vertices) or any(
            v == w for v, w in zip(vertices[:-1], vertices[1:])):
        return  # a vertex on a puncture, or a segment of length 0
    got = punctured_k_length(vertices, punctures)
    exact, _ = _dec_k_length(vertices, punctures)
    assert Decimal(got) >= exact
    if exact < math.inf:
        assert got < math.inf


@pytest.mark.parametrize("r", [1e-12, 1e-17, 1e-19, 1e-25, 1e-40])
def test_punctured_k_length_across_scales_matches_asinh_terms(r):
    # the segment from r (1 + i/3) to 1 + 0.5i about the puncture 0, where
    # adaptive quadrature stops counting once r falls below about 1e-17
    u, v = r * (1.0 + 1.0j / 3.0), 1.0 + 0.5j
    got = punctured_k_length([u, v], [0.0])
    exact, _ = _dec_k_length([u, v], [0.0])
    assert exact <= Decimal(got) <= exact * (1 + Decimal("1e-13"))
    if r <= 1e-25:
        assert got > 57.6


def test_punctured_k_length_through_a_puncture_is_infinite():
    assert punctured_k_length([-1.0, 2.0], [0.0, 5.0j]) == math.inf
    assert punctured_k_length([1.0, 2.0 + 1.0j, 1.0j], [1.0j, 7.0]) == math.inf
    # collinear with the puncture but short of it: the log term
    assert punctured_k_length([1.0, 2.0], [0.0]) == pytest.approx(math.log(2.0), rel=1e-14)
    assert punctured_k_length([complex(-1.0, -0.0), complex(-2.0, 0.0)], [0.0]) >= math.log(2.0)


def test_punctured_k_length_agrees_with_quadrature_on_thick_curves():
    dom = FiniteComplement([0.0, 1.0, 1.0j])
    path = Polyline([-0.5 + 0.3j, 0.5 + 0.5j, 2.1 - 1.0j, 3.0 + 2.0j, -1.0 + 2.0j])
    quad = rho_length(path, quasihyperbolic_density(dom), rel_tol=1e-12)
    assert punctured_k_length(path, dom.finite_boundary_points()) == pytest.approx(quad, rel=1e-10)


# ---------------------------------------------------------------------------
# The disk's hyperbolic distance near its circle
# ---------------------------------------------------------------------------

@settings(deadline=None, max_examples=200)
@given(st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 2.0 * math.pi),
       st.integers(1, 5), st.integers(1, 5))
def test_hyperbolic_disk_distance_a_few_ulps_inside_the_circle(ta, tb, ka, kb):
    ra, rb = 1.0, 1.0
    for _ in range(ka):
        ra = math.nextafter(ra, 0.0)
    for _ in range(kb):
        rb = math.nextafter(rb, 0.0)
    a, b = ra * cmath.exp(1j * ta), rb * cmath.exp(1j * tb)
    if not (abs(a) < 1.0 and abs(b) < 1.0):
        return  # the rotation rounded the point onto or past the circle
    d = hyperbolic_disk_distance(a, b)
    assert math.isfinite(d) and d >= 0.0
    assert d == hyperbolic_disk_distance(b, a)
    if a != b:
        assert d > 0.0


def test_hyperbolic_disk_distance_of_antipodes_an_ulp_inside():
    # twice the distance 2 atanh(r) from 0, with 2 atanh(r) = log((1 + r)/(1 - r))
    # = log(2^54 - 1) at r = 1 - 2^-53; the atanh form raised here
    r = math.nextafter(1.0, 0.0)
    assert hyperbolic_disk_distance(r, -r) == pytest.approx(2.0 * math.log(2.0 ** 54 - 1.0),
                                                            rel=1e-15)
