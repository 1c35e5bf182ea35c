"""Plane domains: membership, boundary distances, JSON wire format, path length."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhyp import (
    INF,
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
    chordal_distance,
    chordal_distance_field,
    domain_from_json,
    domain_from_json_text,
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
    assert dom.nearest_boundary(1.0) == [pytest.approx(0.0)]
    assert dom.nearest_boundary(3.5) == [pytest.approx(4.0)]
    # the midpoint sees both punctures
    assert sorted(dom.nearest_boundary(2.0), key=abs) == [
        pytest.approx(0.0),
        pytest.approx(4.0),
    ]
    assert UnitDisk().nearest_boundary(0.5) == [pytest.approx(1.0)]
    assert UpperHalfPlane().nearest_boundary(2.0 + 3.0j) == [pytest.approx(2.0)]


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


def test_hyperbolicity_flag():
    assert not FiniteComplement([0.0]).is_hyperbolic
    assert FiniteComplement([0.0, 1.0]).is_hyperbolic
    assert UnitDisk().is_hyperbolic
    # the sphere minus two points carries no hyperbolic metric
    assert not FiniteComplement([0.0, 1.0], contains_infinity=True).is_hyperbolic
    assert FiniteComplement([0.0, 1.0, 2.0], contains_infinity=True).is_hyperbolic


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


def test_json_rejects_unknown_keys():
    with pytest.raises(SchemaError):
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
    with pytest.raises(SchemaError):
        domain_from_json({"type": "translated_scaled", "base": {"type": "unit_disk"}})


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

