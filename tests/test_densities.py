"""Density formulas, model distances, and certified hyperbolic intervals."""

import math
import time
from decimal import Decimal, localcontext

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qhyp import (
    KAPPA,
    DistanceInterval,
    DomainError,
    ExteriorUnitDisk,
    FiniteComplement,
    InconsistentIntervalError,
    OutsideDomainError,
    PuncturedSubdomain,
    PuncturedUnitDisk,
    TranslatedScaled,
    UnitDisk,
    UpperHalfPlane,
    chordal_quasihyperbolic_density,
    disk_exterior_density,
    h01_lower,
    h_interval,
    h_upper_Dstar,
    h_upper_disk_exterior,
    h_upper_three_punct,
    halfplane_density,
    halfplane_distance,
    hyperbolic_disk_density,
    hyperbolic_disk_distance,
    k_interval_fast,
    lambda01_lower,
    punctured_disk_density,
    quasihyperbolic_density,
)
from qhyp import densities as densities_module
from qhyp import solver as solver_module


# ---------------------------------------------------------------------------
# Model densities
# ---------------------------------------------------------------------------

def test_model_density_values():
    assert hyperbolic_disk_density(np.array([0.0 + 0.0j]))[0] == pytest.approx(2.0)
    assert hyperbolic_disk_density(np.array([0.5 + 0.0j]))[0] == pytest.approx(8.0 / 3.0)
    assert halfplane_density(np.array([3.0 + 2.0j]))[0] == pytest.approx(0.5)
    # punctured disk density at radius 1/e: 1 / (r log(1/r)) = e
    assert punctured_disk_density(np.array([math.exp(-1.0) + 0.0j]))[0] == pytest.approx(math.e)
    assert disk_exterior_density(np.array([math.e + 0.0j]))[0] == pytest.approx(
        1.0 / math.e, rel=1e-12
    )


def test_sharp_twice_punctured_lower_density():
    # the bound is exactly 1/kappa on the unit circle opposite the second puncture
    assert lambda01_lower(np.array([-1.0 + 0.0j]))[0] == pytest.approx(1.0 / KAPPA, abs=1e-16)
    # decays like 1 / (|z| log |z|) far away
    far = lambda01_lower(np.array([1e6 + 0.0j]))[0]
    assert far == pytest.approx(1.0 / (1e6 * (KAPPA + math.log(1e6))), rel=1e-12)


def test_quasihyperbolic_density_is_reciprocal_gap():
    dom = FiniteComplement([0.0, 1.0])
    rho = quasihyperbolic_density(dom)
    zs = np.array([0.5 + 0.5j, -2.0, 0.25])
    expected = 1.0 / dom.delta_field(zs)
    assert np.allclose(rho(zs), expected, rtol=1e-14)


def test_chordal_density_uses_sphere_gap():
    dom = FiniteComplement([0.0])
    rho = chordal_quasihyperbolic_density(dom)
    z = np.array([1.0 + 0.0j])
    # spherical scale 2/(1+|z|^2) over the chordal gap to {0, infinity}
    gap = min(2.0 / math.sqrt(2.0) / 1.0, 2.0 / math.sqrt(2.0))
    assert rho(z)[0] == pytest.approx((2.0 / 2.0) / gap, rel=1e-12)


@pytest.mark.parametrize("dom, inside, outside",
                         [(UpperHalfPlane(), 1.0 + 1.0j, 1.0 - 1.0j),
                          (PuncturedUnitDisk(), 0.5j, 2.0)],
                         ids=["halfplane", "punctured-disk"])
def test_chordal_density_is_inf_outside_the_domain(dom, inside, outside):
    # the convention of quasihyperbolic_density: finite means inside
    z = np.array([inside, outside])
    rho = chordal_quasihyperbolic_density(dom)(z)
    assert np.isfinite(rho[0]) and rho[0] > 0.0
    assert rho[1] == math.inf
    assert quasihyperbolic_density(dom)(z)[1] == math.inf
    assert dom.chordal_boundary_distance_field(z)[1] == 0.0
    with pytest.raises(OutsideDomainError):
        dom.chordal_boundary_distance(outside)


# ---------------------------------------------------------------------------
# Model distances
# ---------------------------------------------------------------------------

def test_model_distance_values():
    assert hyperbolic_disk_distance(0.0, 0.5) == pytest.approx(math.log(3.0), abs=1e-15)
    assert halfplane_distance(1.0j, 2.0j) == pytest.approx(math.log(2.0), abs=1e-15)
    assert halfplane_distance(-1.0 + 1.0j, 1.0 + 1.0j) == pytest.approx(
        math.acosh(3.0), abs=1e-12
    )


@settings(deadline=None, max_examples=40)
@given(
    st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False),
    st.complex_numbers(max_magnitude=0.95, allow_nan=False, allow_infinity=False),
)
def test_disk_distance_symmetric_nonnegative(a, b):
    d1 = hyperbolic_disk_distance(a, b)
    d2 = hyperbolic_disk_distance(b, a)
    assert d1 >= 0.0
    assert d1 == pytest.approx(d2, rel=1e-12, abs=1e-12)


def test_halfplane_distance_invariances():
    a, b = 0.5 + 1.0j, -2.0 + 3.0j
    base = halfplane_distance(a, b)
    # horizontal translation and positive dilation are isometries
    assert halfplane_distance(a + 7.0, b + 7.0) == pytest.approx(base, rel=1e-12)
    assert halfplane_distance(3.0 * a, 3.0 * b) == pytest.approx(base, rel=1e-12)


# ---------------------------------------------------------------------------
# Distance intervals
# ---------------------------------------------------------------------------

def test_interval_accessors():
    iv = DistanceInterval(1.0, 2.0, "lo", "hi")
    assert iv.width == pytest.approx(1.0)
    assert iv.contains(1.5)
    assert not iv.contains(2.5)
    assert "lo" in iv.as_dict()["lower_source"]


def test_interval_rounding_tie_is_clamped():
    iv = DistanceInterval(1.0, 1.0 - 1e-16)
    assert iv.upper == iv.lower


def test_interval_rejects_real_inversion():
    with pytest.raises(InconsistentIntervalError):
        DistanceInterval(2.0, 1.0)
    with pytest.raises(InconsistentIntervalError):
        DistanceInterval(-1.0, 1.0)
    with pytest.raises(InconsistentIntervalError):
        DistanceInterval(0.0, math.nan)


# ---------------------------------------------------------------------------
# Hyperbolic bounds for punctured models
# ---------------------------------------------------------------------------

def test_punctured_disk_upper_anchor():
    val = h_upper_Dstar(math.exp(-4.0), math.exp(-2.0))
    assert val == pytest.approx(math.log(2.0) + math.pi / math.log(2.0), abs=1e-14)
    # scale invariance: same log-ratio in a rescaled punctured disk
    val2 = h_upper_Dstar(3.0 * math.exp(-4.0), 3.0 * math.exp(-2.0), 0.0, 3.0)
    assert val2 == pytest.approx(val, rel=1e-12)
    with pytest.raises(DomainError):
        h_upper_Dstar(0.5, 2.0)


def test_disk_exterior_upper_mirrors_punctured_disk():
    v_in = h_upper_Dstar(math.exp(-3.0), math.exp(-1.5))
    v_out = h_upper_disk_exterior(math.exp(3.0), math.exp(1.5))
    assert v_out == pytest.approx(v_in, rel=1e-12)
    with pytest.raises(DomainError):
        h_upper_disk_exterior(0.5, 2.0)


def test_twice_punctured_lower_same_side():
    val, ok = h01_lower(math.exp(-2.0), math.exp(-1.0))
    assert ok
    assert val == pytest.approx(math.log((KAPPA + 2.0) / (KAPPA + 1.0)), abs=1e-14)
    # outside the unit circle the same log-moduli give the same bound
    val_out, ok_out = h01_lower(math.exp(2.0) * 1.0j, math.exp(1.0))
    assert ok_out
    assert val_out == pytest.approx(val, rel=1e-12)


def test_twice_punctured_lower_mixed_side():
    val, ok = h01_lower(0.5, 2.0)
    assert not ok
    assert val == 0.0
    with pytest.raises(DomainError):
        h01_lower(0.0, 0.5)


def test_three_puncture_upper_validation():
    v = h_upper_three_punct(math.exp(-3.0), math.exp(3.0))
    assert v == pytest.approx(4.0 + math.pi * math.log(3.0), abs=1e-12)
    with pytest.raises(DomainError):
        h_upper_three_punct(1.0, 2.0)  # ratio too small
    with pytest.raises(DomainError):
        h_upper_three_punct(2.0, 1.0)
    with pytest.raises(DomainError):
        h_upper_three_punct(-1.0, 1.0)


# ---------------------------------------------------------------------------
# Combined certified interval
# ---------------------------------------------------------------------------

def test_h_interval_exact_on_models():
    iv = h_interval(UnitDisk(), 0.0, 0.5)
    assert iv.lower == iv.upper == pytest.approx(math.log(3.0), abs=1e-15)
    iv = h_interval(UpperHalfPlane(), 1.0j, 2.0j)
    assert iv.lower == iv.upper == pytest.approx(math.log(2.0), abs=1e-15)


def test_h_interval_symmetry_and_order():
    dom = FiniteComplement([0.0, 1.0])
    a, b = math.exp(-4.0), math.exp(-2.0)
    iv = h_interval(dom, a, b)
    assert 0.0 < iv.lower <= iv.upper
    rev = h_interval(dom, b, a)
    assert rev.lower == pytest.approx(iv.lower, rel=1e-12)
    assert rev.upper == pytest.approx(iv.upper, rel=1e-12)


def test_h_interval_coincident_and_validation():
    dom = FiniteComplement([0.0, 1.0])
    iv = h_interval(dom, 0.5j, 0.5j)
    assert iv.lower == iv.upper == 0.0
    with pytest.raises(DomainError):
        h_interval(dom, 0.0, 0.5j)
    with pytest.raises(DomainError):
        h_interval(FiniteComplement([0.0]), 1.0, 2.0)


def test_h_interval_punctured_disk_lower_respects_disk_metric():
    dom = PuncturedUnitDisk()
    a, b = 0.1, -0.7
    iv = h_interval(dom, a, b)
    assert iv.lower >= hyperbolic_disk_distance(a, b) - 1e-12
    assert iv.upper >= iv.lower


def _dec_asinh(x: Decimal) -> Decimal:
    if x < Decimal("1e-20"):
        return x - x * x * x / 6
    return (x + (x * x + 1).sqrt()).ln()


def _outside_disk_distance(dom, a: complex, b: complex) -> float:
    """The hyperbolic distance of a and b in the sphere minus the closed disk
    that is ``dom``'s one complement component, 2 asinh(R |a - b| /
    sqrt((|a - c|^2 - R^2)(|b - c|^2 - R^2))), evaluated at 60 digits from
    the points actually passed and the component's own center and radius."""
    (comp,) = dom.complement_components()
    with localcontext() as ctx:
        ctx.prec = 60
        c, r = comp.center, Decimal(comp.radius)

        def sq(z):  # |z - c|^2
            x, y = Decimal(z.real) - Decimal(c.real), Decimal(z.imag) - Decimal(c.imag)
            return x * x + y * y

        dx = Decimal(a.real) - Decimal(b.real)
        dy = Decimal(a.imag) - Decimal(b.imag)
        ratio = r * (dx * dx + dy * dy).sqrt() / ((sq(a) - r * r) * (sq(b) - r * r)).sqrt()
        return float(2 * _dec_asinh(ratio))


_disk_point = st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                        st.floats(min_value=1e-3, max_value=0.98),
                        st.floats(min_value=-math.pi, max_value=math.pi))


@settings(deadline=None, max_examples=30)
@given(_disk_point, _disk_point, st.booleans())
# the nearer point beyond r/2 of the puncture, where the punctured-disk
# estimate fell below the disk distance (the first pair raised)
@example(0.7680821274972662 - 0.522318864911496j,
         -0.7963973467255818 - 0.3087745095191581j, False)
@example(0.9 + 0j, -0.9 + 0j, False)
# the disk exterior at 1.1, -1.1 (w = 1/z at -+0.909): h is at least 6.09
@example(1 / 1.1 + 0j, -1 / 1.1 + 0j, True)
def test_h_interval_upper_at_least_disk_distance(w_a, w_b, exterior):
    # D* and the exterior of the unit disk, whose hyperbolic metric is D*'s
    # under z -> 1/z: both exceed the unit disk's
    assume(w_a != w_b)
    if exterior:
        # compared at the points passed: 1 / w_a and 1 / w_b may round
        # closer together than w_a and w_b are, or onto one point
        dom, a, b = ExteriorUnitDisk(), 1 / w_a, 1 / w_b
        model = _outside_disk_distance(dom, a, b)
    else:
        dom, a, b = PuncturedUnitDisk(), w_a, w_b
        model = hyperbolic_disk_distance(w_a, w_b)
    iv = h_interval(dom, a, b)
    assert iv.upper >= model * (1.0 - 1e-12)


@settings(deadline=None, max_examples=40)
@given(_disk_point, _disk_point, st.booleans())
# the points of the gap once left open: the lower bound was 0 at 1.1, -1.1
# and 0.0233 at 2, 3i
@example(1 / 1.1 + 0j, -1 / 1.1 + 0j, False)
@example(0.5 + 0j, -1j / 3.0, False)
@example(0.5 + 0j, -1j / 3.0, True)
# w_a and w_b 5.6e-108 apart, whose images both round to 7 - 1.5i: h is 0
@example(0.5 + 0j, 0.5 + 5.6232285572273996e-108j, True)
def test_h_interval_lower_outside_a_closed_disk(w_a, w_b, moved):
    # outside a closed disk h is at least the distance in the sphere minus
    # the disk, which z -> 1/z maps onto the unit disk; infinity is on the
    # boundary, so that distance is never exact.  It is compared at the
    # points passed, not at w_a and w_b, which z -> s/z + c moves by rounding
    assume(w_a != w_b)
    a, b = 1 / w_a, 1 / w_b
    dom = ExteriorUnitDisk()
    if moved:
        s, c = 2.0 - 1.0j, 3.0 + 0.5j
        dom, a, b = TranslatedScaled(dom, s, c), s * a + c, s * b + c
    iv = h_interval(dom, a, b)
    assert iv.lower >= _outside_disk_distance(dom, a, b) * (1.0 - 1e-12)
    # near infinity the twice-punctured bound about two boundary points,
    # which counts infinity as a boundary point, can be the better one
    assert "exact" not in iv.lower_source and "exact" not in iv.upper_source


def _inside_the_unit_circle(angle: float, ulps: int) -> complex:
    r = 1.0
    for _ in range(ulps):
        r = math.nextafter(r, 0.0)
    return r * complex(math.cos(angle), math.sin(angle))


_angle = st.floats(min_value=-math.pi, max_value=math.pi)
_near_circle = st.builds(_inside_the_unit_circle, _angle, st.integers(min_value=1, max_value=5))
_deep_disk_point = st.builds(lambda r, t: r * complex(math.cos(t), math.sin(t)),
                             st.floats(min_value=0.0, max_value=0.99), _angle)


def _unit_disk_or_image(moved: bool, w_a: complex, w_b: complex):
    """The unit disk and two of its points, or their images under z -> s z + c."""
    if not moved:
        return UnitDisk(), w_a, w_b
    s, c = 2.0 - 1.0j, 3.0 + 0.5j
    return TranslatedScaled(UnitDisk(), s, c), s * w_a + c, s * w_b + c


@settings(deadline=None, max_examples=80)
@given(_near_circle, _deep_disk_point, st.booleans())
# a point the disk contains whose image (a - c) / R once rounded onto the
# circle, where atanh's argument reached 1 and h_interval raised
@example(-0.8825268774496718 + 0.47026195952780553j, 0.5 + 0j, False)
def test_h_interval_a_few_ulps_inside_the_unit_circle(w_a, w_b, moved):
    dom, a, b = _unit_disk_or_image(moved, w_a, w_b)
    assume(dom.contains(a))
    iv = h_interval(dom, a, b)
    assert iv.lower_source == "disk-exact"
    assert math.isfinite(iv.lower) and iv.lower == iv.upper > 0.0


@settings(deadline=None, max_examples=80)
@given(_deep_disk_point, _deep_disk_point, st.booleans())
def test_h_interval_on_the_unit_disk_is_the_disk_distance(w_a, w_b, moved):
    # the z-form of the model distance is the atanh form, up to rounding
    assume(abs(w_a - w_b) >= 1e-2)
    dom, a, b = _unit_disk_or_image(moved, w_a, w_b)
    iv = h_interval(dom, a, b)
    assert iv.lower_source == "disk-exact"
    assert iv.lower == pytest.approx(hyperbolic_disk_distance(w_a, w_b), rel=1e-12)


@settings(deadline=None, max_examples=60)
@given(st.floats(min_value=-0.99, max_value=0.99), st.floats(min_value=-300.0, max_value=-100.0),
       st.booleans(), st.booleans())
@example(0.5, math.log10(1e-170), False, False)
def test_h_interval_of_points_far_below_rounding_scale(x, log_gap, outside, moved):
    # a = x and b = x + i d, 1e-300 <= d <= 1e-100, in the unit disk or,
    # as 1/x and 1/x + i d, outside it, or both doubled in the disk of
    # radius 2: r |a - b| is not squared, so h is positive, and 2 d / |1 - x^2|
    # to first order
    d = 10.0 ** log_gap
    if outside:
        assume(abs(x) >= 1e-2)
        x = 1.0 / x
    dom = ExteriorUnitDisk() if outside else UnitDisk()
    a, b = complex(x), complex(x, d)
    if moved:
        dom, a, b = TranslatedScaled(dom, 2.0, 0.0), 2.0 * a, 2.0 * b
    iv = h_interval(dom, a, b)
    assert iv.lower > 0.0
    assert iv.lower == pytest.approx(2.0 * d / abs(1.0 - x * x), rel=1e-12)


@pytest.mark.parametrize("a, b, lower", [(1.1, -1.1, 6.089), (2.0, 3.0j, 1.364)])
def test_h_interval_lower_outside_the_unit_disk_pins(a, b, lower):
    iv = h_interval(ExteriorUnitDisk(), a, b)
    assert iv.lower == pytest.approx(lower, abs=5e-4)
    assert iv.lower_source == "disk-lower" and iv.upper > iv.lower


@pytest.mark.parametrize("dom, a, b, estimate", [
    (PuncturedUnitDisk(), 0.5, -0.9, True),
    (PuncturedUnitDisk(), 0.51, -0.9, False),
    (ExteriorUnitDisk(), 2.0, -1.1, True),
    (ExteriorUnitDisk(), 1.99, -1.1, False),
], ids=["D*-near-at-r/2", "D*-near-beyond-r/2", "exterior-far-at-2R",
        "exterior-far-within-2R"])
def test_h_interval_model_estimate_ranges(dom, a, b, estimate):
    iv = h_interval(dom, a, b)
    assert iv.upper_source.startswith(MODEL_ESTIMATES) == estimate


@pytest.mark.parametrize("base, a, b", [
    (UnitDisk(), 0.1 + 0.2j, -0.3 + 0.5j),
    (UpperHalfPlane(), 1.0 + 0.5j, -2.0 + 1.0j),
    (PuncturedUnitDisk(), 0.1 + 0.2j, -0.3 + 0.5j),
], ids=["unit-disk", "half-plane", "punctured-disk"])
def test_h_interval_same_set_same_enclosure(base, a, b):
    iv = h_interval(base, a, b)
    # the same set, built another way
    same = h_interval(TranslatedScaled(base, 1.0, 0.0), a, b)
    assert (same.lower, same.upper) == (iv.lower, iv.upper)
    assert same.lower_source.split("(")[0] == iv.lower_source.split("(")[0]
    # a similar copy: h is invariant under z -> s z + c
    s, c = 2.0 - 1.0j, 3.0 + 0.5j
    moved = h_interval(TranslatedScaled(base, s, c), s * a + c, s * b + c)
    assert moved.lower == pytest.approx(iv.lower, rel=1e-12)
    assert moved.upper == pytest.approx(iv.upper, rel=1e-12)


def test_h_interval_lower_at_least_halfplane_distance():
    from qhyp.cli import _sample_pairs

    dom = PuncturedSubdomain(UpperHalfPlane(), [1.0j, 1.0 + 2.0j])
    for a, b in _sample_pairs(dom, 60, 0):
        iv = h_interval(dom, a, b)
        assert iv.lower >= halfplane_distance(a, b), (a, b, iv)


# Two pairs of `qhyp qi-verify --pairs 4 --seed 0` on the plane minus {0, 1}.
# Their Beardon-Pommerenke arcs run near the locus where that density bound
# diverges: the first arc's integral was 129, the second's never converged.
SLOW_ARC_PAIR = (1.7530809568010897 + 0.42654310306871945j,
                 2.151022309110887 + 0.9179862439359936j)
DIVERGENT_ARC_PAIR = (1.9296171063502774 + 0.9186217857197763j,
                      -1.3656576987781426 - 1.297377517589764j)
MODEL_ESTIMATES = ("punctured-disk-estimate", "disk-exterior-estimate")


def test_h_interval_caps_upper_at_twice_k():
    dom = FiniteComplement([0.0, 1.0])
    a, b = SLOW_ARC_PAIR
    iv = h_interval(dom, a, b)
    k_up = k_interval_fast(dom, a, b).upper
    assert math.isfinite(iv.upper)
    assert iv.lower <= iv.upper <= 2.0 * k_up


def test_h_interval_finite_where_the_arc_diverges():
    dom = FiniteComplement([0.0, 1.0])
    iv = h_interval(dom, *DIVERGENT_ARC_PAIR)
    assert math.isfinite(iv.upper)
    assert iv.upper_source == "double-quasihyperbolic"


_plane_point = st.tuples(st.floats(min_value=-3.0, max_value=3.0),
                         st.floats(min_value=-3.0, max_value=3.0)).map(lambda t: complex(*t))


@settings(deadline=None, max_examples=25)
@given(_plane_point, _plane_point)
# the segment passes 1 at a subnormal distance, where 1/delta overflows
@example(2 + 2.225073858507203e-309j, 0.5 + 0j)
# the winding angle of b about 0 underflows, where cmath.phase raises
@example(1j, 2 + 5e-324j)
def test_h_interval_upper_at_most_twice_k(a, b):
    dom = FiniteComplement([0.0, 1.0])
    assume(min(abs(a), abs(a - 1.0), abs(b), abs(b - 1.0)) > 0.05 and a != b)
    iv = h_interval(dom, a, b)
    assert iv.lower <= iv.upper
    if not iv.upper_source.startswith(MODEL_ESTIMATES):
        assert iv.upper <= 2.0 * k_interval_fast(dom, a, b).upper


# h upper bounds before the Beardon-Pommerenke arc search was replaced by
# one integral of min(2/delta, (pi/2)/(delta beta)), each with its label
# then: the 12 pairs of `qhyp qi-verify --pairs 12 --seed 0` on the plane
# minus {0, 1}, and 8 pairs of the same sampler on three more domains.  Two
# were punctured-disk estimates with the nearer point beyond r/2 of the
# puncture, where the estimate is no upper bound; they hold the bounds that
# replace them: pair 11 on {0, 1} (was 5.558227689199934) and pair 1 on the
# half-plane (was 6.00106903107248).
DC, PD = "double-quasihyperbolic", "punctured-disk-estimate"
PARENT_H_UPPERS = [
    (FiniteComplement([0.0, 1.0]), 12, [
        (1.5463600432036555, DC), (1.1096029134788106, DC), (6.844232812988417, DC),
        (8.395501438501583, DC), (4.5122665993400695, DC), (0.587742797386243, DC),
        (0.9392460441147782, DC), (5.745518653742398, PD), (7.8664299954291526, DC),
        (5.585361449003673, DC), (5.952769487056822, "density-bound(segment)"),
        (6.023597474110447, DC)]),
    (FiniteComplement([0.0, 1.0, 1.0j, -1.5 + 0.5j]), 8, [
        (1.6862824128696088, DC), (0.9990575887056213, DC), (6.561112296567703, DC),
        (8.686570744945705, DC), (7.3050295917142085, DC), (0.5877427973862429, DC),
        (0.7791890613874068, "density-bound-arc"), (6.063184338388292, DC)]),
    (PuncturedSubdomain(UnitDisk(), [0.25j, -0.3]), 8, [
        (8.219117718067409, DC), (9.31318543458236, DC), (6.862036391265555, DC),
        (3.1169299014841783, DC), (1.138080768866516, DC), (5.847248420390109, DC),
        (2.4555567938972827, DC), (3.787738488224506, DC)]),
    (PuncturedSubdomain(UpperHalfPlane(), [1.0j, 1.0 + 2.0j]), 8, [
        (1.3229109077207113, DC), (17.754921267390564, DC), (3.2357096168350843, DC),
        (0.48086387921735285, DC), (1.1922164393943877, DC), (5.785721425853508, PD),
        (9.822185937236934, DC), (5.9564820561861795, DC)]),
]


def test_h_interval_upper_not_above_parent():
    from qhyp.cli import _sample_pairs

    tightened = 0
    for dom, n, recorded in PARENT_H_UPPERS:
        for (a, b), (old, old_src) in zip(_sample_pairs(dom, n, 0), recorded):
            iv = h_interval(dom, a, b)
            # the old arc integral was returned unpadded; its replacement on
            # the same curve carries the (1 + 1e-8) outward pad
            pad = 1e-8 if old_src == "density-bound-arc" else 0.0
            assert iv.upper <= old * (1.0 + pad) * (1.0 + 1e-12), (a, b, iv, old_src)
            if iv.upper < old and iv.upper_source.startswith("density-bound("):
                tightened += 1
    assert tightened >= 1


def test_k_and_h_equal_with_cold_and_warm_fast_slot():
    # each pair's k_interval_fast result is kept for the next call; on the
    # pinned sample it must change nothing, whichever comes first
    from qhyp.cli import _sample_pairs

    for dom, n, _ in PARENT_H_UPPERS:
        for a, b in _sample_pairs(dom, n, 0):
            solver_module._last_fast = None
            cold_h = h_interval(dom, a, b)
            solver_module._last_fast = None
            cold_k = k_interval_fast(dom, a, b)
            assert h_interval(dom, a, b) == cold_h  # warm from k
            solver_module._last_fast = None
            h_interval(dom, a, b)
            assert k_interval_fast(dom, a, b) == cold_k  # warm from h, when it measured k
            assert h_interval(dom, a, b) == cold_h


# ---------------------------------------------------------------------------
# Points many decades apart
# ---------------------------------------------------------------------------

# h_interval at e^-L, e^L on the plane minus {0, 1}, L = 1, 2, ..., 32 (the
# rows of counterexample_divergence): (lower, upper).
_DIVERGENCE_H = [
    (0.0, 8.641553131176948), (0.0, 10.827184608397387), (0.0, 12.839211774156235),
    (0.0, 14.892315061136824), (0.0, 16.998913518133687), (0.0, 19.14170465771006),
]


@pytest.mark.parametrize("n", range(1, 11))
def test_h_interval_on_the_divergence_rows(n):
    dom = FiniteComplement([0.0, 1.0])
    L = 2.0 ** (n - 1)
    iv = h_interval(dom, math.exp(-L), math.exp(L))
    if n <= 6:
        assert (iv.lower, iv.upper) == _DIVERGENCE_H[n - 1]
        assert iv.upper_source == "density-bound(arc(1+0j))"
    else:
        # e^-L rounds onto the puncture in the twice-punctured bound's
        # coordinates, and the rho+ integral along the arc about 1 does not
        # converge within its levels: the upper bound is twice k's
        k = k_interval_fast(dom, math.exp(-L), math.exp(L))
        assert (iv.lower, iv.upper) == (0.0, 2.0 * k.upper)
        assert iv.upper_source == "double-quasihyperbolic"
        assert math.isfinite(iv.upper)


def test_bp_arc_upper_is_infinite_where_no_rough_integral_converges():
    # at e^-64, e^64 the density spans far more than 2^60 along the arc
    # about 1, whose rho+ integral is then infinite, not its last estimate
    dom = FiniteComplement([0.0, 1.0])
    _, curves = solver_module._k_interval_fast_curves(dom, math.exp(-64.0), math.exp(64.0))
    assert [name for _, name in curves] == ["arc(1+0j)"]
    assert densities_module._bp_arc_upper(dom, curves, math.inf) == (math.inf, "")


_TWO_POINTS = FiniteComplement([0.0, 1.0])
_FOUR_POINTS = FiniteComplement([0.0, 1.0, 1.0j, -1.5 + 0.5j])
# the pair whose arc about 1 ended at 1.2e-16i, 431.59 long against a lower
# bound of 1033.27; a pair whose rho+ integral stopped counting below h's
# lower bound; and a pair less than 1e-15 apart near 0, whose segment
# collapsed to a point
_ARC_PAIR = (-1.67e171 + 2.05e155j, 1.03e-278 - 2.84e-278j)
_FAR_H_PAIR = (4367.092843910082 - 18394.65335901474j, 1.98397e32 + 2.96587e33j)
_TINY_PAIR = (1e-17 + 0j, 2e-17j)


@st.composite
def _extreme_point(draw, punctures):
    """A point at a radius log-uniform in [1e-300, 1e-1] about a puncture,
    or in [1e1, 1e300] about 0, on an axis or at any angle."""
    if draw(st.booleans()):
        c, r = draw(st.sampled_from(punctures)), 10.0 ** draw(st.floats(-300.0, -1.0))
    else:
        c, r = 0.0, 10.0 ** draw(st.floats(1.0, 300.0))
    t = draw(st.one_of(st.sampled_from([0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi]),
                       st.floats(-math.pi, math.pi)))
    return c + r * complex(math.cos(t), math.sin(t))


@st.composite
def _extreme_pair(draw):
    dom = draw(st.sampled_from([_TWO_POINTS, _FOUR_POINTS]))
    punctures = list(dom.finite_boundary_points())
    return dom, draw(_extreme_point(punctures)), draw(_extreme_point(punctures))


@settings(deadline=None, max_examples=40)
@given(_extreme_pair())
@example((_TWO_POINTS, *_ARC_PAIR))
@example((_TWO_POINTS, *_FAR_H_PAIR))
@example((_TWO_POINTS, *_TINY_PAIR))
@example((_FOUR_POINTS, *_ARC_PAIR))
def test_extreme_pairs_get_consistent_intervals(case):
    # each call gives 0 <= lower <= upper, or raises DomainError for a point
    # that rounded onto a puncture
    dom, a, b = case
    inside = dom.contains(a) and dom.contains(b)
    for distance in (k_interval_fast, h_interval):
        if not inside:
            with pytest.raises(DomainError):
                distance(dom, a, b)
            continue
        iv = distance(dom, a, b)
        assert 0.0 <= iv.lower <= iv.upper


def test_extreme_pairs_pinned():
    k = k_interval_fast(_TWO_POINTS, *_ARC_PAIR)
    assert (k.lower, k.upper) == (1033.2697207195888, 1034.378035631701)
    assert k.upper_source == "segment"
    h = h_interval(_TWO_POINTS, *_FAR_H_PAIR)
    assert h.lower == 1.7450712366618901 and h.upper == 140.138494039721
    k = k_interval_fast(_TWO_POINTS, *_TINY_PAIR)
    assert k.upper == 1.9248473002384348 and k.upper_source == "segment"


# the outside of a closed disk of radius 1e-10 about 0
_SMALL_DISK = TranslatedScaled(ExteriorUnitDisk(), 1e-10)


def test_twice_punctured_lower_skips_an_anchor_pair_whose_image_overflows():
    # anchors 1e-10 apart seen from 1e300: z -> (z - p)/(q - p) overflows
    iv = h_interval(_SMALL_DISK, 1e300, 2e300j)
    assert 0.0 < iv.lower <= iv.upper
    assert densities_module._twice_punctured_lower(1e300, 2e300j, 1e-10, 1e-10j) is None
    # the image is finite but its modulus overflows
    assert densities_module._twice_punctured_lower(1e300 + 1e300j, 1.0, 0.0, 0.7e-8) is None


def test_disk_lower_far_from_a_small_circle():
    # (|ra - r|(ra + r))(|rb - r|(rb + r)) overflows here; the lower bound
    # was 0 (trivial).  In the limit a -> infinity it is 2 asinh(1/sqrt(8)),
    # which is log 2
    iv = h_interval(_SMALL_DISK, 1e300, 3e-10)
    assert iv.lower_source == "disk-lower"
    assert iv.lower == pytest.approx(math.log(2.0), rel=1e-15)
    assert iv.lower <= iv.upper


def test_k_and_h_give_up_beside_the_circle_within_seconds():
    # a point 2.2e-16 inside the unit circle: off point complements k is a
    # quadrature, which refined this pair to 18M pieces at once (274 MiB);
    # past its cap on refined pieces it is infinite instead
    dom = PuncturedSubdomain(UnitDisk(), [0.25j, -0.3])
    a, b = -0.8825268774496718 + 0.47026195952780553j, 0.5
    for distance in (k_interval_fast, h_interval):
        solver_module._last_fast = None
        start = time.perf_counter()
        iv = distance(dom, a, b)
        assert time.perf_counter() - start < 60.0
        assert 0.0 < iv.lower and iv.upper == math.inf
