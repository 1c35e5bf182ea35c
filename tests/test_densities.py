"""Density formulas, model distances, and certified hyperbolic intervals."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qhyp import (
    KAPPA,
    DistanceInterval,
    DomainError,
    FiniteComplement,
    InconsistentIntervalError,
    OutsideDomainError,
    PuncturedSubdomain,
    PuncturedUnitDisk,
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
# minus {0, 1}, and 8 pairs of the same sampler on three more domains.
DC, PD = "double-quasihyperbolic", "punctured-disk-estimate"
PARENT_H_UPPERS = [
    (FiniteComplement([0.0, 1.0]), 12, [
        (1.5463600432036555, DC), (1.1096029134788106, DC), (6.844232812988417, DC),
        (8.395501438501583, DC), (4.5122665993400695, DC), (0.587742797386243, DC),
        (0.9392460441147782, DC), (5.745518653742398, PD), (7.8664299954291526, DC),
        (5.585361449003673, DC), (5.558227689199934, PD), (6.023597474110447, DC)]),
    (FiniteComplement([0.0, 1.0, 1.0j, -1.5 + 0.5j]), 8, [
        (1.6862824128696088, DC), (0.9990575887056213, DC), (6.561112296567703, DC),
        (8.686570744945705, DC), (7.3050295917142085, DC), (0.5877427973862429, DC),
        (0.7791890613874068, "density-bound-arc"), (6.063184338388292, DC)]),
    (PuncturedSubdomain(UnitDisk(), [0.25j, -0.3]), 8, [
        (8.219117718067409, DC), (9.31318543458236, DC), (6.862036391265555, DC),
        (3.1169299014841783, DC), (1.138080768866516, DC), (5.847248420390109, DC),
        (2.4555567938972827, DC), (3.787738488224506, DC)]),
    (PuncturedSubdomain(UpperHalfPlane(), [1.0j, 1.0 + 2.0j]), 8, [
        (6.00106903107248, PD), (17.754921267390564, DC), (3.2357096168350843, DC),
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
