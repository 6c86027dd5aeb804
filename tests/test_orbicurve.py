"""Orbifold-curve Riemann-Roch against the coarse round-down oracle."""

import random
from fractions import Fraction

import pytest

from stackyrr.errors import ValidationError
from stackyrr.orbicurve import (
    FracDivisor,
    OrbifoldCurve,
    canonical_divisor,
    chi_orb_curve,
    chi_top_via_inertia,
    coarse_rr_oracle,
    degree,
    euler_char_rr,
    multiplicity,
    serre_duality_check,
    zero_divisor,
)


def curve_23():
    return OrbifoldCurve(0, (("p2", 2), ("p3", 3)))


def curve_237():
    return OrbifoldCurve(0, (("a", 2), ("b", 3), ("c", 7)))


def random_curve(rng):
    g = rng.randint(0, 5)
    npts = rng.randint(0, 6)
    pts = tuple((f"s{i}", rng.randint(2, 12)) for i in range(npts))
    return OrbifoldCurve(g, pts)


def random_divisor(rng, curve):
    pairs = []
    for label, r in curve.stacky_points:
        if rng.random() < 0.8:
            pairs.append((label, Fraction(rng.randint(-3 * r, 3 * r), r)))
    for j in range(rng.randint(0, 3)):
        pairs.append((f"q{j}", Fraction(rng.randint(-4, 4))))
    return FracDivisor.from_pairs(curve, pairs)


def test_curve_validation():
    with pytest.raises(ValidationError):
        OrbifoldCurve(-1)
    with pytest.raises(ValidationError):
        OrbifoldCurve(0, (("p", 1),))
    with pytest.raises(ValidationError):
        OrbifoldCurve(0, (("p", 2), ("p", 3)))


@pytest.mark.parametrize("genus", [1.0, 0.5, True])
def test_a_genus_that_is_not_an_int_is_refused(genus):
    # a float genus used to fail later, in euler_char_rr, with an AttributeError
    with pytest.raises(ValidationError, match="genus must be an int"):
        OrbifoldCurve(genus)


def test_divisor_denominators_checked():
    c = curve_23()
    with pytest.raises(ValidationError):
        FracDivisor.from_pairs(c, [("p2", Fraction(1, 3))])
    with pytest.raises(ValidationError):
        FracDivisor.from_pairs(c, [("elsewhere", Fraction(1, 2))])
    ok = FracDivisor.from_pairs(c, [("p2", Fraction(1, 2)), ("x", 3)])
    assert degree(ok) == Fraction(7, 2)


def test_multiplicity_examples():
    c = curve_23()
    assert multiplicity(zero_divisor(c), "p2") == 0
    d = FracDivisor.from_pairs(c, [("p2", Fraction(1, 2)), ("p3", Fraction(5, 3))])
    assert multiplicity(d, "p2") == 1
    assert multiplicity(d, "p3") == 2
    with pytest.raises(ValidationError):
        multiplicity(d, "q")


def test_degree_linear():
    rng = random.Random(4)
    c = random_curve(rng)
    a, b = random_divisor(rng, c), random_divisor(rng, c)
    assert degree(a + b) == degree(a) + degree(b)
    assert degree(zero_divisor(c)) == 0


def test_euler_char_examples():
    c = curve_23()
    assert euler_char_rr(zero_divisor(c)) == 1
    d = FracDivisor.from_pairs(c, [("p2", Fraction(1, 2)), ("p3", Fraction(2, 3))])
    assert euler_char_rr(d) == 1
    assert coarse_rr_oracle(d) == 1
    # degree-1 bundle with trivial isotropy weights: the two weight-12 forms
    d12 = FracDivisor.from_pairs(c, [("x", 1)])
    assert euler_char_rr(d12) == 2


def test_coarse_oracle_examples():
    g1 = OrbifoldCurve(1)
    assert coarse_rr_oracle(zero_divisor(g1)) == 0
    d = FracDivisor.from_pairs(g1, [("p", 3)])
    assert coarse_rr_oracle(d) == 3
    assert euler_char_rr(d) == 3


def test_rr_equals_oracle_randomized():
    rng = random.Random(20260808)
    for _ in range(250):
        c = random_curve(rng)
        d = random_divisor(rng, c)
        assert euler_char_rr(d) == coarse_rr_oracle(d)


def test_canonical_divisor():
    g1 = OrbifoldCurve(1)
    assert canonical_divisor(g1).support == ()
    k237 = canonical_divisor(curve_237())
    assert degree(k237) == Fraction(1, 42)
    g2 = OrbifoldCurve(2)
    k = canonical_divisor(g2)
    assert degree(k) == 2 and all(c.denominator == 1 for _, c in k.support)
    with pytest.raises(ValidationError):
        canonical_divisor(curve_23(), anchor="p2")


def test_gauss_bonnet_one():
    rng = random.Random(99)
    assert chi_orb_curve(OrbifoldCurve(0)) == 2
    assert chi_orb_curve(curve_237()) == Fraction(-1, 42)
    for _ in range(60):
        c = random_curve(rng)
        assert -degree(canonical_divisor(c)) == chi_orb_curve(c)


def test_gauss_bonnet_two():
    assert chi_top_via_inertia(curve_237()) == 2
    assert chi_top_via_inertia(OrbifoldCurve(3)) == -4
    assert chi_top_via_inertia(OrbifoldCurve(3, (("a", 2), ("b", 2)))) == -4
    rng = random.Random(123)
    for _ in range(60):
        c = random_curve(rng)
        assert chi_top_via_inertia(c) == 2 - 2 * c.genus


def test_serre_duality():
    c = curve_23()
    assert serre_duality_check(zero_divisor(c))
    k = canonical_divisor(c)
    assert serre_duality_check(k)
    rng = random.Random(7)
    for _ in range(100):
        d = random_divisor(rng, c)
        assert serre_duality_check(d)
    for _ in range(60):
        cc = random_curve(rng)
        assert serre_duality_check(random_divisor(rng, cc))


def test_chi_additivity_in_integral_points():
    rng = random.Random(17)
    for _ in range(40):
        c = random_curve(rng)
        d = random_divisor(rng, c)
        bump = FracDivisor.from_pairs(c, [("extra", 1)])
        assert euler_char_rr(d + bump) == euler_char_rr(d) + 1


def test_structure_sheaf_chi():
    for g in range(5):
        c = OrbifoldCurve(g, (("p", 2),))
        assert euler_char_rr(zero_divisor(c)) == 1 - g


def test_curves_compare_by_value():
    assert curve_23() == OrbifoldCurve(0, [("p2", 2), ("p3", 3)])
    assert hash(curve_23()) == hash(OrbifoldCurve(0, (("p2", 2), ("p3", 3))))
    assert curve_23() != OrbifoldCurve(1, (("p2", 2), ("p3", 3)))
    assert curve_23() != curve_237()
    assert curve_23() != (0, (("p2", 2), ("p3", 3)))
    # divisors on equal curves add
    d = FracDivisor.from_pairs(curve_23(), [("p2", Fraction(1, 2))])
    e = FracDivisor.from_pairs(curve_23(), [("p3", Fraction(1, 3))])
    assert (d + e).support == (("p2", Fraction(1, 2)), ("p3", Fraction(1, 3)))
    with pytest.raises(ValidationError, match="different curves"):
        d + FracDivisor.from_pairs(curve_237(), [])
