"""Euler ladder, generating series, weighted sums and determinants."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackyrr import eulerlab, groupoidstack, limits
from stackyrr.errors import ResourceLimitError, ValidationError
from stackyrr.eulerlab import (
    CurveStrata,
    FormalProduct,
    GSetStrata,
    chi_m,
    chi_orb_gset,
    chi_phy_gset,
    chi_top_gset,
    euler_determinant,
    euler_report,
    euler_series,
    ladder_check,
    weighted_chi,
)
from stackyrr.groupoidstack import (
    MAX_DEPTH,
    coset_gset,
    disjoint_union,
    iterated_inertia,
    natural_gset,
    trivial_gset,
)
from stackyrr.grouptheory import (
    commuting_tuple_counts,
    conjugacy_classes,
    count_commuting_tuples,
    subgroup_conjugacy_reps,
)
from stackyrr.orbicurve import OrbifoldCurve
from stackyrr.smallgroups import cyclic, group_catalog, symmetric


def test_chi_basics():
    z2 = cyclic(2)
    free = natural_gset(z2)
    assert chi_top_gset(free) == 1
    assert chi_orb_gset(free) == 1
    assert chi_phy_gset(free) == 1

    pt = trivial_gset(z2, 1)
    assert chi_top_gset(pt) == 1
    assert chi_orb_gset(pt) == Fraction(1, 2)
    assert chi_phy_gset(pt) == 2

    nat = natural_gset(symmetric(3))
    assert chi_top_gset(nat) == 1
    assert chi_orb_gset(nat) == Fraction(1, 2)


def test_chi_phy_counts_classes_on_a_point():
    for _, g in group_catalog(12):
        pt = trivial_gset(g, 1)
        assert chi_phy_gset(pt) == conjugacy_classes(g).count


def test_chi_m_examples():
    pt_s3 = trivial_gset(symmetric(3), 1)
    assert chi_m(pt_s3, 0) == Fraction(1, 6)
    assert chi_m(pt_s3, 2) == 3
    assert chi_m(pt_s3, 3) == 8


def test_chi_m_matches_hom_counts_on_point():
    # on [pt/G] the series counts commuting tuples over |G|
    for _, g in group_catalog(8):
        pt = trivial_gset(g, 1)
        for m in range(4):
            expected = Fraction(count_commuting_tuples(g, m, "brute"), g.order)
            assert chi_m(pt, m) == expected


def test_chi_m_matches_brute_counts_on_cosets():
    # chi_m * |G| counts the commuting m-tuples of every stabilizer, so the
    # mask count behind chi_m must match the brute-force scan point by point
    for _, g in group_catalog(16):
        for sub in subgroup_conjugacy_reps(g):
            x = coset_gset(g, sub)
            stabs = [x.stabilizer(p).as_group()[0] for p in range(x.size)]
            for m in range(1, 4):
                brute = sum(count_commuting_tuples(s, m, "brute") for s in stabs)
                assert chi_m(x, m) * g.order == brute


@lru_cache(maxsize=None)
def _catalog_with_classes():
    return tuple((g, tuple(subgroup_conjugacy_reps(g))) for _, g in group_catalog(16))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_three_tuple_counts_agree_on_random_coset_unions(data):
    g, classes = data.draw(st.sampled_from(_catalog_with_classes()))
    subs = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=3))
    x = disjoint_union(*(coset_gset(g, sub) for sub in subs))
    m = data.draw(st.integers(1, 5))
    direct = chi_m(x, m) * g.order
    # one orbit per coset space, each of |G:H| points with a stabilizer conjugate to H
    brute = sum(g.order // sub.order * count_commuting_tuples(sub.as_group()[0], m, "brute")
                for sub in subs)
    assert direct == brute == euler_series(x, 5)[m] * g.order


def test_chi_m_tuple_cap():
    pt = trivial_gset(symmetric(3), 1)
    with limits.using(tuples=100), pytest.raises(ResourceLimitError, match=r"Limits\.tuples"):
        chi_m(pt, 4)


def _coset_union(data):
    g, classes = data.draw(st.sampled_from(_catalog_with_classes()))
    subs = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=3))
    return disjoint_union(*(coset_gset(g, sub) for sub in subs))


def _caps_around(data, n):
    # the cap right at the count, one either side, and anything up to twice it
    return data.draw(st.sampled_from([c for c in (n - 1, n, n + 1) if c >= 1])
                     | st.integers(1, 2 * n + 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_series_raises_exactly_when_its_last_count_is_over_the_tuple_cap(data):
    # a stabilizer of order >= 2 makes N_m >= 2^m, so a deep series is refused
    # before it counts; free actions (N_m = |X|) are decided by the counts
    x = _coset_union(data)
    m = data.draw(st.integers(1, 40))
    with limits.using(tuples=10**100):
        n_m = int(euler_series(x, m)[m] * x.group.order)
    cap = _caps_around(data, n_m)
    with limits.using(tuples=cap):
        if n_m > cap:
            with pytest.raises(ResourceLimitError, match=rf"^tuple enumeration exceeds Limits\.tuples = {cap}$"):
                euler_series(x, m)
        else:
            assert euler_series(x, m)[m] * x.group.order == n_m


def test_tuple_cap_at_its_boundary():
    # a point with stabilizer Z2 has exactly 2^m commuting m-tuples, the
    # bound the early refusal rests on; a free action has |X| at every m
    pt_z2 = trivial_gset(cyclic(2), 1)
    for m in range(1, 41):
        with limits.using(tuples=2**m):
            assert euler_series(pt_z2, m)[m] == 2**(m - 1)
        with limits.using(tuples=2**m - 1), pytest.raises(ResourceLimitError, match=r"Limits\.tuples"):
            euler_series(pt_z2, m)
    free = natural_gset(cyclic(4))
    with limits.using(tuples=4):
        assert euler_series(free, 1000)[1000] == 1
    with limits.using(tuples=3), pytest.raises(ResourceLimitError, match=r"Limits\.tuples = 3"):
        euler_series(free, 1000)


def test_depth_bound_refuses_series_and_towers_of_a_free_action_just_above_it():
    # a free action has |X| tuples and points at every m, so only MAX_DEPTH
    # bounds the length; it trips exactly above its value
    free = natural_gset(cyclic(4))
    assert MAX_DEPTH == 1000
    assert euler_series(free, 1000)[1000] == 1 and chi_m(free, 1000) == 1
    assert iterated_inertia(free, 1000).size == 4
    assert euler_report(free, 1000).series[1000] == 1
    for refused in (lambda: euler_series(free, 1001), lambda: chi_m(free, 1001),
                    lambda: euler_report(free, 1001)):
        with pytest.raises(ResourceLimitError, match=r"^m_max 1001 exceeds MAX_DEPTH = 1000$"):
            refused()
    for refused in (lambda: iterated_inertia(free, 1001), lambda: ladder_check(free, 1000)):
        with pytest.raises(ResourceLimitError,
                           match=r"^iteration depth 1001 exceeds MAX_DEPTH = 1000$"):
            refused()


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_euler_report_raises_exactly_when_its_top_level_is_over_the_points_cap(data):
    x = _coset_union(data)
    m_max = data.draw(st.integers(0, 4))
    size = iterated_inertia(x, max(1, m_max - 1)).size
    cap = _caps_around(data, size)
    with limits.using(points=cap):
        if size > cap:
            with pytest.raises(ResourceLimitError,
                               match=rf"^iterated fixed-point set exceeds Limits\.points = {cap}$"):
                euler_report(x, m_max)
        else:
            assert euler_report(x, m_max).series == tuple(euler_series(x, m_max))


def test_euler_over_the_points_cap_builds_no_level(monkeypatch):
    built = []
    real = groupoidstack._level_above
    monkeypatch.setattr(groupoidstack, "_level_above",
                        lambda below, d, cap: built.append(d) or real(below, d, cap))
    with limits.using(points=2**10), pytest.raises(ResourceLimitError, match=r"Limits\.points"):
        euler_report(trivial_gset(cyclic(2), 1), 12)
    assert built == []


def test_euler_series_examples():
    pt_z2 = trivial_gset(cyclic(2), 1)
    assert euler_series(pt_z2, 4) == [Fraction(1, 2), 1, 2, 4, 8]
    pt_triv = trivial_gset(cyclic(1), 1)
    assert euler_series(pt_triv, 3) == [1, 1, 1, 1]
    pt_s3 = trivial_gset(symmetric(3), 1)
    assert euler_series(pt_s3, 3) == [Fraction(1, 6), 1, 3, 8]


_S3_NATURAL = natural_gset(symmetric(3))

DEPTH_ENTRY_POINTS = {
    "iterated_inertia": lambda m: iterated_inertia(_S3_NATURAL, m),
    "commuting_tuple_counts": lambda m: commuting_tuple_counts(symmetric(3), {0b111111: 1}, m),
    "count_commuting_tuples": lambda m: count_commuting_tuples(symmetric(3), m),
    "chi_m": lambda m: chi_m(_S3_NATURAL, m),
    "euler_series": lambda m: euler_series(_S3_NATURAL, m),
    "ladder_check": lambda m: ladder_check(_S3_NATURAL, m),
}


@pytest.mark.parametrize("entry", DEPTH_ENTRY_POINTS)
def test_depth_must_be_a_non_negative_int(entry):
    call = DEPTH_ENTRY_POINTS[entry]
    call(1)
    for bad in (1.5, 2.5, True, False, -1, "2", None):
        with pytest.raises(ValidationError, match="depth|length|m_max|m must"):
            call(bad)


def test_ladder_small_cases():
    s3 = symmetric(3)
    cases = [
        trivial_gset(cyclic(2), 1),
        trivial_gset(s3, 1),
        natural_gset(s3),
        disjoint_union(natural_gset(s3), trivial_gset(s3, 1)),
    ]
    for x in cases:
        for m in range(3):
            assert ladder_check(x, m)


def test_ladder_free_action_all_equal():
    z4 = cyclic(4)
    free = natural_gset(z4)
    for m in range(3):
        assert ladder_check(free, m)
        assert chi_m(free, m) == 1


def test_euler_report():
    rep = euler_report(trivial_gset(symmetric(3), 1), 3)
    assert rep.chi_top == 1
    assert rep.chi_orb == Fraction(1, 6)
    assert rep.chi_phy == 3
    assert rep.series == (Fraction(1, 6), 1, 3, 8)
    assert rep.ladder_verified
    assert rep.series[0] == rep.chi_orb


@pytest.mark.parametrize("m_max, depth", [(0, 2), (1, 2), (2, 2), (3, 3), (4, 4)])
def test_euler_report_counts_once_and_climbs_one_tower(monkeypatch, m_max, depth):
    counted, built = [], []

    def counts(gset, m):
        counted.append(m)
        return real_counts(gset, m)

    def level_above(below, d, cap):
        built.append(d)
        return real_level_above(below, d, cap)

    real_counts, real_level_above = eulerlab._tuple_counts, groupoidstack._level_above
    monkeypatch.setattr(eulerlab, "_tuple_counts", counts)
    monkeypatch.setattr(groupoidstack, "_level_above", level_above)
    x = natural_gset(symmetric(3))
    rep = euler_report(x, m_max)
    assert counted == [depth]
    # per rung m: level m+1 of the tower, then the inertia of level m
    assert built == [d for m in range(max(1, m_max - 1)) for d in (m + 1, 1)]
    monkeypatch.undo()
    assert rep.series == tuple(euler_series(x, m_max))
    assert (rep.chi_top, rep.chi_orb, rep.chi_phy) == (
        chi_top_gset(x), chi_orb_gset(x), chi_phy_gset(x))


def mixed_gset():
    s3 = symmetric(3)
    return disjoint_union(
        natural_gset(s3), coset_gset(s3, natural_gset(s3).stabilizer(0)), trivial_gset(s3, 1)
    )


def test_weighted_chi_gset():
    x = mixed_gset()
    ones = GSetStrata.from_point_weights(x, [1] * x.size)
    assert weighted_chi(ones, "top") == chi_top_gset(x)
    assert weighted_chi(ones, "orb") == chi_orb_gset(x)
    zeros = GSetStrata.from_point_weights(x, [0] * x.size)
    assert weighted_chi(zeros, "top") == 0 and weighted_chi(zeros, "orb") == 0


def test_weighted_chi_additive_and_refinement_invariant():
    x = mixed_gset()
    rng = random.Random(5)
    for _ in range(20):
        w1 = _orbit_constant_weights(x, rng)
        w2 = _orbit_constant_weights(x, rng)
        s1 = GSetStrata.from_point_weights(x, w1)
        s2 = GSetStrata.from_point_weights(x, w2)
        s12 = GSetStrata.from_point_weights(x, [a + b for a, b in zip(w1, w2)])
        for variant in ("top", "orb"):
            assert weighted_chi(s12, variant) == weighted_chi(s1, variant) + weighted_chi(s2, variant)
            assert weighted_chi(s1.refine(), variant) == weighted_chi(s1, variant)


def _orbit_constant_weights(x, rng, nonzero=False):
    from stackyrr.groupoidstack import orbits

    dec = orbits(x)
    per_orbit = [
        rng.choice([w for w in range(-3, 7) if w] if nonzero else range(-3, 7))
        for _ in range(dec.count)
    ]
    return [per_orbit[dec.orbit_of[p]] for p in range(x.size)]


def test_strata_validation():
    x = mixed_gset()
    with pytest.raises(ValidationError):
        GSetStrata.from_point_weights(x, [1] * (x.size - 1))
    bad = [1] * x.size
    bad[0] = 2  # cuts the first orbit (size 3)
    with pytest.raises(ValidationError):
        GSetStrata.from_point_weights(x, bad)
    with pytest.raises(ValidationError):
        GSetStrata(x, ((0, 1), tuple(range(2, x.size))), (1, 1))


def test_curve_strata_weighted():
    curve = OrbifoldCurve(0, (("p2", 2), ("p3", 3)))
    strata = CurveStrata(curve, 5, (("p2", 7), ("p3", 11)))
    assert weighted_chi(strata, "top") == 18
    assert weighted_chi(strata, "orb") == Fraction(7, 2) + Fraction(11, 3)
    det = euler_determinant(strata, "top")
    assert det.value() == 77
    # refinement: an extra ordinary point carrying the open weight
    ref = strata.refine("new")
    assert weighted_chi(ref, "top") == 18
    assert euler_determinant(ref, "top").value() == 77
    orb_det = euler_determinant(strata, "orb")
    assert not orb_det.is_integral
    with pytest.raises(ValidationError):
        orb_det.value()


def test_curve_strata_require_stacky_points():
    curve = OrbifoldCurve(1, (("p", 4),))
    with pytest.raises(ValidationError):
        CurveStrata(curve, 1, ())


def test_curve_strata_reject_non_string_labels():
    curve = OrbifoldCurve(0, (("p2", 2), ("p3", 3)))
    with pytest.raises(ValidationError, match="point label must be a string"):
        CurveStrata(curve, 1, (("p2", 1), ("p3", 1), (5, 2)))


def test_determinant_constant_weight():
    rng = random.Random(31)
    for g in range(4):
        curve = OrbifoldCurve(g, (("p", 3),))
        c = rng.choice([2, 3, 5, Fraction(1, 2), -2])
        strata = CurveStrata(curve, c, (("p", c),))
        det = euler_determinant(strata, "top")
        assert det.value() == Fraction(c) ** (2 - 2 * g)
    x = mixed_gset()
    strata = GSetStrata.from_point_weights(x, [7] * x.size)
    assert euler_determinant(strata, "top").value() == Fraction(7) ** chi_top_gset(x)


def test_determinant_rejects_zero_weight():
    x = mixed_gset()
    strata = GSetStrata.from_point_weights(x, [0] * x.size)
    with pytest.raises(ValidationError):
        euler_determinant(strata, "top")


def test_determinant_refinement_invariance_randomized():
    x = mixed_gset()
    rng = random.Random(8)
    for _ in range(20):
        w = _orbit_constant_weights(x, rng, nonzero=True)
        strata = GSetStrata.from_point_weights(x, w)
        for variant in ("top", "orb"):
            a = euler_determinant(strata, variant)
            b = euler_determinant(strata.refine(), variant)
            assert a.factors == b.factors


def test_formal_product_algebra():
    p = FormalProduct.from_pairs([(2, 1), (3, 2), (2, -1)])
    assert p.factors == ((Fraction(3), Fraction(2)),)
    assert p.value() == 9
    q = FormalProduct.from_pairs([(3, -2)])
    assert (p * q).factors == ()
    assert (p * q).value() == 1
