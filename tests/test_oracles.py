"""`errors.agree`, and the library's two-route checks that go through it."""

from fractions import Fraction

import pytest

from stackyrr import chartheory, errors, eulerlab, grouptheory, orbicurve
from stackyrr.chartheory import ClassFunction, VirtualEqBundle, structure_bundle
from stackyrr.errors import ConsistencyError, agree
from stackyrr.groupoidstack import iterated_inertia, natural_gset
from stackyrr.orbicurve import OrbifoldCurve
from stackyrr.smallgroups import symmetric


def test_agree_returns_the_fast_route():
    assert agree("chi_orb", Fraction(1, 2), Fraction(2, 4)) == Fraction(1, 2)
    with pytest.raises(ConsistencyError, match="^chi: routes disagree: 1 vs 1 vs 2$"):
        agree("chi", 1, 1, 2)


S3_NATURAL = natural_gset(symmetric(3))
P23 = OrbifoldCurve(0, (("p2", 2), ("p3", 3)))


@pytest.mark.parametrize("module, quantity, call", [
    (eulerlab, "commuting 2-tuples", lambda: eulerlab.chi_m(S3_NATURAL, 2)),
    (eulerlab, "Euler ladder at m=0", lambda: eulerlab.ladder_check(S3_NATURAL, 0)),
    (orbicurve, "coarse chi_top", lambda: orbicurve.chi_top_via_inertia(P23)),
    (chartheory, "pushforward to a point",
     lambda: chartheory.pushforward_to_point(structure_bundle(S3_NATURAL))),
], ids=["chi_m", "ladder_check", "chi_top_via_inertia", "pushforward_to_point"])
def test_library_oracles_raise_when_a_route_disagrees(monkeypatch, module, quantity, call):
    call()  # the routes agree

    def one_route_off(name, fast, *independent):
        if name.startswith(quantity):
            independent += ("a wrong value",)
        return errors.agree(name, fast, *independent)

    monkeypatch.setattr(module, "agree", one_route_off)
    with pytest.raises(ConsistencyError, match=f"^{quantity}"):
        call()


@pytest.mark.parametrize("module, route, quantity, call", [
    (eulerlab, "_commuting_recursive", "commuting 2-tuples",
     lambda: eulerlab.chi_m(S3_NATURAL, 2)),
    (eulerlab, "chi_m", "Euler ladder at m=0", lambda: eulerlab.ladder_check(S3_NATURAL, 0)),
    (orbicurve, "chi_orb_curve", "coarse chi_top", lambda: orbicurve.chi_top_via_inertia(P23)),
    (chartheory, "invariants_dim", "pushforward to a point",
     lambda: chartheory.pushforward_to_point(structure_bundle(S3_NATURAL))),
], ids=["chi_m", "ladder_check", "chi_top_via_inertia", "pushforward_to_point"])
def test_library_oracles_catch_a_route_off_by_one(monkeypatch, module, route, quantity, call):
    def off_by_one(value):
        # a route that returns [N_0..N_m] is off by one in its top count only
        return [*value[:-1], value[-1] + 1] if isinstance(value, list) else value + 1

    real = getattr(module, route)
    monkeypatch.setattr(module, route, lambda *args: off_by_one(real(*args)))
    with pytest.raises(ConsistencyError, match=f"^{quantity}"):
        call()


def test_the_ladder_catches_two_swapped_entries_of_a_tower_column():
    x = natural_gset(symmetric(3))
    level = iterated_inertia(x, 2)  # held, so ladder_check(x, 1) reuses it as I^2
    assert eulerlab.ladder_check(x, 1)
    col = list(level.cols[0])
    col[0], col[1] = col[1], col[0]
    level.cols = (tuple(col), *level.cols[1:])
    assert iterated_inertia(x, 2) is level
    # the swap joins two orbits of I^2, so chi_top reads 3 against 4
    with pytest.raises(ConsistencyError, match=r"^Euler ladder at m=1: .*: routes disagree: 4 vs 3 vs 4$"):
        eulerlab.ladder_check(x, 1)


def test_the_pushforward_catches_two_inertia_orbits_in_one_cell(monkeypatch):
    # the sign character of Stab(0) = Z2 has no invariants, and its trace is
    # 1 on the identity's inertia orbit and -1 on the transposition's; sent
    # to the identity's cell, the inertia side reads 1.  The structure
    # bundle cannot show this fault: every cell's value is 1.
    stab = S3_NATURAL.stabilizer(0).as_group()[0]
    bundle = VirtualEqBundle(S3_NATURAL, (ClassFunction(stab, (1, -1)),))
    assert chartheory.pushforward_to_point(bundle) == 0
    cells = chartheory._trace_cells

    def merged(iner):
        found, counts = cells(iner)
        return [found[0]] * len(found), counts

    monkeypatch.setattr(chartheory, "_trace_cells", merged)
    assert chartheory.pushforward_to_point(structure_bundle(S3_NATURAL)) == 1
    with pytest.raises(ConsistencyError, match=r"^pushforward to a point, source and inertia sides: "
                                               r"routes disagree: CyclotomicNumber\(0\) vs "
                                               r"CyclotomicNumber\(1\)$"):
        chartheory.pushforward_to_point(bundle)


def test_the_series_catches_commute_masks_without_the_identity(monkeypatch):
    real = grouptheory.FiniteGroup.commute_masks
    monkeypatch.setattr(grouptheory.FiniteGroup, "commute_masks", lambda self: tuple(
        mask & ~1 if g else mask for g, mask in enumerate(real(self))))
    # the mask route then loses every pair (g, 1) with g != 1: 9 pairs, not 12
    with pytest.raises(ConsistencyError, match=r"^commuting 2-tuples, by enumeration and by "
                                               r"recursion: routes disagree: 9 vs 12$"):
        eulerlab.euler_series(natural_gset(symmetric(3)), 3)
