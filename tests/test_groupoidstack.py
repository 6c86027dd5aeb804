"""G-sets, orbit decompositions, inertia and its iterates."""

import gc
import re
import weakref
from collections import Counter
from functools import lru_cache
from itertools import combinations, count, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackyrr import groupoidstack, limits
from stackyrr.chartheory import (
    VirtualEqBundle,
    coset_character,
    devissage_matrix,
    pushforward_to_point,
)
from stackyrr.errors import ResourceLimitError, ValidationError
from stackyrr.eulerlab import euler_report, euler_series, ladder_check
from stackyrr.exactlinalg import exact_rank
from stackyrr.groupoidstack import (
    TowerLevel,
    coset_gset,
    disjoint_union,
    equivariant_map,
    flattening_bijection,
    gset_from_generator_action,
    gset_from_table,
    inertia,
    iterated_inertia,
    natural_gset,
    orbits,
    trivial_gset,
)
from stackyrr.grouptheory import (
    FiniteGroup, _set_bits, commuting_tuple_counts, conjugacy_classes, subgroup_conjugacy_reps,
)
from stackyrr.serialize import group_from_json, gset_from_json
from stackyrr.smallgroups import cyclic, dihedral, group_catalog, symmetric


def s3_natural():
    return natural_gset(symmetric(3))


def z2_swap():
    return natural_gset(cyclic(2))


def test_orbit_examples():
    dec = orbits(trivial_gset(cyclic(2), 1))
    assert dec.count == 1 and dec.stabilizer_orders == (2,)
    dec = orbits(z2_swap())
    assert dec.count == 1 and dec.stabilizer_orders == (1,)
    dec = orbits(s3_natural())
    assert dec.count == 1 and dec.stabilizer_orders == (2,)


def test_orbit_stabilizer_bookkeeping():
    for _, g in group_catalog(12):
        for sub in subgroup_conjugacy_reps(g):
            x = coset_gset(g, sub)
            dec = orbits(x)
            assert dec.count == 1
            assert dec.stabilizer_orders[0] * x.size == g.order
            for p in range(x.size):
                t = dec.transporter[p]
                assert x.act[dec.representatives[dec.orbit_of[p]]][t] == p


def test_a_representative_has_one_stabilizer_subgroup():
    for _, g in group_catalog(12):
        classes = subgroup_conjugacy_reps(g)
        x = disjoint_union(*(coset_gset(g, sub) for sub in classes[-3:]))
        dec = orbits(x)
        assert dec._subgroups == {}  # nothing is validated until asked for
        for o, rep in enumerate(dec.representatives):
            stab = x.stabilizer(rep)
            assert x.stabilizer(rep) is stab is dec._subgroups[o]
            assert stab.parent is g
            assert list(stab.elements) == x.stabilizer_elements(rep)


def test_a_point_that_is_not_a_representative_gets_its_own_conjugate():
    x = s3_natural()
    assert orbits(x).representatives == (0,)
    for p in (1, 2):
        stab = x.stabilizer(p)
        assert stab is not x.stabilizer(p) and stab is not x.stabilizer(0)
        assert list(stab.elements) == x.stabilizer_elements(p)
        assert stab.elements != x.stabilizer(0).elements
        assert all(x.act[p][h] == p for h in stab.elements)


def test_action_table_validation():
    z2 = cyclic(2)
    with pytest.raises(ValidationError):
        gset_from_table(z2, [(1, 0), (1, 1)])  # identity moves nothing
    with pytest.raises(ValidationError):
        gset_from_table(z2, [(0, 0), (1, 1), (2, 0)])  # incompatible row


def test_inertia_examples():
    free = z2_swap()
    iner = inertia(free)
    assert iner.size == 2
    assert orbits(iner).count == 1
    assert all(h == 0 for (_, h) in iner.labels)

    pt = trivial_gset(cyclic(2), 1)
    iner = inertia(pt)
    assert iner.size == 2 and orbits(iner).count == 2

    iner = inertia(s3_natural())
    assert iner.size == 6
    assert orbits(iner).count == 2


def test_inertia_size_two_countings():
    # sum over points of |Stab(x)| equals sum over group of |Fix(h)|
    for _, g in group_catalog(10):
        for sub in subgroup_conjugacy_reps(g)[:4]:
            x = coset_gset(g, sub)
            by_points = sum(len(x.stabilizer_elements(p)) for p in range(x.size))
            by_elements = sum(
                sum(1 for p in range(x.size) if x.act[p][h] == p)
                for h in range(g.order)
            )
            assert by_points == by_elements == inertia(x).size


def test_inertia_orbits_count_classes_of_stabilizers():
    for _, g in group_catalog(12):
        subs = subgroup_conjugacy_reps(g)
        for sub in subs[: min(4, len(subs))]:
            x = coset_gset(g, sub)
            dec = orbits(x)
            expected = 0
            for rep in dec.representatives:
                stab_group, _ = x.stabilizer(rep).as_group()
                expected += conjugacy_classes(stab_group).count
            assert orbits(inertia(x)).count == expected


def test_iterated_inertia_zero_is_identity():
    x = s3_natural()
    assert iterated_inertia(x, 0) is x


def test_iterated_inertia_point_counts():
    pt = trivial_gset(cyclic(2), 1)
    for m in range(5):
        assert iterated_inertia(pt, m).size == 2**m

    x = s3_natural()
    level2 = iterated_inertia(x, 2)
    assert level2.size == inertia(inertia(x)).size


def test_iterated_matches_repeated_inertia():
    s3 = symmetric(3)
    nat = natural_gset(s3)
    cases = [
        nat,
        natural_gset(dihedral(4)),
        trivial_gset(s3, 2),
        disjoint_union(nat, trivial_gset(s3, 1)),
    ]
    for x in cases:
        chain = x
        for m in range(3):
            direct_next = iterated_inertia(x, m + 1)
            nested = inertia(iterated_inertia(x, m))
            bij = flattening_bijection(nested, direct_next)
            assert bij.is_bijective()
            # the honest chain has the same shape at every level
            chain = inertia(chain)
            assert chain.size == direct_next.size
            assert orbits(chain).count == orbits(direct_next).count


def test_equivariant_map_validation():
    x = s3_natural()
    ident = equivariant_map(x, x, range(3), range(6))
    assert ident.is_bijective()

    # constant map to a point with the trivial-target homomorphism is fine
    from stackyrr.grouptheory import trivial_group

    pt = trivial_gset(trivial_group(), 1)
    collapse = equivariant_map(x, pt, [0, 0, 0], [0] * 6)
    assert not collapse.is_bijective()

    # non-equivariant point map must name a witness
    with pytest.raises(ValidationError, match="witness"):
        equivariant_map(x, x, [0, 2, 1], range(6))


def test_equivariant_map_rejects_non_homomorphism():
    x = z2_swap()
    # rho = constant identity is a homomorphism but breaks equivariance here
    with pytest.raises(ValidationError, match="witness"):
        equivariant_map(x, x, [0, 1], [0, 0])
    # rho(e) != e is rejected outright
    with pytest.raises(ValidationError, match="identity"):
        equivariant_map(x, x, [0, 1], [1, 0])
    # rho must be multiplicative: on Z4, swapping the two generators^1 fails
    z4 = cyclic(4)
    pt = trivial_gset(z4, 1)
    with pytest.raises(ValidationError, match="homomorphism"):
        equivariant_map(pt, pt, [0], [0, 1, 3, 2])


def test_iterated_inertia_point_cap():
    pt = trivial_gset(symmetric(3), 1)
    with limits.using(points=50), pytest.raises(ResourceLimitError, match=r"Limits\.points"):
        iterated_inertia(pt, 4)


def test_inertia_point_cap():
    # the six pairs of S3-natural: a fresh level 1, held to the cap in force
    with limits.using(points=5), pytest.raises(ResourceLimitError, match=r"Limits\.points = 5"):
        inertia(natural_gset(symmetric(3)))
    with limits.using(points=6):
        assert inertia(natural_gset(symmetric(3))).size == 6


def test_point_cap_trips_exactly_above_the_top_level_size():
    # every point has the identity as a child, so levels never shrink and
    # the cap trips iff the requested level is larger than it
    size = _reference_level(trivial_gset(symmetric(3), 1), 4)[0]
    with limits.using(points=size):
        assert iterated_inertia(trivial_gset(symmetric(3), 1), 4).size == size
    with limits.using(points=size - 1), pytest.raises(ResourceLimitError, match=r"Limits\.points"):
        iterated_inertia(trivial_gset(symmetric(3), 1), 4)
    # a level reused from the tower is held to the cap in force, too
    pt = trivial_gset(symmetric(3), 1)
    top = iterated_inertia(pt, 4)
    with limits.using(points=size - 1), pytest.raises(ResourceLimitError, match=r"Limits\.points"):
        iterated_inertia(pt, 4)
    assert iterated_inertia(pt, 4) is top


def test_depth_one_is_refused_by_burnside_before_any_stabilizer_row(monkeypatch):
    # |I^1| = |G| * #orbits, known once the orbits are: natural S3 has 6 pairs
    def refuse(*args):
        raise AssertionError("a stabilizer row was written")

    sets = (s3_natural(), iterated_inertia(trivial_gset(symmetric(3), 2), 2))
    monkeypatch.setattr(groupoidstack.FiniteGSet, "stabilizer_elements", refuse)
    for gset in sets:
        cap = gset.group.order * groupoidstack.orbit_count(gset) - 1
        message = rf"^iterated fixed-point set exceeds Limits\.points = {cap}$"
        with limits.using(points=cap), pytest.raises(ResourceLimitError, match=message):
            inertia(gset)
    with limits.using(points=5), pytest.raises(ResourceLimitError, match=r"Limits\.points = 5$"):
        iterated_inertia(s3_natural(), 1)


def test_burnside_bookkeeping_order_24():
    s4 = symmetric(4)
    for sub in subgroup_conjugacy_reps(s4):
        if s4.order // sub.order > 8:
            continue
        x = coset_gset(s4, sub)
        by_points = sum(len(x.stabilizer_elements(p)) for p in range(x.size))
        by_elements = sum(
            sum(1 for p in range(x.size) if x.act[p][h] == p)
            for h in range(s4.order)
        )
        assert by_points == by_elements == inertia(x).size


def test_orbit_count_matches_full_decomposition():
    from stackyrr.groupoidstack import orbit_count

    s3 = symmetric(3)
    cases = [
        natural_gset(s3),
        trivial_gset(s3, 3),
        disjoint_union(natural_gset(s3), trivial_gset(s3, 2)),
        inertia(natural_gset(s3)),
    ]
    for x in cases:
        assert orbit_count(x) == orbits(x).count


def test_generator_action_closure():
    s3 = symmetric(3)
    nat = natural_gset(s3)
    gen_cols = [
        tuple(s3.perms[g][x] for x in range(3)) for g in s3.generators
    ]
    closed = gset_from_generator_action(s3, gen_cols)
    assert closed.act == nat.act


def test_coset_action_transitive_and_sized():
    s4 = symmetric(4)
    for sub in subgroup_conjugacy_reps(s4):
        x = coset_gset(s4, sub)
        assert x.size == s4.order // sub.order
        assert orbits(x).count == 1


# -- generator columns and generator-only checks ----------------------------


def _coset_table(g, sub):
    """act[x][a] of the coset action, straight from the multiplication table."""
    cosets = []
    for a in range(g.order):
        c = frozenset(g.mul[a][h] for h in sub.elements)
        if c not in cosets:
            cosets.append(c)  # first seen at its minimum, so ordered by minimum
    where = {e: i for i, c in enumerate(cosets) for e in c}
    return tuple(
        tuple(where[g.mul[a][min(c)]] for a in range(g.order)) for c in cosets
    )


def test_lazy_table_matches_multiplication_on_every_coset_action():
    for _, g in group_catalog(16):
        for sub in subgroup_conjugacy_reps(g):
            x = coset_gset(g, sub)
            assert len(x.cols) == len(g.spanning_tree()[0])
            assert x.act == _coset_table(g, sub)


def _non_generators(g):
    gens = set(g.spanning_tree()[0])
    return [a for a in range(1, g.order) if a not in gens]


def test_corrupted_non_generator_entry_is_rejected():
    checked = 0
    for _, g in group_catalog(12):
        for sub in subgroup_conjugacy_reps(g):
            table = [list(row) for row in coset_gset(g, sub).act]
            if len(table) < 2 or not _non_generators(g):
                continue
            gset_from_table(g, table)  # the clean table passes
            a = _non_generators(g)[-1]
            table[0][a] = (table[0][a] + 1) % len(table)
            with pytest.raises(ValidationError):
                gset_from_table(g, table)
            checked += 1
    assert checked > 20


def test_generators_spanning_a_proper_subgroup_fall_back_to_greedy_generators():
    from stackyrr.grouptheory import FiniteGroup

    s3 = symmetric(3)
    swap = s3.generators[0]
    bad = FiniteGroup(s3.mul, generators=[swap])
    # the least element, then the least one its closure misses
    assert bad.spanning_tree()[0] == (1, 2)
    table = [list(row) for row in natural_gset(s3).act]
    x = gset_from_table(bad, table)
    assert x.act == natural_gset(s3).act and len(x.cols) == 2
    assert orbits(inertia(x)).count == orbits(inertia(natural_gset(s3))).count
    # a table that is right on the recorded generator but wrong elsewhere
    a = next(a for a in range(1, 6) if a != swap and table[0][a] != table[1][a])
    table[0][a], table[1][a] = table[1][a], table[0][a]
    with pytest.raises(ValidationError):
        gset_from_table(bad, table)
    with pytest.raises(ValidationError, match="do not generate"):
        gset_from_generator_action(bad, [[1, 0, 2]])


def _reference_validate(gset):
    """The full-table check: act[x][s] is generator s's column entry at x and
    act[x][g*s] == act[act[x][s]][g] for every point x, element g and
    generator s, on the table filled from the columns along the tree."""
    mul, act = gset.group.mul, gset.act
    for s, col in zip(gset.group.spanning_tree()[0], gset.cols):
        for x, row in enumerate(act):
            if row[s] != col[x]:
                raise ValidationError(f"column of {s} disagrees at {x}")
            if any(row[mul[g][s]] != act[row[s]][g] for g in range(gset.group.order)):
                raise ValidationError(f"not compatible at x={x}, h={s}")


def _validates(check):
    try:
        check()
    except ValidationError:
        return False
    return True


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_orbit_row_validation_raises_exactly_when_the_full_table_check_does(data):
    g, classes = data.draw(st.sampled_from(
        [(g, classes) for g, classes in _catalog_with_classes() if g.order <= 12]))
    subs = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=3))
    x = disjoint_union(*(coset_gset(g, sub) for sub in subs))
    cols = [list(col) for col in x.cols]
    groupoidstack.FiniteGSet(g, x.size, cols)  # clean columns pass
    if not cols or x.size < 2:
        return
    # swap two images in one column: still a bijection, rarely still an action
    i = data.draw(st.integers(0, len(cols) - 1))
    p, q = data.draw(st.lists(st.integers(0, x.size - 1), min_size=2, max_size=2, unique=True))
    cols[i][p], cols[i][q] = cols[i][q], cols[i][p]
    swapped = groupoidstack.FiniteGSet(g, x.size, cols, validate=False)
    assert (_validates(lambda: groupoidstack.FiniteGSet(g, x.size, cols))
            == _validates(lambda: _reference_validate(swapped)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_validation_of_columns_that_are_not_bijections_agrees_with_the_full_table_check(data):
    g, classes = data.draw(st.sampled_from(
        [(g, classes) for g, classes in _catalog_with_classes() if 1 < g.order <= 12]))
    subs = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=3))
    fixed = data.draw(st.integers(0, 2))
    x = disjoint_union(*(coset_gset(g, sub) for sub in subs), trivial_gset(g, fixed))
    if x.size < 2:
        return
    cols = [list(col) for col in x.cols]
    i = data.draw(st.integers(0, len(cols) - 1))
    singles = [p for p in range(x.size) if all(col[p] == p for col in cols)]
    if singles and data.draw(st.booleans()):
        # a point the sweep leaves alone is sent into an orbit swept before it
        p = data.draw(st.sampled_from(singles))
        cols[i][p] = data.draw(st.sampled_from([q for q in range(x.size) if q != p]))
    else:  # one image redirected: two points share it, so no bijection
        p = data.draw(st.integers(0, x.size - 1))
        cols[i][p] = data.draw(st.sampled_from([q for q in range(x.size) if q != cols[i][p]]))
    redirected = groupoidstack.FiniteGSet(g, x.size, cols, validate=False)
    assert not _validates(lambda: _reference_validate(redirected))
    assert not _validates(lambda: groupoidstack.FiniteGSet(g, x.size, cols))


def test_a_point_sent_into_an_earlier_orbit_is_not_taken_as_fixed():
    # column [0, 1, 0] sweeps {0}, {1} and {2} as one-point orbits, but 2 is moved
    moved = r"^action is not compatible with multiplication at \(x=2, g=1, h=1\)$"
    with pytest.raises(ValidationError, match=moved):
        gset_from_table(cyclic(2), [(0, 0), (1, 1), (2, 0)])


def test_a_validated_set_keeps_the_orbits_its_validation_swept(monkeypatch):
    calls = []
    sweep = groupoidstack._action_orbits
    monkeypatch.setattr(groupoidstack, "_action_orbits",
                        lambda *args, **kwargs: calls.append(kwargs) or sweep(*args, **kwargs))
    s4 = symmetric(4)
    x = gset_from_generator_action(s4, [list(col) for col in natural_gset(s4).cols])
    assert orbits(x).count == 1 and orbits(x) is orbits(x)
    assert calls == [{"check": True}]
    assert orbits(groupoidstack.FiniteGSet(s4, x.size, x.cols, validate=False)).count == 1
    assert calls == [{"check": True}, {}]


def test_a_repeated_generator_is_checked_at_each_representative():
    # Z2 recorded with its swap twice: the tree reaches the swap through
    # column 0 only, so column 1 is compared with it on every image row.
    # Here the two columns differ only at the representatives 0 and 2 of
    # two free orbits, where the row holds nothing but h = 0.
    z2 = group_from_json({"permutations": [[1, 0], [1, 0]]})
    assert z2.generators == (1, 1)
    cols = [[1, 0, 3, 2], [3, 0, 1, 2]]
    with pytest.raises(ValidationError):
        _reference_validate(groupoidstack.FiniteGSet(z2, 4, cols, validate=False))
    with pytest.raises(ValidationError, match=r"^generator column 1 disagrees with element 1 at point 0$"):
        gset_from_generator_action(z2, cols)
    assert gset_from_generator_action(z2, [cols[0], cols[0]]).size == 4


def test_points_every_generator_fixes_pass_and_moved_points_are_still_checked():
    s5 = symmetric(5)
    still = gset_from_generator_action(s5, [list(range(1000))] * len(s5.generators))
    assert orbits(still).count == 1000 and still._act is None
    # Points 0 and 1 fixed, natural S3 on 2, 3, 4 with two images of one
    # column swapped: the witnesses are those of the walk over every point.
    s3 = symmetric(3)
    for i, witness in enumerate(["(x=2, g=1, h=4)", "(x=2, g=2, h=3)"]):
        cols = [[0, 1] + [2 + y for y in col] for col in natural_gset(s3).cols]
        assert orbits(gset_from_generator_action(s3, cols)).count == 3
        cols[i][2], cols[i][3] = cols[i][3], cols[i][2]
        message = "action is not compatible with multiplication at " + witness
        with pytest.raises(ValidationError, match="^" + re.escape(message) + "$"):
            gset_from_generator_action(s3, cols)


def test_generator_columns_validate_without_the_action_table():
    perms = [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]
    s6 = group_from_json({"permutations": perms})
    regular = [list(s6.mul[s]) for s in s6.generators]  # left multiplication, 720 points
    broken = [regular[0], regular[1][:]]
    broken[1][0], broken[1][1] = broken[1][1], broken[1][0]
    spec = {"group": {"permutations": perms}, "points": 720, "action_generators": regular}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groupoidstack.FiniteGSet, "act", property(_no_action_table))
        built = [gset_from_generator_action(s6, regular), gset_from_json(spec)]
        with pytest.raises(ValidationError):
            gset_from_generator_action(s6, broken)
    for x in built:
        assert (x.size, x._act) == (720, None)
        assert orbits(x).count == 1 and orbits(x).stabilizer_orders == (1,)


def test_table_rows_become_the_action_table_unchanged():
    for _, g in group_catalog(12):
        for sub in subgroup_conjugacy_reps(g):
            table = coset_gset(g, sub).act
            x = gset_from_table(g, table)
            assert x.act == table and all(a is b for a, b in zip(x.act, table))


def test_a_table_off_its_generated_action_names_a_broken_rule():
    checked = 0
    for _, g in group_catalog(12):
        for sub in subgroup_conjugacy_reps(g):
            table = [list(row) for row in coset_gset(g, sub).act]
            if len(table) < 2 or not _non_generators(g):
                continue
            a = _non_generators(g)[0]
            table[-1][a] = (table[-1][a] + 1) % len(table)
            with pytest.raises(ValidationError, match="not compatible") as err:
                gset_from_table(g, table)
            x, s, h = map(int, re.findall(r"=(\d+)", str(err.value)))
            assert table[x][g.mul[s][h]] != table[table[x][h]][s]
            checked += 1
    assert checked > 20


def test_equivariant_map_checks_every_generator():
    s3 = symmetric(3)
    x = natural_gset(s3)
    first, second = s3.generators
    # f = the first generator's permutation commutes with it, not with the second
    f = s3.perms[first]
    for s in (first, second):
        commutes = all(f[x.act[p][s]] == x.act[f[p]][s] for p in range(3))
        assert commutes == (s == first)
    with pytest.raises(ValidationError, match=f"witness \\(g={second}"):
        equivariant_map(x, x, f, range(6))


def test_trivial_group_builds_validates_and_takes_inertia():
    from stackyrr.groupoidstack import orbit_count
    from stackyrr.grouptheory import trivial_group

    g = trivial_group()
    assert g.generators is None and g.spanning_tree() == ((), ())
    x = gset_from_table(g, [[0], [1], [2]])
    assert x.cols == () and x.act == ((0,), (1,), (2,))
    assert x.act == trivial_gset(g, 3).act
    iner = inertia(x)
    assert iner.labels == ((0, 0), (1, 0), (2, 0))
    assert orbit_count(iner) == orbits(iner).count == 3
    assert iterated_inertia(x, 3).size == 3
    with pytest.raises(ValidationError):
        gset_from_table(g, [[1], [1]])


# -- the inertia tower -------------------------------------------------------


def _reference_stabilizer(gset, x):
    """The elements fixing x, read off its ``act`` row."""
    return [h for h, y in enumerate(gset.act[x]) if y == x]


def _reference_level(gset, m):
    """I^m by sorting label tuples and integer-encoding them: (size, labels, cols).

    The construction `iterated_inertia` used before levels were stored as
    children of the level below; kept as the reference the tower must match.
    Tuples grow one stabilizer element at a time, kept when the new entry
    commutes in the table with every earlier one: no commute masks, no walker.
    """
    group = gset.group
    n = group.order
    mul = group.mul
    points = []
    for x in range(gset.size):
        stab = _reference_stabilizer(gset, x)
        tuples = [()]
        for _ in range(m):
            tuples = [t + (h,) for t in tuples for h in stab
                      if all(mul[a][h] == mul[h][a] for a in t)]
        points.extend((x,) + t for t in tuples)
    points.sort()

    def encode(p):
        code = p[0]
        for h in p[1:]:
            code = code * n + h
        return code

    index = {encode(p): i for i, p in enumerate(points)}
    cols = []
    for s, base_col in zip(group.spanning_tree()[0], gset.cols):
        conj_s = [group.conj(s, h) for h in range(n)]
        col = []
        for p in points:
            code = base_col[p[0]]
            for h in p[1:]:
                code = code * n + conj_s[h]
            col.append(index[code])
        cols.append(tuple(col))
    return len(points), tuple(points), tuple(cols)


def _assert_tower_matches_reference(x, depth):
    for m in range(1, depth + 1):
        level = iterated_inertia(x, m)
        size, labels, cols = _reference_level(x, m)
        assert (level.size, level.labels, level.cols) == (size, labels, cols), m
        # a level stores each child's coordinate and one row start per point below
        assert list(level.last) == [p[-1] for p in labels], m
        assert len(level.offsets) == level.below.size + 1, m


def test_tower_matches_the_sort_and_encode_reference_on_the_catalog():
    checked = 0
    for _, g in group_catalog(16):
        for sub in subgroup_conjugacy_reps(g):
            if g.order // sub.order <= 6:
                _assert_tower_matches_reference(coset_gset(g, sub), 4)
                checked += 1
    assert checked > 100


def test_classes_inertia_and_euler_read_only_the_generators_conjugation_rows():
    # the routes of `classes`, `inertia` and `euler --max-m 2` on natural S6
    x = natural_gset(symmetric(6))
    group = x.group
    assert conjugacy_classes(group).count == 11
    iner = inertia(x)
    assert (iner.size, orbits(iner).count, len(iner.labels)) == (720, 7, 720)
    assert euler_report(x, 2).chi_phy == 7
    assert 0 < len(group._conj) <= len(group.spanning_tree()[0])


def test_tower_levels_are_reused_while_referenced():
    x = natural_gset(symmetric(3))
    top = iterated_inertia(x, 3)
    assert iterated_inertia(x, 2) is top.below and iterated_inertia(x, 3) is top
    assert iterated_inertia(x, 1) is top.below.below and top.below.below.below is x
    # a level is a base of its own tower, labelled from its own points
    above = iterated_inertia(top.below, 1)
    assert above is not top and above.cols == top.cols
    assert above.labels == _reference_level(top.below, 1)[1]


def test_tower_levels_form_no_reference_cycle():
    gc.disable()
    try:
        x = natural_gset(symmetric(3))
        top = iterated_inertia(x, 4)
        refs = [weakref.ref(top)]
        level = top
        while level.below is not x:
            level = level.below
            refs.append(weakref.ref(level))
        del top, level
        assert all(ref() is None for ref in refs)
        assert x._up() is None
    finally:
        gc.enable()


def test_flattening_needs_the_level_directly_above():
    x = natural_gset(symmetric(3))
    twin = natural_gset(symmetric(3))
    nested = inertia(x)
    for wrong in (iterated_inertia(x, 2), iterated_inertia(twin, 1), x, inertia(twin)):
        with pytest.raises(ValidationError, match="directly above"):
            flattening_bijection(nested, wrong)
    # a second fresh inertia of x is a level directly above x, too
    for right in (iterated_inertia(x, 1), inertia(x)):
        assert flattening_bijection(nested, right).is_bijective()
    for not_inertia in (iterated_inertia(x, 2), x):
        with pytest.raises(ValidationError, match="not the inertia of a G-set"):
            flattening_bijection(not_inertia, iterated_inertia(x, 1))


def test_flattening_names_a_pair_the_target_lacks():
    pt = trivial_gset(cyclic(2), 1)
    short = TowerLevel(pt, 1, offsets=[0, 1], last=[0], cols=[[0]])
    with pytest.raises(ValidationError, match=r"pair \(0, 1\) missing from the direct"):
        flattening_bijection(inertia(pt), short)


def test_flattening_names_a_pair_the_nested_set_lacks():
    x = z2_swap()  # free: the only fixed-point pairs are (0, 0) and (1, 0)
    extra = TowerLevel(x, 1, offsets=[0, 2, 3], last=[0, 1, 0], cols=[[2, 1, 0]])
    with pytest.raises(ValidationError, match=r"pair \(0, 1\) missing from the nested"):
        flattening_bijection(inertia(x), extra)


def test_flattening_names_a_pair_placed_differently():
    # the pairs (0, 0) and (0, 1) of a point under Z2, listed the other way round
    pt = trivial_gset(cyclic(2), 1)
    swapped = TowerLevel(pt, 1, offsets=[0, 2], last=[1, 0], cols=[[0, 1]])
    with pytest.raises(ValidationError, match=r"pair \(0, 0\) is point 0 of the nested set but 1"):
        flattening_bijection(inertia(pt), swapped)


def test_flattening_names_a_generator_whose_columns_differ():
    x = s3_natural()
    level = iterated_inertia(x, 1)
    s = x.group.spanning_tree()[0][1]
    cols = [list(col) for col in level.cols]
    cols[1][2] = (cols[1][2] + 1) % level.size
    corrupt = TowerLevel(x, 1, level.offsets, level.last, cols)
    with pytest.raises(ValidationError, match=rf"^not equivariant: witness \(g={s}, x=2\)$"):
        flattening_bijection(inertia(x), corrupt)


def test_flattening_reads_only_the_two_levels_arrays(monkeypatch):
    def refuse(*args):
        raise AssertionError("flattening must not build a point map or labels")

    monkeypatch.setattr(groupoidstack, "equivariant_map", refuse)
    monkeypatch.setattr(TowerLevel, "labels", property(refuse))
    checked = 0
    for g, classes in _catalog_with_classes():
        for sub in classes:
            x = coset_gset(g, sub)
            for m in range(3):
                bij = flattening_bijection(inertia(iterated_inertia(x, m)), iterated_inertia(x, m + 1))
                assert bij.is_bijective() and bij.point_map == tuple(range(bij.source.size))
                checked += 1
    assert checked > 300


def test_tower_levels_keep_no_label_index():
    assert not hasattr(TowerLevel, "label_index")
    assert "_label_index" not in TowerLevel.__slots__


def test_inertia_is_level_one_of_the_tower(monkeypatch):
    x = natural_gset(symmetric(3))
    level1 = inertia(x)
    assert isinstance(level1, TowerLevel) and level1.depth == 1 and level1.below is x
    assert iterated_inertia(x, 1) is level1 and inertia(x) is level1
    labels, cols = level1.labels, level1.cols
    released = weakref.ref(level1)
    del level1
    gc.collect()
    assert released() is None
    rebuilt = inertia(x)  # a new level once the old one is released
    assert (rebuilt.labels, rebuilt.cols) == (labels, cols)
    with limits.using(points=5), pytest.raises(ResourceLimitError, match=r"Limits\.points = 5$"):
        inertia(x)  # the cap in force refuses a reused level
    assert inertia(x) is rebuilt
    # over I^1, inertia is a depth-1 level whose rows come from I^1's
    # stabilizers, a different build from I^2's commute masks
    built, real = [], groupoidstack._level_above

    def level_above(below, depth, cap):
        built.append((below, depth))
        return real(below, depth, cap)

    monkeypatch.setattr(groupoidstack, "_level_above", level_above)
    nested = inertia(rebuilt)
    assert built == [(rebuilt, 1)] and nested.depth == 1 and nested.below is rebuilt
    assert nested is not iterated_inertia(x, 2) and built[1:] == [(rebuilt, 2)]


@lru_cache(maxsize=None)
def _catalog_with_classes():
    return tuple((g, tuple(subgroup_conjugacy_reps(g))) for _, g in group_catalog(16))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_random_coset_unions_keep_tower_ladder_and_trace_map(data):
    g, classes = data.draw(st.sampled_from(_catalog_with_classes()))
    parts = []
    room = 24
    for _ in range(data.draw(st.integers(1, 3))):
        fitting = [sub for sub in classes if g.order // sub.order <= room]
        if not fitting:
            break
        sub = data.draw(st.sampled_from(fitting))
        parts.append(coset_gset(g, sub))
        room -= g.order // sub.order
    x = disjoint_union(*parts)

    _assert_tower_matches_reference(x, 3)
    for m in range(3):
        below = iterated_inertia(x, m)
        assert flattening_bijection(inertia(below), iterated_inertia(x, m + 1)).is_bijective()
        assert ladder_check(x, m)

    matrix = devissage_matrix(x)
    assert len(matrix) == len(matrix[0]) == exact_rank(matrix)

    # a coset character on each orbit: its invariants are one-dimensional,
    # so the pushforward counts the orbits
    dec = orbits(x)
    chars = []
    for rep in dec.representatives:
        stab = x.stabilizer(rep).as_group()[0]
        chars.append(coset_character(stab, data.draw(st.sampled_from(subgroup_conjugacy_reps(stab)))))
    assert pushforward_to_point(VirtualEqBundle(x, tuple(chars))) == dec.count


def _reference_orbits(x):
    """The partition, representatives, stabilizer orders and ``orbit_of``,
    read off every point's ``act`` row."""
    orbit_of, found, reps, stabs = [-1] * x.size, [], [], []
    for p, row in enumerate(x.act):
        if orbit_of[p] < 0:
            members = tuple(sorted(set(row)))
            for q in members:
                orbit_of[q] = len(found)
            found.append(members)
            reps.append(p)
            stabs.append(row.count(p))
    return tuple(found), tuple(reps), tuple(stabs), tuple(orbit_of)


def _coset_union(data):
    """A union of catalog coset spaces, at most 24 points."""
    g, classes = data.draw(st.sampled_from(_catalog_with_classes()))
    subs = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=3))
    while sum(g.order // sub.order for sub in subs) > 24:
        subs.pop()
    return disjoint_union(*(coset_gset(g, sub) for sub in subs))


def _coset_union_and_its_tower(data):
    """A union of catalog coset spaces (at most 24 points) and its levels I^1..I^3."""
    x = _coset_union(data)
    return [x] + [iterated_inertia(x, m) for m in (1, 2, 3)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orbits_match_the_action_rows_on_coset_unions_their_towers_and_inertia(data):
    levels = _coset_union_and_its_tower(data)
    for x in levels + [inertia(level) for level in levels]:
        dec = orbits(x)
        assert (dec.orbits, dec.representatives, dec.stabilizer_orders,
                dec.orbit_of) == _reference_orbits(x)
        for p, t in enumerate(dec.transporter):
            assert x.act[dec.representatives[dec.orbit_of[p]]][t] == p


def _no_action_table(self):
    raise AssertionError("the action table was read")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_orbits_of_inertia_read_no_action_table(data):
    levels = _coset_union_and_its_tower(data)
    sets = [inertia(level) for level in levels]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groupoidstack.FiniteGSet, "act", property(_no_action_table))
        decs = [orbits(x) for x in sets]
    # inertia(I^m) is I^(m+1) relabeled, so their orbit counts agree
    counts = [dec.count for dec in decs]
    assert counts[:3] == [groupoidstack.orbit_count(level) for level in levels[1:]]
    assert all(x._act is None for x in sets)


def test_orbits_refuse_columns_that_are_not_an_action():
    # both generators of S3 swap the two points: the sweep finds one orbit of
    # two points, but the 4 elements of even depth in the tree fix point 0
    x = groupoidstack.FiniteGSet(symmetric(3), 2, [[1, 0], [1, 0]], validate=False)
    with pytest.raises(ValidationError) as err:
        orbits(x)
    assert str(err.value) == "orbit of 0 has size 2 but stabilizer order 4"


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_stabilizers_match_the_action_rows_on_coset_unions_their_towers_and_inertia(data):
    levels = _coset_union_and_its_tower(data)
    for x in levels + [inertia(level) for level in levels]:
        dec = orbits(x)
        single = [x.stabilizer_elements(p) for p in range(x.size)]
        expected = [_reference_stabilizer(x, p) for p in range(x.size)]
        assert single == expected
        assert dec.stabilizers == tuple(tuple(expected[r]) for r in dec.representatives)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_series_counts_equal_the_per_point_mask_count(data):
    # the reference counts from one stabilizer mask per point; the series
    # counts once per distinct representative stabilizer, weighted by points
    levels = _coset_union_and_its_tower(data)
    with limits.using(tuples=10**30):
        for x in levels + [inertia(level) for level in levels]:
            masks = Counter(sum(1 << h for h in x.stabilizer_elements(p)) for p in range(x.size))
            expected = commuting_tuple_counts(x.group, masks, 3)
            assert [chi * x.group.order for chi in euler_series(x, 3)] == expected


def test_many_equal_orbits_have_the_reference_stabilizer_and_are_refused_by_burnside():
    # a thousand fixed points, or a thousand two-point orbits: each
    # representative's stabilizer is its act-row one, and level 1 is refused
    s4 = symmetric(4)
    a4 = next(sub for sub in subgroup_conjugacy_reps(s4) if sub.order == 12)
    pairs = disjoint_union(*[coset_gset(s4, a4)] * 1000)
    for x, order in ((trivial_gset(s4, 1000), 24), (pairs, 12)):
        dec = orbits(x)
        assert dec.count == 1000
        assert all(stab == tuple(_reference_stabilizer(x, r))
                   for stab, r in zip(dec.stabilizers, dec.representatives))
        assert len(dec.stabilizers[0]) == order
        with limits.using(points=23_999), pytest.raises(ResourceLimitError, match=r"Limits\.points"):
            inertia(x)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_tower_inertia_and_series_read_no_action_table(data):
    x = _coset_union(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groupoidstack.FiniteGSet, "act", property(_no_action_table))
        levels = [x] + [iterated_inertia(x, m) for m in (1, 2, 3)]
        nested = [inertia(level) for level in levels]
        series = euler_series(x, 3)
        stabs = [x.stabilizer_elements(p) for p in range(x.size)]
    assert [level.size for level in nested[:3]] == [level.size for level in levels[1:]]
    assert [chi * x.group.order for chi in series[1:]] == [level.size for level in levels[1:]]
    assert stabs == [_reference_stabilizer(x, p) for p in range(x.size)]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_inertia_of_a_tower_level_reads_no_commute_masks(data):
    # the nested route of the flattening check takes its stabilizers from
    # the action, never from the commute-mask rule that builds level k+1
    levels = _coset_union_and_its_tower(data)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(FiniteGroup, "commute_masks", _no_commute_masks)
        nested = [inertia(level) for level in levels]
    for m, level in enumerate(nested[:3]):
        assert flattening_bijection(level, levels[m + 1]).is_bijective()


def _no_commute_masks(self):
    raise AssertionError("the commute masks were read")


# -- the index a level is written through ------------------------------------


def _dict_index_level(below, depth):
    """(offsets, last, cols) of the level above ``below``, every column written
    through a dict of the children and every stabilizer row conjugated from
    its orbit's representative (the identity for the representative itself):
    the build used before dense levels were indexed by a list of slots,
    kept as the reference both index kinds must match."""
    group = below.group
    n, mul, inv = group.order, group.mul, group.inv
    offsets, last = [0], []
    if depth == 1:
        dec = orbits(below)
        rows = (sorted(mul[mul[t][h]][inv[t]] for h in dec.stabilizers[dec.orbit_of[x]])
                for x, t in enumerate(dec.transporter))
    else:
        starts, siblings, masks = below.offsets, below.last, group.commute_masks()
        sibling_rows = (siblings[a:b] for a, b in zip(starts, starts[1:]))
        rows = (_set_bits(mask & masks[h]) for row in sibling_rows
                for mask in [sum(1 << h for h in row)] for h in row)
    for children in rows:
        last.extend(children)
        offsets.append(len(last))
    parent = list(groupoidstack._per_child(range(below.size), offsets))
    index = dict(zip([p * n + h for p, h in zip(parent, last)], count()))
    cols = []
    for s, below_col in zip(group.spanning_tree()[0], below.cols):
        conj_s, image_at = group.conj_row(s), [q * n for q in below_col]
        cols.append(tuple(index[image_at[p] + conj_s[h]] for p, h in zip(parent, last)))
    return offsets, last, tuple(cols)


def _s5_action(kind):
    """S5 on its 2-subsets or its ordered pairs, from its two generators."""
    s5 = symmetric(5)
    points = list(combinations(range(5), 2) if kind == "2-subsets" else permutations(range(5), 2))
    image = ((lambda p, x: tuple(sorted(p[i] for i in x))) if kind == "2-subsets"
             else (lambda p, x: tuple(p[i] for i in x)))
    where = {x: i for i, x in enumerate(points)}
    return gset_from_generator_action(
        s5, [[where[image(s5.perms[s], x)] for x in points] for s in s5.spanning_tree()[0]])


@lru_cache(maxsize=None)
def _sparse_s5_levels():
    """Levels 0 and 1 of the towers on S5's 2-subsets and ordered pairs."""
    return tuple(level for kind in ("2-subsets", "ordered-pairs")
                 for x in [_s5_action(kind)] for level in (x, iterated_inertia(x, 1)))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_levels_equal_the_dict_index_build_on_both_sides_of_the_density_rule(data):
    kind = data.draw(st.sampled_from(["catalog", "s4-natural", "s5-sparse"]))
    if kind == "catalog":  # mostly dense: few slots p*|G| + h are not children
        below = iterated_inertia(_coset_union(data), data.draw(st.integers(0, 2)))
    elif kind == "s4-natural":
        below = natural_gset(symmetric(4))
    else:
        below = data.draw(st.sampled_from(_sparse_s5_levels()))
    depth = getattr(below, "depth", 0) + 1

    def arrays():
        return below.size, below.cols, list(getattr(below, "offsets", ())), list(getattr(below, "last", ()))

    before = arrays()
    level = groupoidstack._level_above(below, depth, limits.current().points)
    assert (level.offsets, list(level.last), level.cols) == _dict_index_level(below, depth)
    assert arrays() == before  # the level below is left as it was
    slots_per_child = below.size * below.group.order / level.size
    if kind == "s4-natural":
        assert slots_per_child == 4  # exactly at the rule: the list of slots
    elif kind == "s5-sparse":
        assert slots_per_child > 4  # the dict of children
