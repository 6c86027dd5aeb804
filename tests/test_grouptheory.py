"""Group kernel: construction, conjugacy, centralizers, commuting tuples."""

import hashlib
import math
import random
import re
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackyrr import grouptheory, limits
from stackyrr.errors import ResourceLimitError, ValidationError
from stackyrr.grouptheory import (
    FiniteGroup,
    OrbitDecomposition,
    Subgroup,
    all_subgroups,
    centralizer,
    commuting_tuple_counts,
    conjugacy_classes,
    count_commuting_tuples,
    direct_product,
    group_from_permutations,
    group_from_table,
    subgroup,
    subgroup_conjugacy_reps,
    trivial_group,
)
from stackyrr.groupoidstack import coset_gset, natural_gset, trivial_gset
from stackyrr.smallgroups import (
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    group_catalog,
    order_profile,
    symmetric,
)


def test_group_from_permutations_basics():
    g2 = group_from_permutations([(1, 0)])
    assert g2.order == 2
    s3 = group_from_permutations([(1, 0, 2), (1, 2, 0)])
    assert s3.order == 6
    empty = group_from_permutations([])
    assert empty.order == 1


def test_group_from_permutations_rejects_non_bijection():
    with pytest.raises(ValidationError):
        group_from_permutations([(0, 0)])


def test_group_order_cap():
    with limits.using(group_order=3):
        with pytest.raises(ResourceLimitError, match=r"Limits\.group_order"):
            group_from_permutations([(1, 2, 3, 4, 0)])


def test_bfs_indexing_deterministic():
    a = group_from_permutations([(1, 0, 2), (1, 2, 0)])
    b = group_from_permutations([(1, 0, 2), (1, 2, 0)])
    assert a.mul == b.mul and a.perms == b.perms


def test_group_from_table():
    assert group_from_table([[0]]).order == 1
    z4 = group_from_table([[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]])
    assert sorted(z4.element_order(g) for g in range(4)) == [1, 2, 4, 4]


def test_group_from_table_rejects_broken_inverse():
    with pytest.raises(ValidationError, match="inverse"):
        group_from_table([[0, 1], [1, 1]])


def test_group_from_table_names_failing_triple():
    # a loop of order 5: identity and inverses fine, associativity broken
    loop = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ValidationError, match="associativity fails on triple"):
        group_from_table(loop)


def test_a_table_over_the_group_order_cap_is_refused_before_it_is_checked():
    z6 = cyclic(6).mul
    with limits.using(group_order=5):
        for table in (z6, [row[:3] for row in z6]):  # the second is not even square
            with pytest.raises(ResourceLimitError, match=r"exceeds Limits\.group_order = 5"):
                group_from_table(table)
    with limits.using(group_order=6):
        assert group_from_table(z6).mul == z6


def _reference_check_table(mul):
    """The O(|G|^3) validation: identity, inverses and every triple."""
    n = len(mul)
    for a in range(n):
        if mul[0][a] != a or mul[a][0] != a:
            raise ValidationError(f"index 0 is not an identity at element {a}")
    for a in range(n):
        if 0 not in mul[a]:
            raise ValidationError(f"element {a} has no inverse")
    for a in range(n):
        for b in range(n):
            ab = mul[a][b]
            for c in range(n):
                if mul[ab][c] != mul[a][mul[b][c]]:
                    raise ValidationError(f"associativity fails on triple ({a}, {b}, {c})")


def _verdict(check, mul):
    try:
        check(mul)
    except ValidationError as exc:
        return str(exc).split(" on ")[0].split(" at ")[0]
    return "accepted"


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_lights_test_agrees_with_the_triple_loop_on_corrupted_tables(data):
    name, g = data.draw(st.sampled_from(_catalog()))
    rows = [list(row) for row in g.mul]
    index = st.integers(0, g.order - 1)
    for _ in range(data.draw(st.integers(0, 2))):
        a = data.draw(index)
        if data.draw(st.booleans()):  # a swap within a row, away from the identity's column
            if g.order > 2:
                i, j = data.draw(st.lists(st.integers(1, g.order - 1), min_size=2, max_size=2,
                                          unique=True))
                rows[a][i], rows[a][j] = rows[a][j], rows[a][i]
        else:
            rows[a][data.draw(index)] = data.draw(index)
    mul = tuple(map(tuple, rows))
    if data.draw(st.booleans()):
        # times Z2: element 1 = (e, 1) associates with everything, so the
        # first generator picked never shows a failure and a later one must
        n = 2 * g.order
        mul = tuple(tuple(mul[x // 2][y // 2] * 2 + (x + y) % 2 for y in range(n)) for x in range(n))
    verdict = _verdict(grouptheory._check_table, mul)
    assert verdict == _verdict(_reference_check_table, mul), name
    if verdict == "associativity fails":
        with pytest.raises(ValidationError) as failure:
            group_from_table(mul)
        x, a, y = map(int, re.findall(r"\d+", str(failure.value)))
        assert mul[mul[x][a]][y] != mul[x][mul[a][y]], (name, x, a, y)


def test_conjugacy_classes_examples():
    assert conjugacy_classes(trivial_group()).count == 1
    s3 = symmetric(3)
    t = conjugacy_classes(s3)
    assert sorted(map(len, t.orbits)) == [1, 2, 3]
    for n in (2, 3, 5, 8):
        assert conjugacy_classes(cyclic(n)).count == n


def test_catalog_is_every_group_of_order_at_most_16_once():
    catalog = group_catalog(16)
    counts = [sum(1 for _, g in catalog if g.order == n) for n in range(1, 17)]
    assert counts == [1, 1, 1, 2, 1, 2, 1, 5, 2, 2, 1, 5, 1, 2, 1, 14]  # OEIS A000001
    # entries with distinct isomorphism invariants are pairwise non-isomorphic
    assert len({order_profile(g) for _, g in catalog}) == len(catalog) == 42


def _groups_up_to_24():
    groups = list(group_catalog(16))
    groups += [
        ("S4", symmetric(4)),
        ("D12", dihedral(12)),
        ("Dic6", dicyclic(6)),
        ("Z24", cyclic(24)),
        ("Z3xQ8", direct_product(cyclic(3), dicyclic(2))),
    ]
    return groups


def test_class_size_times_centralizer_is_order():
    for _, g in _groups_up_to_24():
        t = conjugacy_classes(g)
        assert sum(map(len, t.orbits)) == g.order
        for s, z in zip(map(len, t.orbits), t.stabilizer_orders):
            assert s * z == g.order
            assert g.order % s == 0
        assert sorted(x for c in t.orbits for x in c) == list(range(g.order))
        assert t.representatives == tuple(c[0] for c in t.orbits)


def _classes_by_every_conjugation(g):
    """Orbits of each h under h -> x h x^-1 for every x, read off the table."""
    classes, seen = [], set()
    for h in range(g.order):
        if h not in seen:
            orbit = tuple(sorted({g.conj(x, h) for x in range(g.order)}))
            seen.update(orbit)
            classes.append(orbit)
    return tuple(classes)


def _relabeled(generators, relabel):
    """The same permutations with the points renamed by ``relabel``."""
    back = [relabel.index(i) for i in range(len(relabel))]
    return [tuple(relabel[p[back[i]]] for i in range(len(p))) for p in generators]


def _conjugation_groups():
    groups = list(group_catalog(16))
    groups += [(f"{name} from its table", group_from_table(g.mul)) for name, g in group_catalog(16)]
    five, six = [2, 4, 0, 3, 1], [5, 2, 0, 4, 1, 3]
    groups += [
        ("S5", group_from_permutations(_relabeled([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], five))),
        ("A5", group_from_permutations(_relabeled([(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)], five))),
        ("S6", group_from_permutations(_relabeled([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)], six))),
        ("trivial", trivial_group()),
    ]
    return groups


def test_classes_match_the_orbits_under_every_conjugation():
    for name, g in _conjugation_groups():
        assert conjugacy_classes(g).orbits == _classes_by_every_conjugation(g), name
        # the classes were closed under the spanning-tree generators' rows alone
        assert set(g._conj) <= set(g.spanning_tree()[0]), name
        for x in range(g.order):
            assert g.conj_row(x) == tuple(g.conj(x, h) for h in range(g.order)), (name, x)


def test_centralizer_orders_are_counted_not_derived():
    for name, g in _conjugation_groups():
        table = conjugacy_classes(g)
        assert table.orbits == _classes_by_every_conjugation(g), name
        assert table.stabilizer_orders == tuple(
            centralizer(g, [rep]).order for rep in table.representatives), name


def test_the_class_table_is_the_orbit_table_of_conjugation():
    # classes, representatives, centralizers, their orders, the class of each
    # element and its transporter, under the orbit table's names
    groups = list(group_catalog(16)) + [(f"S{n}", symmetric(n)) for n in (4, 5, 6)]
    for name, g in groups:
        table = conjugacy_classes(g)
        assert type(table) is OrbitDecomposition, name
        assert table.orbits == _classes_by_every_conjugation(g), name
        assert table.representatives == tuple(c[0] for c in table.orbits), name
        centralizers = tuple(centralizer(g, [r]).elements for r in table.representatives)
        assert table.stabilizers == centralizers, name
        assert table.stabilizer_orders == tuple(map(len, centralizers)), name
        assert all(y in table.orbits[o] for y, o in enumerate(table.orbit_of)), name
        reps = [table.representatives[o] for o in table.orbit_of]
        assert [g.conj(t, r) for t, r in zip(table.transporter, reps)] == list(range(g.order)), name


_NOT_A_SIZE = {
    "trivial_gset(Z2, -1)": lambda: trivial_gset(cyclic(2), -1),
    "trivial_gset(Z2, 2.0)": lambda: trivial_gset(cyclic(2), 2.0),
    "cyclic(True)": lambda: cyclic(True),
    "symmetric(True)": lambda: symmetric(True),
    "cyclic(2.0)": lambda: cyclic(2.0),
    "dihedral(2.0)": lambda: dihedral(2.0),
    "alternating(4.0)": lambda: alternating(4.0),
    "dicyclic(2.0)": lambda: dicyclic(2.0),
}


@pytest.mark.parametrize("call", sorted(_NOT_A_SIZE))
def test_a_size_that_is_not_a_natural_number_is_refused(call):
    with pytest.raises(ValidationError):
        _NOT_A_SIZE[call]()


def test_centralizer_examples():
    s3 = symmetric(3)
    assert centralizer(s3, [0]).order == 6
    transposition = next(g for g in range(6) if s3.element_order(g) == 2)
    three_cycle = next(g for g in range(6) if s3.element_order(g) == 3)
    assert centralizer(s3, [transposition]).order == 2
    assert centralizer(s3, [three_cycle]).order == 3


def test_centralizer_is_validated_subgroup():
    d4 = dihedral(4)
    for g in range(d4.order):
        sub = centralizer(d4, [g])
        assert isinstance(sub, Subgroup)
        assert d4.order % sub.order == 0


# Entries that are not element indices: a bool, a float, a string, None, a nested list, a
# negative or an out-of-range integer.  Each must be refused with a ValidationError naming it,
# never read as an index (True as 1, -1 as the last element) or left to a TypeError.
def _not_an_index(size):
    return st.one_of(st.booleans(), st.floats(), st.text(max_size=3), st.none(),
                     st.lists(st.integers(0, 3), max_size=2), st.integers(max_value=-1),
                     st.integers(min_value=size))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_group_inputs_that_are_not_indices_are_refused(data):
    s3 = symmetric(3)
    elems = data.draw(st.lists(st.integers(0, 5), max_size=3))
    bad = data.draw(_not_an_index(6))
    elems.insert(data.draw(st.integers(0, len(elems))), bad)
    with pytest.raises(ValidationError, match=re.escape(f"centralizer element {bad!r} is not an index")):
        centralizer(s3, elems)
    degree = data.draw(st.integers(1, 5))
    perm = list(data.draw(st.permutations(range(degree))))
    bad = data.draw(_not_an_index(degree))
    perm[data.draw(st.integers(0, degree - 1))] = bad
    gens = data.draw(st.lists(st.permutations(range(degree)), max_size=2))
    gens.insert(data.draw(st.integers(0, len(gens))), perm)
    message = f"generator {tuple(perm)!r} is not a permutation of 0..{degree - 1}"
    with pytest.raises(ValidationError, match=re.escape(message)):
        group_from_permutations(gens)
    # an argument that is not iterable at all is refused by name, not with a TypeError
    scalar = data.draw(st.one_of(st.just(5), st.integers(), st.booleans(), st.floats(), st.none()))
    for call, name in ((lambda: group_from_permutations(scalar), "generators"),
                       (lambda: group_from_permutations([*gens[:1], scalar]), "each generator"),
                       (lambda: centralizer(s3, scalar), "centralizer elements"),
                       (lambda: subgroup(s3, scalar), "subgroup elements")):
        with pytest.raises(ValidationError, match=re.escape(f"{name} must be iterable, got {scalar!r}")):
            call()


@pytest.mark.parametrize("elems", [[-1], [True], [1.0], [99]])
def test_centralizer_refuses_negative_bool_float_and_out_of_range_entries(elems):
    with pytest.raises(ValidationError, match=re.escape(repr(elems[0]))):
        centralizer(symmetric(3), elems)


@pytest.mark.parametrize("gens", [[[True, False]], [[1.0, 0]]])
def test_permutations_of_bools_and_floats_are_refused(gens):
    with pytest.raises(ValidationError, match="is not a permutation of 0..1"):
        group_from_permutations(gens)


def test_subgroup_validation():
    s3 = symmetric(3)
    transposition = next(g for g in range(6) if s3.element_order(g) == 2)
    three_cycle = next(g for g in range(6) if s3.element_order(g) == 3)
    with pytest.raises(ValidationError):
        subgroup(s3, [0, transposition, three_cycle])
    ok = subgroup(s3, [0, transposition])
    small, elems = ok.as_group()
    assert small.order == 2 and elems == (0, transposition)


def test_commuting_tuples_examples():
    s3 = symmetric(3)
    assert count_commuting_tuples(s3, 0) == 1
    assert count_commuting_tuples(s3, 1) == 6
    assert count_commuting_tuples(s3, 2) == 18
    assert count_commuting_tuples(s3, 3, "brute") == 48


def test_commuting_tuples_agree_all_small_groups():
    for name, g in _groups_up_to_24():
        for m in range(5):
            if g.order**m > 10**6:
                continue
            assert count_commuting_tuples(g, m, "brute") == count_commuting_tuples(
                g, m, "recursive"
            ), (name, m)


def test_commuting_tuples_abelian_power():
    for g in (cyclic(5), abelian(2, 4), abelian(3, 3)):
        for m in range(4):
            assert count_commuting_tuples(g, m) == g.order**m


def test_commuting_tuples_at_large_m_are_exact():
    # one recursion level per centralizer in a chain, not one per entry
    assert count_commuting_tuples(symmetric(3), 1200) == 3 * 2**1200 + 3**1200 - 3
    assert count_commuting_tuples(cyclic(2), 1200) == 2**1200
    for name, g in group_catalog():
        if g.is_abelian():
            assert count_commuting_tuples(g, 5000) == g.order**5000, name


def test_is_abelian_reads_only_the_generators(monkeypatch):
    groups = [g for _, g in group_catalog()] + [symmetric(5), abelian(2, 4, 6)]
    expected = [all(row == col for row, col in zip(g.mul, zip(*g.mul))) for g in groups]
    assert sum(expected) == 26  # the 25 abelian groups of order <= 16, and Z2 x Z4 x Z6
    monkeypatch.setattr(FiniteGroup, "commute_masks", _refuse)
    monkeypatch.setattr(grouptheory, "conjugacy_classes", _refuse)
    assert [g.is_abelian() for g in groups] == expected
    # a greedy generating set stands in for unrecorded generators
    assert not FiniteGroup(symmetric(3).mul, _validated=True).is_abelian()


def test_commuting_tuple_counts_match_every_tuple():
    def commute(t):
        return all(g.mul[a][b] == g.mul[b][a] for a in t for b in t)

    for g in (symmetric(4), dihedral(4), dicyclic(2)):
        masks, total = {}, [0] * 4
        for sub in subgroup_conjugacy_reps(g):
            elems = sub.elements
            mask = sum(1 << h for h in elems)
            brute = [sum(1 for t in product(elems, repeat=m) if commute(t)) for m in range(4)]
            assert commuting_tuple_counts(g, {mask: 1}, 3) == brute
            masks[mask] = len(masks) + 1
            total = [t + masks[mask] * n for t, n in zip(total, brute)]
        # weights multiply, and the masks of one dict add
        assert commuting_tuple_counts(g, masks, 3) == total
    with pytest.raises(ValidationError):
        commuting_tuple_counts(cyclic(2), {0b11: 1}, -1)


def test_commuting_tuple_brute_cap():
    with limits.using(tuples=10**6), pytest.raises(ResourceLimitError, match=r"Limits\.tuples"):
        count_commuting_tuples(symmetric(4), 9, "brute")


# -- the table kernels against the all-pairs routes -------------------------


def _reference_commuting_brute(g, m):
    """Every one of the |G|^m tuples, every pair compared in the table."""
    mul = g.mul
    return sum(
        all(mul[t[i]][t[j]] == mul[t[j]][t[i]] for i in range(m) for j in range(i + 1, m))
        for t in product(range(g.order), repeat=m)
    )


def _reference_group_from_permutations(generators):
    """Breadth-first closure, then every product composed and looked up."""
    cap = limits.current().group_order
    gens = [tuple(p) for p in generators]
    identity = tuple(range(len(gens[0]) if gens else 1))
    elements, index, queue = [identity], {identity: 0}, [identity]
    while queue:
        nxt = []
        for a in queue:
            for p in gens:
                b = tuple(a[i] for i in p)
                if b not in index:
                    if len(elements) >= cap:
                        raise ResourceLimitError(f"exceeds Limits.group_order = {cap}")
                    index[b] = len(elements)
                    elements.append(b)
                    nxt.append(b)
        queue = nxt
    mul = tuple(
        tuple(index[tuple(a[i] for i in b)] for b in elements) for a in elements
    )
    gen_idx = [index[p] for p in gens]
    return FiniteGroup(mul, generators=gen_idx, perms=elements, _validated=True)


def _as_built(g):
    return g.mul, g.perms, g.generators


def _recorded_permutations(g):
    return [g.perms[s] for s in g.generators]


def _regular_permutations(g):
    return [g.mul[s] for s in g.spanning_tree()[0]]


def test_brute_count_matches_the_all_tuples_route():
    groups = list(group_catalog()) + [("S4", symmetric(4)), ("A5", alternating(5))]
    for name, g in groups:
        for m in range(5):
            if g.order**m <= 10**5:
                expected = _reference_commuting_brute(g, m)
                assert count_commuting_tuples(g, m, "brute") == expected, (name, m)


def test_closure_matches_the_all_pairs_composition_route():
    generator_lists = [("S4", _recorded_permutations(symmetric(4))),
                       ("A5", _recorded_permutations(alternating(5))),
                       ("S5", _recorded_permutations(symmetric(5))),
                       ("S6", _recorded_permutations(symmetric(6)))]
    for name, g in group_catalog():
        generator_lists.append((name, _regular_permutations(g)))
        if g.perms is not None:
            generator_lists.append((name, _recorded_permutations(g)))
    for name, gens in generator_lists:
        expected = _reference_group_from_permutations(gens)
        assert _as_built(group_from_permutations(gens)) == _as_built(expected), name


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closure_of_random_generators_matches_the_all_pairs_route(data):
    degree = data.draw(st.integers(1, 6))
    identity = tuple(range(degree))
    pool = data.draw(st.lists(st.permutations(identity), min_size=1, max_size=3))
    gens = data.draw(st.lists(st.sampled_from(pool + [identity]), max_size=3))
    built = group_from_permutations(gens)
    assert _as_built(built) == _as_built(_reference_group_from_permutations(gens))


def test_group_order_cap_trips_at_the_same_element_count():
    for gens in ([(1, 2, 3, 4, 0)], [(1, 0, 2, 3), (1, 2, 3, 0)], [(1, 0)]):
        order = _reference_group_from_permutations(gens).order
        for cap in (order - 1, order):
            with limits.using(group_order=cap):
                outcomes = []
                for build in (group_from_permutations, _reference_group_from_permutations):
                    try:
                        build(gens)
                    except ResourceLimitError:
                        outcomes.append(False)
                    else:
                        outcomes.append(True)
            assert outcomes == [cap >= order] * 2, (gens, cap)


# -- row gathers, tree inverses and class-sweep masks against their definitions --


def test_the_gather_keeps_short_indices_tuples():
    assert grouptheory._gather([2])("abc") == ("c",)
    assert grouptheory._gather([])("abc") == ()
    assert grouptheory._gather([2, 0])("abc") == ("c", "a")
    trivial = group_from_permutations([[0, 1, 2]])
    assert trivial.mul == ((0,),) and trivial.inv == (0,)


def _sample(rng, g, k):
    return range(g.order) if g.order <= k else rng.sample(range(g.order), k)


def _check_rows(g, rows):
    """Table, conjugation rows and inverses of ``g`` on ``rows``, by definition."""
    mul, inv = g.mul, g.inv
    if g.perms is not None:
        index = {p: i for i, p in enumerate(g.perms)}
        for a in rows:
            pa = g.perms[a]
            assert mul[a] == tuple(index[tuple(pa[i] for i in pb)] for pb in g.perms), a
    for a in range(g.order):
        assert inv[a] == mul[a].index(0), a
    for x in rows:
        assert g.conj_row(x) == tuple(mul[mul[x][h]][inv[x]] for h in range(g.order)), x


def _check_reindexed(g, sub):
    small, elems = sub.as_group()
    for i, a in enumerate(elems):
        assert tuple(elems[v] for v in small.mul[i]) == tuple(g.mul[a][b] for b in elems)
        assert elems[small.inv[i]] == g.inv[a]


def _mask_of(g, y):
    return sum(1 << h for h in range(g.order) if g.mul[y][h] == g.mul[h][y])


_FIVE, _SIX = [2, 4, 0, 3, 1], [5, 2, 0, 4, 1, 3]
_S7 = [(1, 0, 2, 3, 4, 5, 6), (1, 2, 3, 4, 5, 6, 0)]


def _gather_groups():
    return list(group_catalog()) + [
        ("S4", symmetric(4)), ("A5", alternating(5)),
        ("S5", group_from_permutations(_relabeled([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], _FIVE))),
        ("S6", group_from_permutations(_relabeled([(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)], _SIX))),
    ]


def test_gathered_tables_conjugation_rows_and_tree_inverses_match_their_definitions():
    rng = random.Random(27)
    for name, g in _gather_groups():
        _check_rows(g, _sample(rng, g, 60))
        subs = all_subgroups(g) if g.order <= 24 else subgroup_conjugacy_reps(g)
        for sub in subs:
            _check_reindexed(g, sub)


def test_commute_masks_from_the_class_sweep_equal_the_table_route(monkeypatch):
    groups = list(group_catalog()) + [("S5", symmetric(5)), ("S6", symmetric(6))]
    expected = {name: grouptheory._commute_masks(g.mul) for name, g in groups}
    monkeypatch.setattr(grouptheory, "_commute_masks", _refuse)
    for name, g in groups:
        fresh = FiniteGroup(g.mul, generators=g.generators, _validated=True)
        assert fresh.commute_masks() == expected[name], name


def test_s7_rows_inverses_and_masks_on_a_seeded_sample():
    rng = random.Random(7)
    s7 = group_from_permutations(_relabeled(_S7, [3, 6, 0, 5, 1, 4, 2]))
    assert s7.order == 5040
    sample = rng.sample(range(s7.order), 12)
    _check_rows(s7, sample)
    masks = s7.commute_masks()
    for y in sample:
        assert masks[y] == _mask_of(s7, y), y
    point_stabilizer = subgroup(s7, [g for g in range(s7.order) if s7.perms[g][0] == 0])
    _check_reindexed(s7, point_stabilizer)


_INDEPENDENCE_GROUPS = [("S4", symmetric(4)), ("D4", dihedral(4)), ("Q8", dicyclic(2))]


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not read this")


def _refuse_commute_masks(monkeypatch):
    monkeypatch.setattr(FiniteGroup, "commute_masks", _refuse)
    monkeypatch.setattr(grouptheory, "commuting_tuple_counts", _refuse)


def test_brute_count_reads_only_the_table(monkeypatch):
    groups = _INDEPENDENCE_GROUPS
    expected = {(name, m): count_commuting_tuples(g, m) for name, g in groups for m in range(4)}
    s6 = symmetric(6)
    _refuse_commute_masks(monkeypatch)
    monkeypatch.setattr(FiniteGroup, "conj_row", _refuse)
    monkeypatch.setattr(grouptheory, "conjugacy_classes", _refuse)
    monkeypatch.setattr(grouptheory, "centralizer", _refuse)
    for name, g in groups:
        for m in range(4):
            assert count_commuting_tuples(g, m, "brute") == expected[name, m], (name, m)
    assert count_commuting_tuples(s6, 2, "brute") == 7920  # k(S6) * |S6| = 11 * 720


def test_brute_count_builds_its_masks_once_per_group(monkeypatch):
    s4 = FiniteGroup(symmetric(4).mul, _validated=True)
    build = grouptheory._commute_masks
    calls = []
    monkeypatch.setattr(grouptheory, "_commute_masks", lambda mul: calls.append(mul) or build(mul))
    counts = [count_commuting_tuples(s4, m, "brute") for m in range(1, 4)]
    assert counts == [count_commuting_tuples(symmetric(4), m) for m in range(1, 4)]
    assert calls == [s4.mul]


def test_recursive_count_reads_no_commute_masks(monkeypatch):
    groups = _INDEPENDENCE_GROUPS
    expected = {(name, m): count_commuting_tuples(g, m, "brute")
                for name, g in groups for m in range(4)}
    s6 = symmetric(6)
    _refuse_commute_masks(monkeypatch)
    for name, g in groups:
        for m in range(4):
            assert count_commuting_tuples(g, m, "recursive") == expected[name, m], (name, m)
    assert count_commuting_tuples(s6, 2, "recursive") == 7920


def test_product_class_count_multiplies():
    s3 = symmetric(3)
    prod = direct_product(s3, s3)
    assert conjugacy_classes(prod).count == conjugacy_classes(s3).count ** 2
    q8d4 = direct_product(dicyclic(2), dihedral(4))
    assert (
        conjugacy_classes(q8d4).count
        == conjugacy_classes(dicyclic(2)).count * conjugacy_classes(dihedral(4)).count
    )


def test_all_subgroups_s4_count():
    s4 = symmetric(4)
    subs = all_subgroups(s4)
    assert len(subs) == 30
    reps = subgroup_conjugacy_reps(s4)
    assert len(reps) == 11


def test_all_subgroups_orders_divide():
    a4 = alternating(4)
    for sub in all_subgroups(a4):
        assert a4.order % sub.order == 0
    # A4 famously has no subgroup of order 6
    assert 6 not in {s.order for s in all_subgroups(a4)}


# -- the subgroup lattice against the closure-of-everything route -----------


def _closure(g, gens):
    elems, queue = {0}, [0]
    while queue:
        a = queue.pop()
        for s in gens:
            b = g.mul[a][s]
            if b not in elems:
                elems.add(b)
                queue.append(b)
    return tuple(sorted(elems))


def _reference_subgroups(g):
    """Every subgroup, closing each known one with each element outside it."""
    seen = {(0,)}
    frontier = [(0,)]
    while frontier:
        fresh = []
        for elems in frontier:
            for x in range(1, g.order):
                if x not in elems:
                    bigger = _closure(g, elems + (x,))
                    if bigger not in seen:
                        seen.add(bigger)
                        fresh.append(bigger)
        frontier = fresh
    return sorted(seen, key=lambda e: (len(e), e))


def _reference_reps(g, subs):
    """The first subgroup of each class, walking ``subs`` in order."""
    reps, seen = [], set()
    for elems in subs:
        if elems not in seen:
            reps.append(elems)
            seen.update(_conjugates(g, elems))
    return reps


def _conjugates(g, elems):
    return {tuple(sorted(g.conj(x, h) for h in elems)) for x in range(g.order)}


def _closed_under_products(g, elems):
    """The O(|H|^2) subgroup test: identity first, inverses and products inside."""
    eset = set(elems)
    return bool(elems) and elems[0] == 0 and all(
        g.inv[a] in eset and all(g.mul[a][b] in eset for b in elems) for a in elems
    )


def _lattice_groups():
    return list(group_catalog()) + [("A5", alternating(5)), ("S5", symmetric(5))]


def test_subgroup_lattice_matches_the_closure_of_everything_route():
    for name, g in _lattice_groups():
        subs = _reference_subgroups(g)
        assert [h.elements for h in all_subgroups(g)] == subs, name
        reps = subgroup_conjugacy_reps(g)
        assert [h.elements for h in reps] == _reference_reps(g, subs), name


def test_each_class_representative_is_the_least_member_of_its_class():
    for name, g in _lattice_groups():
        for rep in subgroup_conjugacy_reps(g):
            assert rep.elements == min(_conjugates(g, rep.elements)), name


def test_s6_subgroup_counts_match_the_published_ones():
    # OEIS A005432 (subgroups of S_n) and A000638 (their conjugacy classes)
    s6 = symmetric(6)
    assert len(all_subgroups(s6)) == 1455
    assert len(subgroup_conjugacy_reps(s6)) == 56


# Per group: the first 16 hex digits of sha256 over repr([(elements, generators), ...]) of
# subgroup_conjugacy_reps(g), then of all_subgroups(g).  A rewrite of _subgroup_classes must
# keep the same subgroups, in the same order, with the same generators; a changed entry
# names the group whose lattice moved.
_LATTICE_DIGESTS = {
    "1": "96e36aecfd3abdfa",
    "Z2": "7f35b15c669bb5d1",
    "Z3": "234abb080e931278",
    "Z4": "88acfc8b40099de6",
    "Z2^2": "376464c3744c6ad4",
    "Z5": "95c67fafd27db44d",
    "Z6": "1a90712ee7b0752d",
    "S3": "6a9b31e9b89c67ef",
    "Z7": "fe8f28f7e9514881",
    "Z8": "1eb3963e000e43e5",
    "Z4xZ2": "db4f422f75ce23e3",
    "Z2^3": "05d4caad81326502",
    "D4": "2b4b6abfeced3b4d",
    "Q8": "951b4058b95ac66d",
    "Z9": "d5e03e7ae02d8d25",
    "Z3^2": "14bfb23b810dd9d3",
    "Z10": "a39d4881cdc5477a",
    "D5": "44d357c463f835a5",
    "Z11": "318563eb10ddd904",
    "Z12": "6ead3ea627251ab8",
    "Z6xZ2": "bdc38eab1a335820",
    "D6": "69f96f9872b74428",
    "A4": "5ad7b78d54f26fad",
    "Dic3": "35c41f4bbb08efb2",
    "Z13": "aa4646667413729f",
    "Z14": "c2922de66cc7873a",
    "D7": "1a35481b518f3303",
    "Z15": "4e5624d2bef8a4fb",
    "Z16": "5d042462ca874f35",
    "Z8xZ2": "9599291fcc3eca6b",
    "Z4^2": "0e24af54e6b6d8b2",
    "Z4xZ2^2": "b714eb4ab0add293",
    "Z2^4": "0b7404a3f093e208",
    "D8": "bd7ea5dfe3a297fe",
    "Q16": "4681936f6016c471",
    "SD16": "e24b84054dff9c41",
    "M16": "a415c335a7d5074a",
    "D4xZ2": "39dd8d97ba7f4758",
    "Q8xZ2": "b466a9f4ad3097b1",
    "Z4:Z4": "b6e035c5ae25ebb7",
    "Z2^2:Z4": "daee5f0437e39d63",
    "Pauli16": "bf10983c353d3a4b",
    "symmetric(4)": "48b672972eadcb5b",
    "alternating(4)": "5ad7b78d54f26fad",
    "alternating(5)": "f6980fa949247e41",
    "symmetric(5)": "07779be475eba168",
    "symmetric(6)": "98ac85b81de60d65",
}


def _pinned_lattice_groups():
    extra = [("symmetric(4)", symmetric(4)), ("alternating(4)", alternating(4)),
             ("alternating(5)", alternating(5)), ("symmetric(5)", symmetric(5)),
             ("symmetric(6)", symmetric(6))]
    return list(group_catalog(16)) + extra


def test_lattice_is_unchanged_and_reads_only_generator_rows():
    digests = {}
    for name, g in _pinned_lattice_groups():
        digest = hashlib.sha256()
        for subs in (subgroup_conjugacy_reps(g), all_subgroups(g)):
            digest.update(repr([(h.elements, h.generators) for h in subs]).encode())
        digests[name] = digest.hexdigest()[:16]
        assert set(g._conj) <= set(g.spanning_tree()[0]), name
    assert digests == _LATTICE_DIGESTS


def test_lattice_subgroups_carry_generators_that_close_to_them():
    for name, g in _lattice_groups():
        for h in all_subgroups(g):
            assert _closure(g, h.generators) == h.elements, name
            assert 2 ** len(h.generators) <= h.order


def _uncapped_close(mul, reached, seen, gens, s):
    """`grouptheory._close` as it was before it took a cap."""
    gens.append(s)
    old = len(reached)
    i = 0
    while i < len(reached):
        row = mul[reached[i]]
        for t in (gens if i >= old else (s,)):
            if row[t] not in seen:
                seen.add(row[t])
                reached.append(row[t])
        i += 1


@lru_cache(maxsize=None)
def _close_groups():
    return list(_catalog()) + [("S4", symmetric(4)), ("S5", symmetric(5))]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_capped_closure_stops_exactly_when_the_closure_passes_its_cap(data):
    name, g = data.draw(st.sampled_from(_close_groups()))
    gens = data.draw(st.lists(st.integers(0, g.order - 1), min_size=1, max_size=4))
    reached, seen, taken = [0], {0}, []
    expected, expected_seen, expected_gens = [0], {0}, []
    for k, s in enumerate(gens):
        before = (list(reached), set(seen), list(taken))  # kept for the last generator
        assert grouptheory._close(g.mul, reached, seen, taken, s) is True
        _uncapped_close(g.mul, expected, expected_seen, expected_gens, s)
        assert reached == expected and seen == expected_seen and taken == gens[:k + 1], name
    assert set(reached) == set(_closure(g, gens)), name
    full = len(reached)
    cap = data.draw(st.integers(0, g.order) | st.integers(-1, 1).map(full.__add__))
    reached, seen, taken = before
    completed = grouptheory._close(g.mul, reached, seen, taken, gens[-1], cap=cap)
    assert completed == (full <= cap), (name, gens, cap)
    if completed:
        assert reached == expected, (name, gens, cap)
    else:
        assert cap < len(reached) <= full, (name, gens, cap)


# -- subgroup validation ----------------------------------------------------


@pytest.mark.parametrize(
    "elements, bad",
    [([0, 999], "999"), ([0, -1], "-1"), ([0, "x"], "'x'"), ([0, 1.0], "1.0"),
     ([0, True], "True"), ([0, 1, 1], "1 is repeated")],
)
def test_subgroup_names_a_malformed_element(elements, bad):
    with pytest.raises(ValidationError, match=re.escape(bad)):
        subgroup(symmetric(3), elements)


def test_subgroup_checks_its_generators():
    s3 = symmetric(3)
    transposition = next(g for g in range(6) if s3.element_order(g) == 2)
    three_cycle = next(g for g in range(6) if s3.element_order(g) == 3)
    pair = (0, transposition)
    assert Subgroup(s3, pair, [transposition]).generators == (transposition,)
    with pytest.raises(ValidationError, match=f"generator {three_cycle} is not an element"):
        Subgroup(s3, pair, (three_cycle,))
    with pytest.raises(ValidationError, match="do not generate"):
        Subgroup(s3, tuple(range(6)), (transposition,))
    with pytest.raises(ValidationError, match="out of order"):
        Subgroup(s3, (0, 2, 1))
    with pytest.raises(ValidationError, match="tuple"):
        Subgroup(s3, [0])
    # equality and hashing ignore the generators
    assert Subgroup(s3, tuple(range(6)), (1, 2)) == subgroup(s3, range(6))
    assert len({Subgroup(s3, tuple(range(6)), (1, 2)), subgroup(s3, range(6))}) == 1


def test_subgroup_equality_is_parent_and_elements():
    s3, z6 = symmetric(3), cyclic(6)
    c = next(g for g in range(6) if s3.element_order(g) == 3)
    a3 = subgroup(s3, (0, c, s3.mul[c][c]))
    other_generator = Subgroup(s3, a3.elements, (s3.mul[c][c],))
    assert other_generator.generators != a3.generators
    assert a3 == other_generator and hash(a3) == hash(other_generator)
    assert a3 != subgroup(s3, range(6))
    # the same indices in another group are another subgroup
    assert Subgroup(s3, (0,)) != Subgroup(z6, (0,))
    assert a3 != a3.elements


@lru_cache(maxsize=None)
def _catalog():
    return group_catalog()


@lru_cache(maxsize=None)
def _catalog_subgroups(name):
    return tuple(h.elements for h in all_subgroups(dict(_catalog())[name]))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_subgroup_accepts_exactly_the_closed_subsets(data):
    name, g = data.draw(st.sampled_from(_catalog()))
    index = st.integers(0, g.order - 1)
    kind = data.draw(st.sampled_from(["subset", "subgroup", "near"]))
    if kind == "subset":
        elems = data.draw(st.sets(index))
    else:
        elems = set(data.draw(st.sampled_from(_catalog_subgroups(name))))
        if kind == "near":
            elems ^= data.draw(st.sets(index, min_size=1, max_size=2))
    elems = tuple(sorted(elems))
    gens = data.draw(st.none() | st.lists(st.sampled_from(elems or (0,)), max_size=3))
    closed = _closed_under_products(g, elems)
    expected = closed and (gens is None or _closure(g, gens) == elems)
    try:
        Subgroup(g, elems, gens)
    except ValidationError:
        accepted = False
    else:
        accepted = True
    assert accepted == expected, (name, elems, gens)


# -- generating sets --------------------------------------------------------


def test_spanning_trees_of_bare_tables_and_stabilizers_are_logarithmic():
    for name, g in list(group_catalog()) + [("S4", symmetric(4)), ("A5", alternating(5))]:
        bare = group_from_table(g.mul)
        assert len(bare.spanning_tree()[0]) <= math.log2(g.order), name
        actions = [coset_gset(g, h) for h in subgroup_conjugacy_reps(g)]
        if g.perms is not None:
            actions.append(natural_gset(g))
        for x in actions:
            for p in range(x.size):
                stab, _ = x.stabilizer(p).as_group()
                gens = stab.spanning_tree()[0]
                assert len(gens) <= math.log2(stab.order), name
                assert stab.order == 1 or gens == stab.generators, name
