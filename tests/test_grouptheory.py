"""Group kernel: construction, conjugacy, centralizers, commuting tuples."""

import math
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
    Subgroup,
    all_subgroups,
    centralizer,
    commuting_masks,
    conjugacy_classes,
    count_commuting_tuples,
    direct_product,
    group_from_permutations,
    group_from_table,
    subgroup,
    subgroup_conjugacy_reps,
    trivial_group,
)
from stackyrr.groupoidstack import coset_gset, natural_gset
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


def test_conjugacy_classes_examples():
    assert conjugacy_classes(trivial_group()).count == 1
    s3 = symmetric(3)
    t = conjugacy_classes(s3)
    assert sorted(t.class_sizes) == [1, 2, 3]
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
        assert sum(t.class_sizes) == g.order
        for s, z in zip(t.class_sizes, t.centralizer_orders):
            assert s * z == g.order
            assert g.order % s == 0
        assert sorted(x for c in t.classes for x in c) == list(range(g.order))
        assert t.representatives == tuple(c[0] for c in t.classes)


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


def test_commuting_masks_walk_every_tuple_in_order():
    def commute(t):
        return all(g.mul[a][b] == g.mul[b][a] for a in t for b in t)

    for g in (symmetric(4), dihedral(4), dicyclic(2)):
        for sub in subgroup_conjugacy_reps(g):
            elems = sub.elements
            mask = sum(1 << h for h in elems)
            for m in range(1, 4):
                walked = list(commuting_masks(g, mask, m))
                brute = [
                    sum(1 << h for h in elems if commute(prefix + (h,)))
                    for prefix in product(elems, repeat=m - 1)
                    if commute(prefix)
                ]
                assert walked == brute
    with pytest.raises(ValidationError):
        next(commuting_masks(cyclic(2), 0b11, 0))


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


_INDEPENDENCE_GROUPS = [("S4", symmetric(4)), ("D4", dihedral(4)), ("Q8", dicyclic(2))]


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not read this")


def _refuse_commute_masks(monkeypatch):
    monkeypatch.setattr(FiniteGroup, "commute_masks", _refuse)
    monkeypatch.setattr(grouptheory, "commuting_masks", _refuse)


def test_brute_count_reads_only_the_table(monkeypatch):
    groups = _INDEPENDENCE_GROUPS
    expected = {(name, m): count_commuting_tuples(g, m) for name, g in groups for m in range(4)}
    s6 = symmetric(6)
    _refuse_commute_masks(monkeypatch)
    monkeypatch.setattr(FiniteGroup, "conj_table", _refuse)
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


def test_lattice_subgroups_carry_generators_that_close_to_them():
    for name, g in _lattice_groups():
        for h in all_subgroups(g):
            assert _closure(g, h.generators) == h.elements, name
            assert 2 ** len(h.generators) <= h.order


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
