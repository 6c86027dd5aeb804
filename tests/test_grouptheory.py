"""Group kernel: construction, conjugacy, centralizers, commuting tuples."""

import pytest

from stackyrr import limits
from stackyrr.errors import ResourceLimitError, ValidationError
from stackyrr.grouptheory import (
    Subgroup,
    all_subgroups,
    centralizer,
    commuting_prefixes,
    conjugacy_classes,
    count_commuting_tuples,
    direct_product,
    group_from_permutations,
    group_from_table,
    subgroup,
    subgroup_conjugacy_reps,
    trivial_group,
)
from stackyrr.smallgroups import (
    abelian,
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    group_catalog,
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


def test_commuting_prefixes_walk_every_tuple_in_order():
    from itertools import product

    for g in (symmetric(4), dihedral(4), dicyclic(2)):
        for sub in subgroup_conjugacy_reps(g):
            elems = sub.elements
            for m in range(1, 4):
                walked = [
                    prefix + (h,)
                    for prefix, last in commuting_prefixes(g, elems, m)
                    for h in last
                ]
                brute = [
                    t for t in product(elems, repeat=m)
                    if all(g.mul[a][b] == g.mul[b][a] for a in t for b in t)
                ]
                assert walked == brute
    with pytest.raises(ValidationError):
        next(commuting_prefixes(cyclic(2), (0, 1), 0))


def test_commuting_tuple_brute_cap():
    with limits.using(tuples=10**6), pytest.raises(ResourceLimitError, match=r"Limits\.tuples"):
        count_commuting_tuples(symmetric(4), 9, "brute")


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
