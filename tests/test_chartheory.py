"""Characters, eigenspace dimensions, the trace map, and pushforwards."""

import random
from fractions import Fraction

import pytest

from stackyrr import chartheory
from stackyrr.chartheory import (
    ClassFunction,
    MatrixRep,
    VirtualEqBundle,
    character_of,
    coset_character,
    devissage_phi,
    devissage_summary,
    eigencomponent_dim,
    induce,
    invariants_dim,
    one_dim_rep,
    permutation_character,
    permutation_rep,
    pushforward_to_point,
    regular_character,
    regular_rep,
    rep_from_generator_images,
    restrict,
    structure_bundle,
    trivial_character,
)
from stackyrr.cyclonum import ONE, ZERO, CyclotomicNumber, root_of_unity
from stackyrr.errors import ConsistencyError, ValidationError
from stackyrr.groupoidstack import (
    InertiaSet,
    coset_gset,
    disjoint_union,
    inertia,
    natural_gset,
    orbits,
    trivial_gset,
)
from stackyrr.exactlinalg import exact_rank
from stackyrr.grouptheory import (
    conjugacy_classes,
    extend_along_generators,
    subgroup_conjugacy_reps,
)
from stackyrr.smallgroups import (
    alternating,
    cyclic,
    dicyclic,
    dihedral,
    group_catalog,
    symmetric,
)


def perm_sign(p):
    s = 1
    for i in range(len(p)):
        for j in range(i + 1, len(p)):
            if p[i] > p[j]:
                s = -s
    return s


def sign_rep(sym_group):
    return one_dim_rep(sym_group, [perm_sign(sym_group.perms[g]) for g in range(sym_group.order)])


def test_character_of_examples():
    s3 = symmetric(3)
    triv = one_dim_rep(s3, [1] * 6)
    assert character_of(triv).values == (ONE, ONE, ONE)

    reg = character_of(regular_rep(s3))
    # classes ordered e, transpositions, 3-cycles
    assert [v.integer_value() for v in reg.values] == [6, 0, 0]

    sgn = character_of(sign_rep(s3))
    assert [v.integer_value() for v in sgn.values] == [1, -1, 1]


def test_matrix_rep_validation():
    z2 = cyclic(2)
    with pytest.raises(ValidationError):
        MatrixRep(z2, 1, (((1,),), ((2,),)))  # 2 is not an involution
    with pytest.raises(ValidationError):
        one_dim_rep(z2, [2, 1])  # identity must go to identity


def test_rep_from_generator_images():
    s3 = symmetric(3)
    zeta = root_of_unity(3)
    images = {}
    for g in s3.generators:
        p = s3.perms[g]
        images[g] = tuple(
            tuple(1 if p[j] == i else 0 for j in range(3)) for i in range(3)
        )
    rep = rep_from_generator_images(s3, images)
    assert character_of(rep).values == permutation_character(natural_gset(s3)).values
    del zeta


def test_eigencomponent_dims():
    z3 = cyclic(3)
    reg = regular_rep(z3)
    for j in range(3):
        assert eigencomponent_dim(reg, 1, root_of_unity(3, j)) == 1
    assert eigencomponent_dim(reg, 0, ONE) == 3
    with pytest.raises(ValidationError):
        eigencomponent_dim(reg, 1, root_of_unity(4))


def test_eigencomponent_completeness_and_trace():
    rng = random.Random(2)
    groups = [symmetric(3), cyclic(4), dihedral(4), alternating(4)]
    for g in groups:
        reps = [regular_rep(g)] if g.order <= 8 else []
        if g.perms:
            reps.append(permutation_rep(natural_gset(g)))
        for rep in reps:
            chi = character_of(rep)
            for h in range(g.order):
                r = g.element_order(h)
                total_dim = 0
                weighted = CyclotomicNumber.from_rational(0)
                for a in range(r):
                    z = root_of_unity(r, a)
                    d = eigencomponent_dim(rep, h, z)
                    total_dim += d
                    weighted = weighted + z * d
                assert total_dim == rep.dim
                assert weighted == chi(h)
    del rng


def test_invariants_dim_examples():
    s3 = symmetric(3)
    assert invariants_dim(trivial_character(s3)) == 1
    z3 = cyclic(3)
    omega = root_of_unity(3)
    nontriv = ClassFunction(z3, (1, omega, omega * omega), True)
    assert invariants_dim(nontriv) == 0
    assert invariants_dim(regular_character(s3)) == 1


def test_genuine_flag_certification():
    z3 = cyclic(3)
    with pytest.raises((ValidationError, ConsistencyError)):
        ClassFunction(z3, (Fraction(1, 2), 0, 0), True)


@pytest.mark.parametrize("values", [(Fraction(1, 2), 0, 0), (-3, 0, 0), (1, 1, 0)],
                         ids=["half", "negative", "non-integral"])
def test_a_hand_built_character_is_still_certified(values):
    with pytest.raises(ValidationError, match="flagged genuine but invariants dimension"):
        ClassFunction(cyclic(3), values, True)


def test_characters_built_from_characters_are_not_recertified(monkeypatch):
    s3 = symmetric(3)
    nat = natural_gset(s3)
    sub = nat.stabilizer(0)
    chi, triv = permutation_character(nat), trivial_character(s3)
    calls = []
    real = chartheory.invariants_dim
    monkeypatch.setattr(chartheory, "invariants_dim", lambda c: calls.append(c) or real(c))
    results = [chi + triv, chi * triv, 2 * chi, chi - triv, restrict(s3, sub, chi),
               induce(s3, sub, restrict(s3, sub, chi)),
               induce(s3, sub, trivial_character(sub.as_group()[0]), scaled=True)]
    assert len(calls) == 1  # the trivial character of the subgroup, built by hand
    assert [r.genuine for r in results] == [True, True, True, False, True, True, True]
    for r in results:
        assert all(isinstance(v, CyclotomicNumber) for v in r.values)
        assert len(r.values) == conjugacy_classes(r.group).count
        dim = real(r)  # still a non-negative integer when flagged
        assert not r.genuine or (dim.is_rational and dim.rational_value().denominator == 1)


def test_devissage_phi_structure_sheaf():
    s3 = symmetric(3)
    for base in (natural_gset(s3), trivial_gset(s3, 2)):
        phi = devissage_phi(structure_bundle(base))
        assert all(v == 1 for v in phi.values)


def test_devissage_phi_sign_on_pt_z2():
    z2 = cyclic(2)
    pt = trivial_gset(z2, 1)
    stab_group, _ = pt.stabilizer(0).as_group()
    sign = ClassFunction(stab_group, (1, -1), True)
    phi = devissage_phi(VirtualEqBundle(pt, (sign,)))
    pairs = phi.inertia_set.pairs
    assert pairs == ((0, 0), (0, 1))
    assert phi.value_at_pair((0, 0)) == 1
    assert phi.value_at_pair((0, 1)) == -1


def test_devissage_phi_sign_on_s3_natural():
    nat = natural_gset(symmetric(3))
    rep = orbits(nat).representatives[0]
    stab_group, _ = nat.stabilizer(rep).as_group()
    sign = ClassFunction(stab_group, (1, -1), True)
    phi = devissage_phi(VirtualEqBundle(nat, (sign,)))
    # two inertia orbits: identity section and the transposition section
    iner = phi.inertia_set
    for pair in iner.pairs:
        expect = 1 if pair[1] == 0 else -1
        assert phi.value_at_pair(pair) == expect


def test_devissage_phi_multiplicative():
    bases = [natural_gset(symmetric(3)), natural_gset(alternating(4)),
             trivial_gset(alternating(4), 1)]
    for base in bases:
        rep = orbits(base).representatives[0]
        stab_group, _ = base.stabilizer(rep).as_group()
        chars = [
            trivial_character(stab_group),
            regular_character(stab_group),
            character_of(regular_rep(stab_group)),
        ]
        for sub in subgroup_conjugacy_reps(stab_group)[:3]:
            chars.append(coset_character(stab_group, sub))
        for a in chars:
            for b in chars:
                va = VirtualEqBundle(base, (a,))
                vb = VirtualEqBundle(base, (b,))
                left = devissage_phi(va.tensor(vb))
                iner = left.inertia_set
                right_a = devissage_phi(va, iner)
                right_b = devissage_phi(vb, iner)
                assert left.values == (right_a * right_b).values


def test_devissage_matrix_examples():
    z2 = cyclic(2)
    free = natural_gset(z2)
    summary = devissage_summary(free)
    assert summary["matrix"] == [[ONE]]
    assert summary["invertible"]

    pt = trivial_gset(z2, 1)
    summary = devissage_summary(pt)
    assert summary["square"] and summary["rank"] == 2

    nat = natural_gset(symmetric(3))
    summary = devissage_summary(nat)
    assert summary["square"] and summary["rank"] == 2 and summary["source_dim"] == 2


def _phi_matrix_in_basis(base, bundles):
    # columns = trace of each bundle, rows = inertia orbits
    iner = inertia(base)
    cols = [devissage_phi(b, iner) for b in bundles]
    return [[col.values[i] for col in cols] for i in range(orbits(iner).count)]


def test_devissage_matrix_in_character_basis():
    from stackyrr.exactlinalg import exact_rank

    # on [pt/Z2] the basis {trivial, sign} gives the classical 2x2 matrix
    z2 = cyclic(2)
    pt = trivial_gset(z2, 1)
    stab, _ = pt.stabilizer(0).as_group()
    triv = trivial_character(stab)
    sign = ClassFunction(stab, (1, -1), True)
    matrix = _phi_matrix_in_basis(pt, [VirtualEqBundle(pt, (c,)) for c in (triv, sign)])
    assert matrix == [[ONE, ONE], [ONE, -ONE]]
    assert exact_rank(matrix) == 2

    # any character basis (coset characters span after a triangular change)
    # keeps the matrix square; full rank certifies the delta-basis result
    # was not an artifact of the basis choice where the span allows it
    for g in (symmetric(3), dihedral(4)):
        base = natural_gset(g)
        rep = orbits(base).representatives[0]
        stab, _ = base.stabilizer(rep).as_group()
        chars = [trivial_character(stab), regular_character(stab)]
        matrix = _phi_matrix_in_basis(
            base, [VirtualEqBundle(base, (c,)) for c in chars]
        )
        assert len(matrix) == len(matrix[0]) == exact_rank(matrix)


def test_devissage_square_full_rank_grid():
    for g in (symmetric(3), dihedral(4), dicyclic(2), alternating(4)):
        for sub in subgroup_conjugacy_reps(g):
            if g.order // sub.order > 8:
                continue
            base = coset_gset(g, sub)
            summary = devissage_summary(base)
            assert summary["invertible"], (g, sub.elements)
            assert summary["source_dim"] == summary["inertia_orbits"]


def _indicator_bundles(base):
    """One bundle per (orbit, stabilizer class): its class indicator, zero elsewhere."""
    groups = [base.stabilizer(r).as_group()[0] for r in orbits(base).representatives]
    counts = [conjugacy_classes(sg).count for sg in groups]
    for o, count in enumerate(counts):
        for c in range(count):
            yield VirtualEqBundle(base, tuple(
                ClassFunction(sg, tuple(int(oo == o and j == c) for j in range(k)))
                for oo, (sg, k) in enumerate(zip(groups, counts))
            ))


def test_devissage_matrix_is_the_trace_of_the_indicator_bundles():
    # direct cell placement against devissage_phi of each basis bundle
    for g in (symmetric(3), dihedral(4), dicyclic(2), alternating(4)):
        for sub in subgroup_conjugacy_reps(g):
            if g.order // sub.order > 8:
                continue
            base = disjoint_union(coset_gset(g, sub), trivial_gset(g, 1))
            expected = _phi_matrix_in_basis(base, list(_indicator_bundles(base)))
            assert devissage_summary(base)["matrix"] == expected, (g, sub.elements)


def test_trace_map_rejects_an_orbit_spanning_two_cells():
    # the generator swaps (0, e) and (0, s): one orbit, two classes of Stab(0)
    z2 = cyclic(2)
    pt = trivial_gset(z2, 1)
    fake = InertiaSet(pt, [[1, 0]], ((0, 0), (0, 1)))
    with pytest.raises(ConsistencyError, match="not constant on an inertia orbit"):
        devissage_phi(structure_bundle(pt), fake)


def test_pushforward_examples():
    s3 = symmetric(3)
    nat = natural_gset(s3)
    assert pushforward_to_point(structure_bundle(nat)) == 1
    assert pushforward_to_point(structure_bundle(trivial_gset(s3, 2))) == 2

    z2 = cyclic(2)
    pt = trivial_gset(z2, 1)
    stab_group, _ = pt.stabilizer(0).as_group()
    sign = ClassFunction(stab_group, (1, -1), True)
    assert pushforward_to_point(VirtualEqBundle(pt, (sign,))) == 0

    rep = orbits(nat).representatives[0]
    sg, _ = nat.stabilizer(rep).as_group()
    assert pushforward_to_point(VirtualEqBundle(nat, (regular_character(sg),))) == 1


def test_pushforward_randomized_genuine():
    rng = random.Random(77)
    groups = [symmetric(3), dihedral(4), alternating(4), cyclic(6)]
    for g in groups:
        subs = subgroup_conjugacy_reps(g)
        bases = [coset_gset(g, s) for s in subs if g.order // s.order <= 6]
        bases.append(disjoint_union(bases[0], bases[-1]))
        for base in bases:
            for _ in range(3):
                chars = []
                for rep in orbits(base).representatives:
                    sg, _ = base.stabilizer(rep).as_group()
                    chi = trivial_character(sg) * rng.randint(0, 2)
                    for sub2 in subgroup_conjugacy_reps(sg):
                        if rng.random() < 0.4:
                            chi = chi + coset_character(sg, sub2)
                    chars.append(chi)
                bundle = VirtualEqBundle(base, tuple(chars))
                val = pushforward_to_point(bundle)
                assert val.is_rational and val.rational_value().denominator == 1
                assert val.rational_value() >= 0


def test_induce_restrict():
    s3 = symmetric(3)
    nat = natural_gset(s3)
    sub = nat.stabilizer(0)
    sg, _ = sub.as_group()

    ind = induce(s3, sub, trivial_character(sg))
    assert ind.values == permutation_character(nat).values

    table = conjugacy_classes(s3)
    full = subgroup_conjugacy_reps(s3)[-1]
    assert full.order == 6
    chi = permutation_character(nat)
    same = induce(s3, full, restrict(s3, full, chi))
    assert same.values == chi.values

    # dimension bookkeeping: ind(res(chi))(e) = [G:H] * chi(e)
    down = restrict(s3, sub, chi)
    up = induce(s3, sub, down)
    assert up(0) == 3 * chi(0)

    scaled = induce(s3, sub, trivial_character(sg), scaled=True)
    assert scaled.values == tuple(3 * v for v in ind.values)


def test_restrict_to_trivial_subgroup():
    s3 = symmetric(3)
    chi = permutation_character(natural_gset(s3))
    triv = subgroup_conjugacy_reps(s3)[0]
    assert triv.order == 1
    res = restrict(s3, triv, chi)
    assert res.values == (chi(0),)


def test_restrict_fusion_to_z3():
    s3 = symmetric(3)
    from stackyrr.grouptheory import subgroup

    g3 = next(g for g in range(6) if s3.element_order(g) == 3)
    sub = subgroup(s3, [0, g3, s3.mul[g3][g3]])
    res = restrict(s3, sub, permutation_character(natural_gset(s3)))
    assert [v.integer_value() for v in res.values] == [3, 0, 0]


def test_pushforward_of_cyclotomic_line_characters():
    # on [pt/Z4] the four line characters a -> i^(j*a) push forward to
    # 1 exactly when j = 0
    z4 = cyclic(4)
    pt = trivial_gset(z4, 1)
    stab, _ = pt.stabilizer(0).as_group()
    i = root_of_unity(4)
    for j in range(4):
        chi = ClassFunction(stab, tuple(i ** (j * a) for a in range(4)), True)
        assert pushforward_to_point(VirtualEqBundle(pt, (chi,))) == (1 if j == 0 else 0)


def test_induce_cyclotomic_character_from_z3():
    # inducing a primitive character of the rotation subgroup of S3 gives
    # the 2-dimensional irreducible: values (2, 0, -1)
    from stackyrr.grouptheory import subgroup

    s3 = symmetric(3)
    g3 = next(g for g in range(6) if s3.element_order(g) == 3)
    sub = subgroup(s3, [0, g3, s3.mul[g3][g3]])
    sg, elems = sub.as_group()
    omega = root_of_unity(3)
    chi = ClassFunction(sg, tuple(omega**a for a in range(3)), True)
    ind = induce(s3, sub, chi)
    table = conjugacy_classes(s3)
    expected = {1: 2, 2: 0, 3: -1}  # keyed by element order of the class rep
    for rep, value in zip(table.representatives, ind.values):
        assert value == expected[s3.element_order(rep)]
    assert invariants_dim(ind) == 0


def test_frobenius_reciprocity_invariants():
    rng = random.Random(11)
    for g in (symmetric(3), dihedral(4), alternating(4)):
        for sub in subgroup_conjugacy_reps(g):
            sg, _ = sub.as_group()
            for _ in range(2):
                vals = tuple(
                    rng.randint(-2, 3) for _ in range(conjugacy_classes(sg).count)
                )
                chi = ClassFunction(sg, vals)
                assert invariants_dim(induce(g, sub, chi)) == invariants_dim(chi)


def test_rep_corrupted_at_a_non_generator_is_rejected():
    s3 = symmetric(3)
    gens = set(s3.spanning_tree()[0])
    mats = list(regular_rep(s3).matrices)
    a = next(a for a in range(1, 6) if a not in gens)
    b = next(b for b in range(1, 6) if b != a)
    mats[a] = mats[b]
    with pytest.raises(ValidationError, match="multiplication"):
        MatrixRep(s3, 6, tuple(mats))


@pytest.mark.parametrize("images, message", [
    ({}, "at least one generator"),
    ({99: [[1]]}, "not an element"),
    ({1: [[1, 0]], 2: [[1, 0]]}, "wrong shape"),
], ids=["empty", "key-out-of-range", "not-square"])
def test_malformed_generator_images_are_validation_errors(images, message):
    with pytest.raises(ValidationError, match=message):
        rep_from_generator_images(symmetric(3), images)


def test_eigencomponent_dim_rejects_an_element_out_of_range():
    with pytest.raises(ValidationError, match="not an element"):
        eigencomponent_dim(regular_rep(cyclic(3)), 3, ONE)


def test_eigencomponent_dim_takes_a_rational_root():
    reg = regular_rep(cyclic(2))
    assert eigencomponent_dim(reg, 1, 1) == 1
    assert eigencomponent_dim(reg, 1, Fraction(-1)) == 1
    assert eigencomponent_dim(reg, 0, 1) == 2


@pytest.mark.parametrize("build", [
    lambda: MatrixRep(cyclic(1), 1, ((("1",),),)),
    lambda: ClassFunction(cyclic(2), (True, 1)),
    lambda: trivial_character(cyclic(2)) * True,
    lambda: one_dim_rep(cyclic(2), [1, -1.0]),
    lambda: eigencomponent_dim(regular_rep(cyclic(2)), 1, True),
], ids=["str-matrix-entry", "bool-class-value", "bool-multiplier", "float-one-dim-value",
       "bool-root"])
def test_entries_are_never_coerced(build):
    with pytest.raises(ValidationError, match="is not an int, a Fraction or a cyclotomic"):
        build()


# -- dense references: MatrixRep's product and check before sparse rows -------


def _dense_identity(d):
    return tuple(tuple(ONE if i == j else ZERO for j in range(d)) for i in range(d))


def _dense_mat_mul(a, b):
    d = len(a)
    out = []
    for i in range(d):
        row = []
        for j in range(d):
            acc = ZERO
            for k in range(d):
                if a[i][k] and b[k][j]:
                    acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def _dense_is_rep(group, mats):
    """M(1) = I and M(a s) = M(a) M(s) for every a and spanning-tree generator s."""
    return mats[0] == _dense_identity(len(mats[0])) and all(
        _dense_mat_mul(mats[a], mats[s]) == mats[group.mul[a][s]]
        for s in group.spanning_tree()[0] for a in range(group.order)
    )


def _dense_permutation_matrices(group, size, image):
    """Per element g, the matrix sending e_x to e_image(g, x)."""
    return tuple(
        tuple(tuple(ONE if image(g, x) == i else ZERO for x in range(size))
              for i in range(size))
        for g in range(group.order)
    )


def _dense_eigen_dims(mats, h, r):
    """Rank of (1/r) sum_a zeta^(-a) M(h)^a for each r-th root zeta_r^k."""
    powers = [_dense_identity(len(mats[h]))]
    for _ in range(1, r):
        powers.append(_dense_mat_mul(powers[-1], mats[h]))
    dims = []
    for k in range(r):
        zeta_inv = root_of_unity(r, k).inverse()
        acc, scalar = powers[0], ONE
        for power in powers[1:]:
            scalar = scalar * zeta_inv
            acc = tuple(tuple(x + scalar * y for x, y in zip(ra, rb))
                        for ra, rb in zip(acc, power))
        dims.append(exact_rank([[v * Fraction(1, r) for v in row] for row in acc]))
    return dims


def _accepted(group, mats):
    try:
        MatrixRep(group, len(mats[0]), mats)
    except ValidationError:
        return False
    return True


def _check_against_dense(rep, mats):
    """Compare rep with the dense reference; return the corrupted copies' outcomes."""
    group = rep.group
    assert rep.matrices == mats and _dense_is_rep(group, mats) and _accepted(group, mats)
    traces = tuple(sum((mats[r][i][i] for i in range(rep.dim)), ZERO)
                   for r in conjugacy_classes(group).representatives)
    assert character_of(rep).values == traces
    for h in range(group.order):
        r = group.element_order(h)
        dims = [eigencomponent_dim(rep, h, root_of_unity(r, k)) for k in range(r)]
        assert dims == _dense_eigen_dims(mats, h, r), h
    outcomes = set()
    gens = group.spanning_tree()[0]
    for a in range(1, group.order):
        if a in gens:
            continue
        negated = tuple(tuple(-v for v in row) for row in mats[a])
        for corrupt in (mats[0], negated):
            bad = mats[:a] + (corrupt,) + mats[a + 1:]
            outcome = _accepted(group, bad)
            assert outcome == _dense_is_rep(group, bad), a
            outcomes.add(outcome)
    return outcomes


def test_sparse_reps_match_the_dense_reference():
    outcomes = set()
    for _, g in group_catalog(8):
        cases = [(regular_rep(g),
                  _dense_permutation_matrices(g, g.order, lambda s, x: g.mul[s][x]))]
        for sub in subgroup_conjugacy_reps(g):
            base = coset_gset(g, sub)
            cases.append((permutation_rep(base), _dense_permutation_matrices(
                g, base.size, lambda s, x, base=base: base.act[x][s])))
        for rep, mats in cases:
            outcomes |= _check_against_dense(rep, mats)
    assert outcomes == {True, False}


@pytest.mark.parametrize("basis, coords, values", [
    # the standard representation, on the sum-zero plane
    (((1, -1, 0), (0, 1, -1)), lambda w: (w[0], -w[2]), [2, 0, -1]),
    # the natural one, in the basis e2, e1, e0 + e2
    (((0, 0, 1), (0, 1, 0), (1, 0, 1)), lambda w: (w[2] - w[0], w[1], w[0]), [3, 1, 0]),
], ids=["standard", "natural"])
def test_non_monomial_reps_of_s3_match_the_dense_reference(basis, coords, values):
    s3 = symmetric(3)
    images = {}
    for g in s3.generators:
        p = s3.perms[g]
        moved = [coords([v[p.index(i)] for i in range(3)]) for v in basis]
        images[g] = tuple(tuple(CyclotomicNumber.from_rational(c) for c in row)
                          for row in zip(*moved))
    rep = rep_from_generator_images(s3, images)
    assert any(len(row) > 1 for m in rep.rows for row in m)
    mats = tuple(extend_along_generators(s3, images, _dense_identity(len(basis)),
                                         _dense_mat_mul, ""))
    assert _check_against_dense(rep, mats) == {False}
    assert [v.integer_value() for v in character_of(rep).values] == values
