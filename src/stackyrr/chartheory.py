"""Class functions, matrix representations, and the trace map to inertia.

The K-theory of a finite quotient [X/H] at this scale is a sum of
representation rings, one per orbit: a "bundle" assigns to each orbit a
virtual character of the stabilizer of its representative.  The dévissage
map phi turns such a bundle into an H-invariant function on the fixed-point
pairs (x, h), by transporting the local character to Stab(x) and evaluating
at h.  Pushing forward to the point then has two faces that must agree
exactly: invariant dimensions on the source side, averaged character values
on the inertia side.  `pushforward_to_point` computes both and refuses to
return if they differ.

Characters are stored as values on conjugacy classes with coefficients in
the cyclotomic numbers; no irreducible decompositions are ever needed, and
the basis used for rank computations is the indicator basis on classes.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .cyclonum import ONE, ZERO, CyclotomicNumber
from .errors import ConsistencyError, ValidationError, agree
from .exactlinalg import exact_rank
from .groupoidstack import FiniteGSet, InertiaSet, inertia, orbits
from .grouptheory import (
    FiniteGroup,
    Subgroup,
    conjugacy_classes,
    extend_along_generators,
)


def _as_cyclo(v) -> CyclotomicNumber:
    """A cyclotomic, a Fraction or an int (not a bool) as a cyclotomic number."""
    if isinstance(v, CyclotomicNumber):
        return v
    if type(v) is int or isinstance(v, Fraction):
        return CyclotomicNumber.from_rational(v)
    raise ValidationError(f"entry {v!r} is not an int, a Fraction or a cyclotomic number")


class ClassFunction:
    """A function on conjugacy classes, flagged when known to be a character.

    ``values[i]`` is the value on class i of ``conjugacy_classes(group)``.
    With ``genuine=True`` the constructor certifies at least that the
    invariants dimension is a non-negative integer.  Sums, products,
    restrictions and inductions of characters are characters by
    construction and are built by `_from_values`, without that check.
    """

    __slots__ = ("group", "values", "genuine")

    def __init__(self, group: FiniteGroup, values: tuple, genuine: bool = False):
        table = conjugacy_classes(group)
        if len(values) != table.count:
            raise ValidationError(f"expected {table.count} class values, got {len(values)}")
        self.group, self.values, self.genuine = group, tuple(map(_as_cyclo, values)), False
        if genuine:
            dim = invariants_dim(self)
            if not dim.is_rational or dim.rational_value().denominator != 1 \
                    or dim.rational_value() < 0:
                raise ValidationError(
                    f"flagged genuine but invariants dimension is {dim!r}"
                )
            self.genuine = True

    @classmethod
    def _from_values(cls, group: FiniteGroup, values: tuple, genuine: bool) -> "ClassFunction":
        """One cyclotomic value per class of ``group``, taken unchecked."""
        chi = cls.__new__(cls)
        chi.group, chi.values, chi.genuine = group, values, genuine
        return chi

    def __call__(self, element: int) -> CyclotomicNumber:
        table = conjugacy_classes(self.group)
        return self.values[table.class_of[element]]

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        return self._pointwise(operator.add, other, self.genuine and other.genuine)

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        return self._pointwise(operator.sub, other, False)

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            return self._pointwise(operator.mul, other, self.genuine and other.genuine)
        scalar = _as_cyclo(other)
        return ClassFunction._from_values(
            self.group, tuple(v * scalar for v in self.values),
            self.genuine and isinstance(other, int) and other >= 0,
        )

    __rmul__ = __mul__

    def _pointwise(self, op, other: "ClassFunction", genuine: bool) -> "ClassFunction":
        if other.group is not self.group:
            raise ValidationError("class functions live on different groups")
        return ClassFunction._from_values(self.group, tuple(map(op, self.values, other.values)),
                                          genuine)


def trivial_character(group: FiniteGroup) -> ClassFunction:
    return ClassFunction(group, (ONE,) * conjugacy_classes(group).count, True)


def regular_character(group: FiniteGroup) -> ClassFunction:
    vals = [_as_cyclo(group.order)] + [ZERO] * (conjugacy_classes(group).count - 1)
    return ClassFunction(group, tuple(vals), True)


def permutation_character(gset: FiniteGSet) -> ClassFunction:
    """g -> number of fixed points of g; the character of the point module."""
    table = conjugacy_classes(gset.group)
    vals = []
    for rep in table.representatives:
        fixed = sum(1 for x in range(gset.size) if gset.act[x][rep] == x)
        vals.append(_as_cyclo(fixed))
    return ClassFunction(gset.group, tuple(vals), True)


def coset_character(group: FiniteGroup, sub: Subgroup) -> ClassFunction:
    """Character of the coset module; equals inducing the trivial character."""
    from .groupoidstack import coset_gset

    return permutation_character(coset_gset(group, sub))


# -- matrix representations -------------------------------------------------


class MatrixRep:
    """Explicit matrices over the cyclotomics, validated to be a homomorphism.

    Each matrix is held as sparse rows: ``rows[g][i]`` lists the nonzero
    entries of row i of the matrix of g as (column, value) pairs in column
    order.  ``matrices`` is the dense tuple-of-tuples view, built on first
    use.  The check is M(1) = I and M(a s) = M(a) M(s) for every element a
    and every generator s of the group's spanning tree: O(|G| * #gens)
    products, each over nonzero entries only.
    """

    __slots__ = ("group", "dim", "rows", "_dense")

    def __init__(self, group: FiniteGroup, dim: int, matrices):
        """From dense matrices, one dim x dim tuple-of-tuples per group element."""
        if len(matrices) != group.order:
            raise ValidationError(f"need {group.order} matrices, got {len(matrices)}")
        self._set_rows(group, dim, tuple(_sparse(m, dim) for m in matrices))

    @classmethod
    def _from_rows(cls, group: FiniteGroup, dim: int, rows: tuple) -> "MatrixRep":
        rep = cls.__new__(cls)
        rep._set_rows(group, dim, rows)
        return rep

    def _set_rows(self, group, dim, rows):
        """Hold ``rows`` once they pass the check in the class docstring."""
        self.group, self.dim, self.rows, self._dense = group, dim, rows, None
        if rows[0] != _identity(dim):
            raise ValidationError("identity element must map to the identity matrix")
        # on generators only: see FiniteGroup.spanning_tree
        mul = group.mul
        for s in group.spanning_tree()[0]:
            for a in range(group.order):
                if _mat_mul(rows[a], rows[s]) != rows[mul[a][s]]:
                    raise ValidationError(
                        f"matrices do not respect multiplication at pair ({a}, {s})"
                    )

    @property
    def matrices(self) -> tuple:
        """One dense dim x dim tuple-of-tuples per group element."""
        if self._dense is None:
            self._dense = tuple(
                tuple(tuple(dict(row).get(j, ZERO) for j in range(self.dim)) for row in m)
                for m in self.rows
            )
        return self._dense

    def matrix(self, g: int):
        return self.matrices[g]


def _sparse(m, dim: int) -> tuple:
    """Sparse rows of a dense dim x dim matrix."""
    if len(m) != dim or any(len(row) != dim for row in m):
        raise ValidationError("matrix of wrong shape")
    return tuple(
        tuple((j, v) for j, v in enumerate(map(_as_cyclo, row)) if v) for row in m
    )


def _identity(d):
    return tuple(((i, ONE),) for i in range(d))


def _mat_mul(a, b):
    """Product of two matrices in sparse rows, over nonzero entries only."""
    out = []
    for row in a:
        acc = {}
        for k, x in row:
            for j, y in b[k]:
                acc[j] = acc[j] + x * y if j in acc else x * y
        out.append(tuple((j, v) for j, v in sorted(acc.items()) if v))
    return tuple(out)


def regular_rep(group: FiniteGroup) -> MatrixRep:
    """Permutation matrices of left translation on the group itself."""
    mul, inv = group.mul, group.inv
    rows = tuple(
        tuple(((mul[inv[g]][i], ONE),) for i in range(group.order))
        for g in range(group.order)
    )
    return MatrixRep._from_rows(group, group.order, rows)


def permutation_rep(gset: FiniteGSet) -> MatrixRep:
    """Permutation matrices of a G-set (matrix of g sends e_x to e_{g.x})."""
    inv = gset.group.inv
    rows = tuple(
        tuple(((gset.act[i][inv[g]], ONE),) for i in range(gset.size))
        for g in range(gset.group.order)
    )
    return MatrixRep._from_rows(gset.group, gset.size, rows)


def one_dim_rep(group: FiniteGroup, values) -> MatrixRep:
    """A 1-dimensional representation from per-element scalar values."""
    return MatrixRep(group, 1, tuple(((v,),) for v in values))


def rep_from_generator_images(group: FiniteGroup, images: dict) -> MatrixRep:
    """Extend matrices given on a generating set to the whole group."""
    if not images:
        raise ValidationError("need the image of at least one generator")
    dim = len(next(iter(images.values())))
    sparse = {}
    for g, m in images.items():
        if type(g) is not int or not 0 <= g < group.order:
            raise ValidationError(f"image key {g!r} is not an element of the group")
        sparse[g] = _sparse(m, dim)
    rows = extend_along_generators(
        group, sparse, _identity(dim), _mat_mul,
        "images do not cover a generating set",
    )
    return MatrixRep._from_rows(group, dim, tuple(rows))


def character_of(rep: MatrixRep) -> ClassFunction:
    """Trace at each class representative; genuine by construction."""
    vals = tuple(
        sum((v for i, row in enumerate(rep.rows[r]) for j, v in row if j == i), ZERO)
        for r in conjugacy_classes(rep.group).representatives
    )
    return ClassFunction(rep.group, vals, True)


def eigencomponent_dim(rep: MatrixRep, h: int, zeta: CyclotomicNumber) -> int:
    """dim of the zeta-eigenspace of rep(h), via the averaging projector.

    ``zeta`` must satisfy zeta^r = 1 for r the order of h.  The projector
    (1/r) sum_a zeta^(-a) rep(h)^a onto the zeta-eigenspace is assembled
    exactly and its rank certified by exact elimination.
    """
    if type(h) is not int or not 0 <= h < rep.group.order:
        raise ValidationError(f"{h!r} is not an element of the group")
    zeta = _as_cyclo(zeta)
    r = rep.group.element_order(h)
    if zeta**r != 1:
        raise ValidationError(f"{zeta!r} is not an {r}-th root of unity")
    zeta_inv = zeta.inverse()
    proj = [[ZERO] * rep.dim for _ in range(rep.dim)]
    power = _identity(rep.dim)  # rep(h)^a
    scalar = _as_cyclo(Fraction(1, r))  # zeta^(-a) / r
    for _ in range(r):
        for out, row in zip(proj, power):
            for j, v in row:
                out[j] = out[j] + scalar * v
        power = _mat_mul(power, rep.rows[h])
        scalar = scalar * zeta_inv
    return exact_rank(proj)


# -- bundles and the trace map ----------------------------------------------


class VirtualEqBundle:
    """One virtual character per orbit, on the stabilizer of its representative."""

    __slots__ = ("base", "orbit_characters")

    def __init__(self, base: FiniteGSet, orbit_characters: tuple[ClassFunction, ...]):
        dec = orbits(base)
        if len(orbit_characters) != dec.count:
            raise ValidationError(
                f"need one character per orbit ({dec.count}), got {len(orbit_characters)}"
            )
        self.base, self.orbit_characters = base, orbit_characters
        for i, rep in enumerate(dec.representatives):
            stab_group, _ = base.stabilizer(rep).as_group()
            chi = orbit_characters[i]
            if chi.group is not stab_group and chi.group.mul != stab_group.mul:
                raise ValidationError(
                    f"character {i} lives on the wrong group for orbit {i}"
                )

    def tensor(self, other: "VirtualEqBundle") -> "VirtualEqBundle":
        if other.base is not self.base:
            raise ValidationError("tensor needs bundles over the same base")
        return VirtualEqBundle(
            self.base,
            tuple(a * b for a, b in zip(self.orbit_characters, other.orbit_characters)),
        )


def structure_bundle(base: FiniteGSet) -> VirtualEqBundle:
    """The unit: trivial character on every orbit."""
    chars = []
    for rep in orbits(base).representatives:
        stab_group, _ = base.stabilizer(rep).as_group()
        chars.append(trivial_character(stab_group))
    return VirtualEqBundle(base, tuple(chars))


class InertiaFunction:
    """An H-invariant cyclotomic function on the fixed-point pairs, one value per orbit."""

    __slots__ = ("inertia_set", "values")

    def __init__(self, inertia_set: InertiaSet, values: tuple[CyclotomicNumber, ...]):
        if len(values) != orbits(inertia_set).count:
            raise ValidationError("need one value per inertia orbit")
        self.inertia_set, self.values = inertia_set, values

    def value_at_pair(self, pair) -> CyclotomicNumber:
        dec = orbits(self.inertia_set)
        return self.values[dec.orbit_of[self.inertia_set.label_index[pair]]]

    def __mul__(self, other: "InertiaFunction") -> "InertiaFunction":
        if other.inertia_set is not self.inertia_set:
            raise ValidationError("functions live on different inertia sets")
        return InertiaFunction(
            self.inertia_set,
            tuple(a * b for a, b in zip(self.values, other.values)),
        )


def _trace_cells(iner: InertiaSet) -> tuple[list[tuple[int, int]], list[int]]:
    """The (base orbit, stabilizer class) cell of each inertia orbit.

    A pair (x, h) with x = g.rep is transported to g^-1 h g in Stab(rep)
    and lands in that element's conjugacy class there.  Every pair of an
    inertia orbit is transported and must land in the same cell, which pins
    down the conjugation bookkeeping.  Also returns the class count of each
    base orbit's stabilizer.
    """
    base = iner.base
    dec = orbits(base)
    mul, inv = base.group.mul, base.group.inv
    stabs = []  # per base orbit: parent element -> class in Stab(rep)
    counts = []
    for rep in dec.representatives:
        stab_group, elems = base.stabilizer(rep).as_group()
        table = conjugacy_classes(stab_group)
        stabs.append({e: table.class_of[i] for i, e in enumerate(elems)})
        counts.append(table.count)
    cells = []
    for orbit in orbits(iner).orbits:
        found = set()
        for i in orbit:
            x, h = iner.pairs[i]
            o = dec.orbit_of[x]
            g = dec.transporter[x]
            moved = mul[mul[inv[g]][h]][g]
            if moved not in stabs[o]:
                raise ConsistencyError(
                    f"transported element {moved} not in stabilizer of orbit {o}"
                )
            found.add((o, stabs[o][moved]))
        if len(found) != 1:
            raise ConsistencyError(
                f"trace map not constant on an inertia orbit: cells {sorted(found)}"
            )
        cells.append(found.pop())
    return cells, counts


def devissage_phi(bundle: VirtualEqBundle, inertia_set: InertiaSet | None = None) -> InertiaFunction:
    """The trace map: bundle -> function on inertia orbits.

    The value at the orbit of (x, h) is the transported character value
    chi_{V_x}(h), read off the orbit's cell (see :func:`_trace_cells`).
    """
    iner = inertia_set if inertia_set is not None else inertia(bundle.base)
    if iner.base is not bundle.base:
        raise ValidationError("inertia set does not belong to the bundle's base")
    cells, _ = _trace_cells(iner)
    return InertiaFunction(iner, tuple(bundle.orbit_characters[o].values[c] for o, c in cells))


def devissage_matrix(base: FiniteGSet):
    """Matrix of the trace map in the indicator bases.

    Columns run over (orbit, stabilizer conjugacy class) pairs in canonical
    order, rows over inertia orbits; entry (i, j) is the value of the trace
    of the j-th indicator bundle on the i-th inertia orbit.  The map is an
    isomorphism at this scale, so the matrix is square of full rank; the
    rank certificate is exact elimination, not numerics.
    """
    cells, counts = _trace_cells(inertia(base))
    matrix = [[ZERO] * sum(counts) for _ in cells]
    for row, (o, c) in zip(matrix, cells):
        row[sum(counts[:o]) + c] = ONE
    return matrix


def devissage_summary(base: FiniteGSet) -> dict:
    """Squareness/rank bookkeeping used by the verification suite and CLI."""
    matrix = devissage_matrix(base)
    iner_orbits = len(matrix)
    source_dim = len(matrix[0]) if matrix else 0
    rank = exact_rank(matrix)
    return {
        "inertia_orbits": iner_orbits,
        "source_dim": source_dim,
        "rank": rank,
        "square": iner_orbits == source_dim,
        "invertible": rank == iner_orbits == source_dim,
        "matrix": matrix,
    }


# -- pushforwards ------------------------------------------------------------


def invariants_dim(chi: ClassFunction) -> CyclotomicNumber:
    """(1/|G|) sum over classes of size * value: the fixed-subspace dimension.

    For a genuine character this is a non-negative integer (and asserted to
    be when the flag is set).
    """
    table = conjugacy_classes(chi.group)
    acc = ZERO
    for size, v in zip(table.class_sizes, chi.values):
        acc = acc + size * v
    result = acc * Fraction(1, chi.group.order)
    if chi.genuine:
        if not result.is_rational or result.rational_value().denominator != 1 \
                or result.rational_value() < 0:
            raise ConsistencyError(
                f"genuine character produced invariants dimension {result!r}"
            )
    return result


def restrict(group: FiniteGroup, sub: Subgroup, chi: ClassFunction) -> ClassFunction:
    """Transport values along the class fusion of a subgroup."""
    if sub.parent is not group or chi.group is not group:
        raise ValidationError("restrict needs a subgroup and character of one group")
    stab_group, elems = sub.as_group()
    table = conjugacy_classes(stab_group)
    vals = tuple(chi(elems[r]) for r in table.representatives)
    return ClassFunction._from_values(stab_group, vals, chi.genuine)


def induce(group: FiniteGroup, sub: Subgroup, chi: ClassFunction,
           scaled: bool = False) -> ClassFunction:
    """Induction of a character from a subgroup.

    (ind chi)(g) = (1/|H|) * sum over x in G with x^-1 g x in H of
    chi(x^-1 g x).  With ``scaled=True`` the result is multiplied by the
    index [G:H]; the plain version is the one satisfying reciprocity with
    :func:`restrict`, the scaled one is the normalization that appears when
    pushforwards are assembled from coset fibers.  Both are exposed.
    """
    if sub.parent is not group:
        raise ValidationError("subgroup belongs to a different group")
    stab_group, elems = sub.as_group()
    if chi.group is not stab_group and chi.group.mul != stab_group.mul:
        raise ValidationError("character does not live on the given subgroup")
    pos = {e: i for i, e in enumerate(elems)}
    table = conjugacy_classes(group)
    mul, inv = group.mul, group.inv
    vals = []
    for rep in table.representatives:
        acc = ZERO
        for x in range(group.order):
            moved = mul[mul[inv[x]][rep]][x]
            if moved in pos:
                acc = acc + chi(pos[moved])
        acc = acc * Fraction(1, sub.order)
        vals.append(acc)
    if scaled:
        index = group.order // sub.order
        vals = [v * index for v in vals]
    return ClassFunction._from_values(group, tuple(vals), chi.genuine)


def pushforward_to_point(bundle: VirtualEqBundle) -> CyclotomicNumber:
    """Euler characteristic of a bundle on [X/H], computed twice.

    Source side: sum over orbits of the invariants dimension of the local
    character.  Inertia side: (1/|H|) * sum over all fixed-point pairs of
    the traced bundle.  The two must agree exactly; disagreement raises
    ConsistencyError rather than returning anything.
    """
    source = ZERO
    for chi in bundle.orbit_characters:
        source = source + invariants_dim(chi)

    iner = inertia(bundle.base)
    phi = devissage_phi(bundle, iner)
    dec = orbits(iner)
    total = ZERO
    for i in range(iner.size):
        total = total + phi.values[dec.orbit_of[i]]
    inertia_side = total * Fraction(1, bundle.base.group.order)

    return agree("pushforward to a point, source and inertia sides", source, inertia_side)
