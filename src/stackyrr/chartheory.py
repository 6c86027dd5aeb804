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

from dataclasses import dataclass
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
    if isinstance(v, CyclotomicNumber):
        return v
    return CyclotomicNumber.from_rational(v)


@dataclass(frozen=True)
class ClassFunction:
    """A function on conjugacy classes, flagged when known to be a character.

    ``values[i]`` is the value on class i of ``conjugacy_classes(group)``.
    With ``genuine=True`` the constructor certifies at least that the
    invariants dimension is a non-negative integer.
    """

    group: FiniteGroup
    values: tuple[CyclotomicNumber, ...]
    genuine: bool = False

    def __post_init__(self):
        table = conjugacy_classes(self.group)
        if len(self.values) != table.count:
            raise ValidationError(
                f"expected {table.count} class values, got {len(self.values)}"
            )
        object.__setattr__(self, "values", tuple(_as_cyclo(v) for v in self.values))
        if self.genuine:
            dim = invariants_dim(ClassFunction(self.group, self.values, False))
            if not dim.is_rational or dim.rational_value().denominator != 1 \
                    or dim.rational_value() < 0:
                raise ValidationError(
                    f"flagged genuine but invariants dimension is {dim!r}"
                )

    def __call__(self, element: int) -> CyclotomicNumber:
        table = conjugacy_classes(self.group)
        return self.values[table.class_of[element]]

    def __add__(self, other: "ClassFunction") -> "ClassFunction":
        self._same_group(other)
        return ClassFunction(
            self.group,
            tuple(a + b for a, b in zip(self.values, other.values)),
            self.genuine and other.genuine,
        )

    def __sub__(self, other: "ClassFunction") -> "ClassFunction":
        self._same_group(other)
        return ClassFunction(
            self.group, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._same_group(other)
            return ClassFunction(
                self.group,
                tuple(a * b for a, b in zip(self.values, other.values)),
                self.genuine and other.genuine,
            )
        return ClassFunction(
            self.group, tuple(v * other for v in self.values),
            self.genuine and isinstance(other, int) and other >= 0,
        )

    __rmul__ = __mul__

    def _same_group(self, other):
        if other.group is not self.group:
            raise ValidationError("class functions live on different groups")


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


@dataclass(frozen=True)
class MatrixRep:
    """Explicit matrices over the cyclotomics, validated to be a homomorphism.

    The check is M(1) = I and M(a s) = M(a) M(s) for every element a and
    every generator s of the group's spanning tree: O(|G| * #gens) products.
    """

    group: FiniteGroup
    dim: int
    matrices: tuple  # one dim x dim tuple-of-tuples per group element

    def __post_init__(self):
        n = self.group.order
        if len(self.matrices) != n:
            raise ValidationError(f"need {n} matrices, got {len(self.matrices)}")
        mats = tuple(
            tuple(tuple(_as_cyclo(v) for v in row) for row in m)
            for m in self.matrices
        )
        object.__setattr__(self, "matrices", mats)
        for m in mats:
            if len(m) != self.dim or any(len(row) != self.dim for row in m):
                raise ValidationError("matrix of wrong shape")
        ident = _identity(self.dim)
        if mats[0] != ident:
            raise ValidationError("identity element must map to the identity matrix")
        # on generators only: see FiniteGroup.spanning_tree
        mul = self.group.mul
        for s in self.group.spanning_tree()[0]:
            for a in range(n):
                if _mat_mul(mats[a], mats[s]) != mats[mul[a][s]]:
                    raise ValidationError(
                        f"matrices do not respect multiplication at pair ({a}, {s})"
                    )

    def matrix(self, g: int):
        return self.matrices[g]


def _identity(d):
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(d)) for i in range(d)
    )


def _mat_mul(a, b):
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


def _mat_scale(m, c):
    return tuple(tuple(c * v for v in row) for row in m)


def _mat_add(a, b):
    return tuple(
        tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b)
    )


def regular_rep(group: FiniteGroup) -> MatrixRep:
    """Permutation matrices of left translation on the group itself."""
    n = group.order
    mats = []
    for g in range(n):
        col = [group.mul[g][x] for x in range(n)]
        mats.append(
            tuple(
                tuple(ONE if col[j] == i else ZERO for j in range(n))
                for i in range(n)
            )
        )
    return MatrixRep(group, n, tuple(mats))


def permutation_rep(gset: FiniteGSet) -> MatrixRep:
    """Permutation matrices of a G-set (matrix of g sends e_x to e_{g.x})."""
    mats = []
    for g in range(gset.group.order):
        image = [gset.act[x][g] for x in range(gset.size)]
        mats.append(
            tuple(
                tuple(ONE if image[j] == i else ZERO for j in range(gset.size))
                for i in range(gset.size)
            )
        )
    return MatrixRep(gset.group, gset.size, tuple(mats))


def one_dim_rep(group: FiniteGroup, values) -> MatrixRep:
    """A 1-dimensional representation from per-element scalar values."""
    mats = tuple(((_as_cyclo(v),),) for v in values)
    return MatrixRep(group, 1, mats)


def rep_from_generator_images(group: FiniteGroup, images: dict) -> MatrixRep:
    """Extend matrices given on a generating set to the whole group."""
    images = {g: tuple(tuple(_as_cyclo(v) for v in row) for row in m)
              for g, m in images.items()}
    dim = len(next(iter(images.values())))
    mats = extend_along_generators(
        group, images, _identity(dim), _mat_mul,
        "images do not cover a generating set",
    )
    return MatrixRep(group, dim, tuple(mats))


def character_of(rep: MatrixRep) -> ClassFunction:
    """Trace at each class representative; genuine by construction."""
    table = conjugacy_classes(rep.group)
    vals = []
    for r in table.representatives:
        m = rep.matrices[r]
        tr = ZERO
        for i in range(rep.dim):
            tr = tr + m[i][i]
        vals.append(tr)
    return ClassFunction(rep.group, tuple(vals), True)


def eigencomponent_dim(rep: MatrixRep, h: int, zeta: CyclotomicNumber) -> int:
    """dim of the zeta-eigenspace of rep(h), via the averaging projector.

    ``zeta`` must satisfy zeta^r = 1 for r the order of h.  The projector
    (1/r) sum_a zeta^(-a) rep(h)^a onto the zeta-eigenspace is assembled
    exactly and its rank certified by exact elimination.
    """
    r = rep.group.element_order(h)
    if zeta**r != 1:
        raise ValidationError(f"{zeta!r} is not an {r}-th root of unity")
    zeta_inv = zeta.inverse()
    acc = power = _identity(rep.dim)
    scalar = ONE  # zeta^(-a)
    for _ in range(1, r):
        power = _mat_mul(power, rep.matrices[h])
        scalar = scalar * zeta_inv
        acc = _mat_add(acc, _mat_scale(power, scalar))
    proj = _mat_scale(acc, Fraction(1, r))
    return exact_rank(proj)


# -- bundles and the trace map ----------------------------------------------


@dataclass(frozen=True)
class VirtualEqBundle:
    """One virtual character per orbit, on the stabilizer of its representative."""

    base: FiniteGSet
    orbit_characters: tuple[ClassFunction, ...]

    def __post_init__(self):
        dec = orbits(self.base)
        if len(self.orbit_characters) != dec.count:
            raise ValidationError(
                f"need one character per orbit ({dec.count}), got "
                f"{len(self.orbit_characters)}"
            )
        for i, rep in enumerate(dec.representatives):
            stab_group, _ = self.base.stabilizer(rep).as_group()
            chi = self.orbit_characters[i]
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


@dataclass(frozen=True)
class InertiaFunction:
    """An H-invariant cyclotomic function on the fixed-point pairs."""

    inertia_set: InertiaSet
    values: tuple[CyclotomicNumber, ...]  # one per inertia orbit

    def __post_init__(self):
        if len(self.values) != orbits(self.inertia_set).count:
            raise ValidationError("need one value per inertia orbit")

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
    return ClassFunction(stab_group, vals, chi.genuine)


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
    return ClassFunction(group, tuple(vals), chi.genuine)


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
