"""Finite group actions as zero-dimensional quotient stacks.

A `FiniteGSet` is a left action of a `FiniteGroup` on points 0..s-1, stored
as a table ``act[x][g] = g.x``.  The composition convention is fixed once,
globally:  act[x][g*h] == act[act[x][h]][g]  (h acts first).  Everything
that follows -- fixed-point pairs, conjugation-translation actions,
commuting-tuple fibers -- leans on that one identity, so it is validated on
every user-facing construction.

The central construction is `inertia`: the set of pairs (x, h) with h.x = x,
carrying the action g.(x, h) = (g.x, g h g^-1).  Iterating it m times is,
up to relabeling, the set of (x, h_1, ..., h_m) with the h_i pairwise
commuting and all fixing x; `iterated_inertia` builds that directly and the
test suite checks the relabeling really is an equivariant bijection.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits
from .errors import ResourceLimitError, ValidationError
from .grouptheory import (
    FiniteGroup,
    Subgroup,
    commuting_prefixes,
    extend_along_generators,
    subgroup,
)


class FiniteGSet:
    """A finite left G-set with a fixed point order."""

    __slots__ = ("group", "size", "act", "labels", "label_index", "_orbits")

    def __init__(self, group: FiniteGroup, act, *, labels=None, validate=True):
        self.group = group
        self.act = tuple(tuple(row) for row in act)
        self.size = len(self.act)
        self.labels = tuple(labels) if labels is not None else None
        self.label_index = (
            {lab: i for i, lab in enumerate(self.labels)} if self.labels else None
        )
        self._orbits = None
        if validate:
            self._validate()

    def _validate(self):
        n = self.group.order
        for x, row in enumerate(self.act):
            if len(row) != n:
                raise ValidationError(f"action row {x} has length {len(row)} != {n}")
            for y in row:
                if not 0 <= y < self.size:
                    raise ValidationError(f"action value {y} out of range in row {x}")
            if row[0] != x:
                raise ValidationError(f"identity moves point {x}")
        mul = self.group.mul
        for x in range(self.size):
            row = self.act[x]
            for g in range(n):
                for h in range(n):
                    if row[mul[g][h]] != self.act[row[h]][g]:
                        raise ValidationError(
                            f"action is not compatible with multiplication at "
                            f"(x={x}, g={g}, h={h})"
                        )

    def apply(self, g: int, x: int) -> int:
        return self.act[x][g]

    def stabilizer_elements(self, x: int) -> list[int]:
        row = self.act[x]
        return [h for h in range(self.group.order) if row[h] == x]

    def stabilizer(self, x: int) -> Subgroup:
        return subgroup(self.group, self.stabilizer_elements(x))

    def __repr__(self):
        return f"FiniteGSet(order={self.group.order}, points={self.size})"


@dataclass(frozen=True)
class OrbitDecomposition:
    orbits: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    stabilizer_orders: tuple[int, ...]
    orbit_of: tuple[int, ...]
    transporter: tuple[int, ...]  # per point: g with point = g.representative

    @property
    def count(self) -> int:
        return len(self.orbits)


def orbits(gset: FiniteGSet) -> OrbitDecomposition:
    """Orbit partition with minimal-index representatives and transporters."""
    if gset._orbits is not None:
        return gset._orbits
    n = gset.group.order
    size = gset.size
    orbit_of = [-1] * size
    transporter = [0] * size
    orbit_list: list[tuple[int, ...]] = []
    reps: list[int] = []
    stab_orders: list[int] = []
    for x in range(size):
        if orbit_of[x] >= 0:
            continue
        idx = len(orbit_list)
        row = gset.act[x]
        members = set()
        stab = 0
        for g in range(n):
            y = row[g]
            if y == x:
                stab += 1
            if y not in members:
                members.add(y)
                orbit_of[y] = idx
                transporter[y] = g
        if len(members) * stab != n:
            raise ValidationError(
                f"orbit of {x} has size {len(members)} but stabilizer order {stab}"
            )
        orbit_list.append(tuple(sorted(members)))
        reps.append(x)
        stab_orders.append(stab)
    dec = OrbitDecomposition(
        orbits=tuple(orbit_list),
        representatives=tuple(reps),
        stabilizer_orders=tuple(stab_orders),
        orbit_of=tuple(orbit_of),
        transporter=tuple(transporter),
    )
    gset._orbits = dec
    return dec


def orbit_count(gset: FiniteGSet) -> int:
    """Number of orbits, by sweeping generator columns only.

    Gives the same partition as :func:`orbits` (generators generate) but
    skips the stabilizer bookkeeping; the cheap path for Euler numbers of
    large iterated fixed-point sets.
    """
    cols = gset.group.generators
    if cols is None:
        cols = tuple(range(gset.group.order))
    seen = bytearray(gset.size)
    act = gset.act
    count = 0
    for x in range(gset.size):
        if seen[x]:
            continue
        count += 1
        seen[x] = 1
        stack = [x]
        while stack:
            y = stack.pop()
            row = act[y]
            for g in cols:
                z = row[g]
                if not seen[z]:
                    seen[z] = 1
                    stack.append(z)
    return count


class InertiaSet(FiniteGSet):
    """The G-set of pairs (x, h) with h.x = x, ordered lexicographically."""

    __slots__ = ("base", "pairs", "pair_index")

    def __init__(self, base: FiniteGSet, act, pairs):
        self.base = base
        self.pairs = tuple(pairs)
        self.pair_index = {p: i for i, p in enumerate(self.pairs)}
        super().__init__(base.group, act, labels=self.pairs, validate=False)


def inertia(gset: FiniteGSet) -> InertiaSet:
    """Fixed-point pairs (x, h) under g.(x, h) = (g.x, g h g^-1)."""
    group = gset.group
    n = group.order
    pairs = []
    for x in range(gset.size):
        row = gset.act[x]
        for h in range(n):
            if row[h] == x:
                pairs.append((x, h))
    index = {x * n + h: i for i, (x, h) in enumerate(pairs)}
    conj = group.conj_table()
    act = [
        tuple(index[gset.act[x][g] * n + conj[g][h]] for g in range(n))
        for (x, h) in pairs
    ]
    return InertiaSet(gset, act, pairs)


def iterated_inertia(gset: FiniteGSet, m: int, *, point_cap: int | None = None) -> FiniteGSet:
    """Tuples (x, h_1..h_m), h_i pairwise commuting and fixing x.

    ``m = 0`` returns the input unchanged.  The action conjugates every
    group coordinate and translates the point.  Built directly from
    commuting tuples; repeatedly applying :func:`inertia` gives the same
    G-set up to flattening of the nested pair labels (see
    :func:`flattening_bijection`).
    """
    if m < 0:
        raise ValidationError(f"iteration depth must be >= 0, got {m}")
    if m == 0:
        return gset
    cap = point_cap if point_cap is not None else limits.POINT_CAP
    group = gset.group
    n = group.order
    points: list[tuple[int, ...]] = []
    for x in range(gset.size):
        for prefix, last in commuting_prefixes(group, gset.stabilizer_elements(x), m):
            head = (x,) + prefix
            points.extend(head + (h,) for h in last)
            if len(points) > cap:
                raise ResourceLimitError(f"iterated fixed-point set exceeds cap {cap}")
    points.sort()
    # integer-encode tuples for the action lookup: much cheaper than hashing
    # label tuples in the inner loop
    def encode(p):
        code = p[0]
        for h in p[1:]:
            code = code * n + h
        return code

    index = {encode(p): i for i, p in enumerate(points)}
    conj = group.conj_table()
    act_cols: list[list[int]] = [[0] * len(points) for _ in range(n)]
    for g in range(n):
        conj_g = conj[g]
        col = act_cols[g]
        for i, p in enumerate(points):
            code = gset.act[p[0]][g]
            for h in p[1:]:
                code = code * n + conj_g[h]
            col[i] = index[code]
    act_rows = [tuple(act_cols[g][i] for g in range(n)) for i in range(len(points))]
    return FiniteGSet(group, act_rows, labels=points, validate=False)


def flattening_bijection(nested: InertiaSet, flat: FiniteGSet) -> "EquivariantMap":
    """The relabeling inertia(I^m) -> I^(m+1), checked for equivariance.

    ``nested`` must be the inertia of an iterated inertia set (or of the
    base itself), ``flat`` the directly built next level; the map appends
    the new group coordinate to the flattened tuple label.
    """
    def flatten(label):
        x, h = label
        inner = nested.base.labels[x] if nested.base.labels else (x,)
        if isinstance(inner, int):
            inner = (inner,)
        return tuple(inner) + (h,)

    if flat.label_index is None:
        raise ValidationError("target has no tuple labels to match against")
    point_map = []
    for i in range(nested.size):
        key = flatten(nested.pairs[i])
        if key not in flat.label_index:
            raise ValidationError(f"pair {key} missing from the direct construction")
        point_map.append(flat.label_index[key])
    identity_rho = tuple(range(nested.group.order))
    return equivariant_map(nested, flat, point_map, identity_rho)


@dataclass(frozen=True)
class EquivariantMap:
    """A checked morphism of G-sets over a group homomorphism."""

    source: FiniteGSet
    target: FiniteGSet
    point_map: tuple[int, ...]
    elem_map: tuple[int, ...]

    def is_bijective(self) -> bool:
        return (
            len(set(self.point_map)) == self.source.size == self.target.size
        )


def equivariant_map(source: FiniteGSet, target: FiniteGSet, point_map, elem_map) -> EquivariantMap:
    """Validate f(g.x) = rho(g).f(x) and that rho is a homomorphism.

    Raises with an explicit witness on the first failure.
    """
    point_map = tuple(point_map)
    elem_map = tuple(elem_map)
    gs, gt = source.group, target.group
    if len(elem_map) != gs.order:
        raise ValidationError("element map must cover the whole source group")
    if len(point_map) != source.size:
        raise ValidationError("point map must cover all source points")
    if elem_map[0] != 0:
        raise ValidationError("element map must send identity to identity")
    for a in range(gs.order):
        for b in range(gs.order):
            if elem_map[gs.mul[a][b]] != gt.mul[elem_map[a]][elem_map[b]]:
                raise ValidationError(
                    f"not a homomorphism: witness pair ({a}, {b})"
                )
    for x in range(source.size):
        fx = point_map[x]
        for g in range(gs.order):
            if point_map[source.act[x][g]] != target.act[fx][elem_map[g]]:
                raise ValidationError(
                    f"not equivariant: witness (g={g}, x={x})"
                )
    return EquivariantMap(source, target, point_map, elem_map)


# -- convenient constructions ------------------------------------------------


def natural_gset(group: FiniteGroup) -> FiniteGSet:
    """The defining action of a permutation-built group on its ground set."""
    if group.perms is None:
        raise ValidationError("group was not built from permutations")
    degree = len(group.perms[0])
    act = tuple(
        tuple(group.perms[g][x] for g in range(group.order)) for x in range(degree)
    )
    return FiniteGSet(group, act, validate=False)


def trivial_gset(group: FiniteGroup, npoints: int = 1) -> FiniteGSet:
    act = tuple(tuple(x for _ in range(group.order)) for x in range(npoints))
    return FiniteGSet(group, act, validate=False)


def coset_gset(group: FiniteGroup, sub: Subgroup) -> FiniteGSet:
    """The left translation action on cosets gH, cosets ordered by minimum."""
    if sub.parent is not group:
        raise ValidationError("subgroup belongs to a different group")
    n = group.order
    mul = group.mul
    elems = sub.elements
    coset_of = [-1] * n
    cosets = []
    for g in range(n):
        if coset_of[g] >= 0:
            continue
        members = sorted(mul[g][h] for h in elems)
        idx = len(cosets)
        for x in members:
            coset_of[x] = idx
        cosets.append(members[0])
    act = tuple(
        tuple(coset_of[mul[g][rep]] for g in range(n)) for rep in cosets
    )
    return FiniteGSet(group, act, validate=False)


def disjoint_union(*gsets: FiniteGSet) -> FiniteGSet:
    group = gsets[0].group
    for x in gsets[1:]:
        if x.group is not group:
            raise ValidationError("disjoint union needs a common group")
    act = []
    offset = 0
    for x in gsets:
        for row in x.act:
            act.append(tuple(y + offset for y in row))
        offset += x.size
    return FiniteGSet(group, act, validate=False)


def gset_from_table(group: FiniteGroup, act, *, labels=None) -> FiniteGSet:
    """A user-supplied action table, fully validated."""
    return FiniteGSet(group, act, labels=labels, validate=True)


def gset_from_generator_action(group: FiniteGroup, gen_columns) -> FiniteGSet:
    """Close an action given only on the group's generators.

    ``gen_columns[i][x]`` is the image of point x under generator i (in the
    group's generator order).  Requires a permutation-built group so the
    generator word of every element is known.
    """
    if group.generators is None:
        raise ValidationError("group has no recorded generators")
    if len(gen_columns) != len(group.generators):
        raise ValidationError(
            f"expected {len(group.generators)} generator columns, got {len(gen_columns)}"
        )
    size = len(gen_columns[0]) if gen_columns else 0
    if not gen_columns:
        raise ValidationError("a generator-free action needs an explicit table")
    gen_act = {g: tuple(col) for g, col in zip(group.generators, gen_columns)}
    for g, col in gen_act.items():
        if sorted(col) != list(range(size)):
            raise ValidationError(f"generator column for element {g} is not a bijection")
    # x -> (a*g).x = a.(g.x): compose the known image of a with the column of g
    images = extend_along_generators(
        group, gen_act, tuple(range(size)),
        lambda image, col: tuple(image[c] for c in col),
        "generators do not generate the group",
    )
    act = tuple(tuple(images[g][x] for g in range(group.order)) for x in range(size))
    return FiniteGSet(group, act, validate=True)
