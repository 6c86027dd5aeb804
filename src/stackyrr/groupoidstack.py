"""Finite group actions as zero-dimensional quotient stacks.

A `FiniteGSet` is a left action of a `FiniteGroup` on points 0..s-1, stored
as one column per generator of the group's spanning tree:
``cols[i][x] = s_i.x``.  Its orbits, transporters and stabilizers (the
objects and automorphism groups of [X/G]) are read off the columns into an
`OrbitDecomposition`, the one orbit table, which holds conjugacy classes
too; the full table ``act[x][g] = g.x`` is built from them only where a
per-point row is read (characters, for one), on first use, and cached.
The composition convention is fixed once, globally:
act[x][g*h] == act[act[x][h]][g] (h acts first).  Every user-facing
construction validates it inside the orbit sweep, on the image row walked
for each orbit's representative, never on ``act``: O(#orbits·|G|·#gens)
time and O(|G|) memory.

The central construction is `inertia`: the set of pairs (x, h) with h.x = x,
carrying the action g.(x, h) = (g.x, g h g^-1).  Iterating it m times is,
up to relabeling, the set of (x, h_1, ..., h_m) with the h_i pairwise
commuting and all fixing x.  `iterated_inertia` builds that as a tower of
`TowerLevel`s, each only its points: the children of the points of the
level below in compressed rows, sorted, plus one column per generator.
Each level holds its level below strongly and the one above only weakly,
so a tower lives exactly as long as its top level is referenced.
``inertia(B)`` is a fresh level 1 of the tower on B, built from the
stabilizers of the orbit sweep, never the one the tower keeps, and
`flattening_bijection` checks that it really is, equivariantly, the level
above B by comparing the two levels' arrays.
"""

from __future__ import annotations

import operator
import weakref
from itertools import chain, count, repeat

from . import limits
from .errors import ResourceLimitError, ValidationError, check_depth
from .grouptheory import FiniteGroup, OrbitDecomposition, Subgroup, _action_orbits, _set_bits, subgroup

# The longest series (m_max) and tallest tower any operation climbs.  A free
# action keeps |X| points at every level, so no count-based cap bounds it.
MAX_DEPTH = 1000


class FiniteGSet:
    """A finite left G-set with a fixed point order, stored on generators.

    ``cols[i][x]`` is the image of point x under the i-th generator of
    ``group.spanning_tree()``.  ``act[x][g]`` (g.x for every element g) is
    filled along that tree on first use, row_x[s*a] = cols[s][row_x[a]],
    and cached.  Validation reads no ``act``: it is the orbit sweep, kept as
    the set's orbits, checking images[s*h] == cols[s][images[h]] for every
    element h and generator s on the row images[g] = g.x it walks from each
    orbit's least point x.  By induction on word length every word for g
    then sends each point images[h] of the orbit to images[g*h], so the
    columns are an action.
    """

    __slots__ = ("group", "size", "cols", "_act", "_orbits", "_up", "__weakref__")

    def __init__(self, group: FiniteGroup, size: int, cols, *, validate=True):
        self.group = group
        self.size = size
        self.cols = tuple(tuple(col) for col in cols)
        self._act = None
        self._orbits = None
        self._up = None  # weakref to level 1 of the inertia tower built on this set
        if validate:  # callers have checked that every column maps 0..size-1 into itself
            self._orbits = _action_orbits(group, size, self.cols, check=True)

    @property
    def act(self) -> tuple[tuple[int, ...], ...]:
        """Rows ``act[x][g] = g.x``, filled along the spanning tree and cached."""
        if self._act is None:
            images = [None] * self.group.order  # images[g][x] = g.x
            images[0] = tuple(range(self.size))
            for b, i, a in self.group.spanning_tree()[1]:
                images[b] = tuple(map(self.cols[i].__getitem__, images[a]))
            self._act = tuple(zip(*images)) if self.size else ()
        return self._act

    def stabilizer_elements(self, x: int) -> list[int]:
        dec, group = orbits(self), self.group
        t, stab = dec.transporter[x], dec.stabilizers[dec.orbit_of[x]]  # x = t.rep
        if not t:  # x is its orbit's representative, whose stabilizer is kept sorted
            return list(stab)
        mul, left, t_inv = group.mul, group.mul[t], group.inv[t]  # Stab(x) = t Stab(rep) t^-1
        return sorted(mul[left[h]][t_inv] for h in stab)

    def stabilizer(self, x: int) -> Subgroup:
        """Stab(x) as a `Subgroup`: an orbit representative's is validated once
        and kept with the orbits, any other point's is a fresh conjugate."""
        dec = orbits(self)
        o = dec.orbit_of[x]
        if x != dec.representatives[o]:
            return subgroup(self.group, self.stabilizer_elements(x))
        if o not in dec._subgroups:
            dec._subgroups[o] = Subgroup(self.group, dec.stabilizers[o])  # already sorted
        return dec._subgroups[o]

    def __repr__(self):
        return f"FiniteGSet(order={self.group.order}, points={self.size})"


def orbits(gset: FiniteGSet) -> OrbitDecomposition:
    """Orbit partition with minimal-index representatives and transporters.

    The one orbit table, read off the generator columns by the sweep that
    also finds conjugacy classes (`grouptheory._action_orbits`), which keeps
    each representative's stabilizer elements; ``act`` is neither read nor
    built.  A validated set already holds the orbits its validation swept.
    """
    if gset._orbits is None:
        gset._orbits = _action_orbits(gset.group, gset.size, gset.cols)
    return gset._orbits


def orbit_count(gset: FiniteGSet) -> int:
    """Number of orbits, by sweeping the generator columns only.

    Keeps no transporters and counts no stabilizers, so it stays beside
    :func:`orbits` as the path, several times cheaper, for the Euler numbers
    of large iterated fixed-point sets, which need only the count.
    """
    seen = bytearray(gset.size)
    cols = gset.cols
    count = 0
    for x in range(gset.size):
        if seen[x]:
            continue
        count += 1
        seen[x] = 1
        stack = [x]
        while stack:
            y = stack.pop()
            for col in cols:
                z = col[y]
                if not seen[z]:
                    seen[z] = 1
                    stack.append(z)
    return count


class TowerLevel(FiniteGSet):
    """Level ``depth`` >= 1 of an inertia tower: the children of ``below``.

    Stored in compressed rows over the points p of ``below``:
    ``offsets[p]:offsets[p+1]`` are p's children and ``last[i]`` is child
    i's new group coordinate, sorted within each row, so a level holds one
    entry per point and the child (p, h) is found by bisecting p's row.
    ``below`` is held strongly; the level above, if any, only through a
    weak reference (``_up`` for a tower built on this level itself,
    ``_next`` for the next level of this tower), so no level keeps its
    tower in a reference cycle.
    """

    __slots__ = ("below", "depth", "offsets", "last", "_next", "_labels")

    def __init__(self, below: FiniteGSet, depth: int, offsets, last, cols):
        super().__init__(below.group, len(last), cols, validate=False)
        self.below = below
        self.depth = depth
        self.offsets = offsets
        self.last = last
        self._next = None
        self._labels = None

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        """Tuples (x, h_1..h_depth), x a point of the tower's base; built once."""
        if self._labels is None:
            heads = self.below.labels if self.depth > 1 else zip(range(self.below.size))
            # each parent's label, once per child, plus the child's coordinate
            self._labels = tuple(map(operator.add, _per_child(heads, self.offsets), zip(self.last)))
        return self._labels


def _per_child(heads, offsets):
    """Each parent's entry of ``heads``, repeated once per child of that parent."""
    return chain.from_iterable(map(repeat, heads, map(operator.sub, offsets[1:], offsets)))


def _level_above(below: FiniteGSet, depth: int, cap: int) -> TowerLevel:
    """The children of every point of ``below``, with their generator columns.

    At depth 1 the children of x are its stabilizer elements, which the orbit
    sweep reads from the action (`FiniteGSet.stabilizer_elements`); by
    Burnside they number |G| per orbit, so a level over ``cap`` is refused
    before one is listed.  Deeper, the
    children of p = (q, h) are the children of q that commute with h: the
    AND of their mask with h's commute mask, for each h lowest first.  Both
    lists come out sorted, so the points are in lexicographic order.  A
    column finds child (p, h) at slot p·|G| + h of a list of every slot on a
    dense level (at most four slots a child), else of a dict of the children.
    """
    group = below.group
    n = group.order
    offsets, last = [0], []
    if depth == 1:
        if n * orbits(below).count > cap:
            raise ResourceLimitError(f"iterated fixed-point set exceeds Limits.points = {cap}")
        rows = (below.stabilizer_elements(x) for x in range(below.size))
    else:
        starts, siblings, masks = below.offsets, below.last, group.commute_masks()
        sibling_rows = (siblings[a:b] for a, b in zip(starts, starts[1:]))
        child_masks = (mask & masks[h] for row in sibling_rows
                       for mask in [sum(1 << h for h in row)] for h in row)
        listed = {}  # each child mask holds h itself, so no listed row is empty
        rows = (listed.get(c) or listed.setdefault(c, _set_bits(c)) for c in child_masks)
    for children in rows:
        last.extend(children)
        offsets.append(len(last))
        if len(last) > cap:
            raise ResourceLimitError(f"iterated fixed-point set exceeds Limits.points = {cap}")
    parent = list(_per_child(range(below.size), offsets))
    if below.size * n <= 4 * len(last):  # dense: 8 bytes a slot cost less than a dict entry a child
        index = [None] * (below.size * n)  # an unfilled slot is no point, so a fault reads as one
        for i, (p, h) in enumerate(zip(parent, last)):
            index[p * n + h] = i  # (p, h) at slot p*|G| + h
    else:
        index = dict(zip([p * n + h for p, h in zip(parent, last)], count()))
    cols = []
    for s, below_col in zip(group.spanning_tree()[0], below.cols):
        conj_s, image_at = group.conj_row(s), [q * n for q in below_col]
        cols.append([index[image_at[p] + conj_s[h]] for p, h in zip(parent, last)])
    return TowerLevel(below, depth, offsets, last, cols)


def inertia(gset: FiniteGSet) -> TowerLevel:
    """Fixed-point pairs (x, h) under g.(x, h) = (g.x, g h g^-1).

    A fresh level 1 of the tower on ``gset``, never the one
    :func:`iterated_inertia` keeps, so the two can be checked against each
    other; its labels are the pairs.  Held to ``Limits.points``.
    """
    return _level_above(gset, 1, limits.current().points)


def iterated_inertia(gset: FiniteGSet, m: int) -> FiniteGSet:
    """Tuples (x, h_1..h_m), h_i pairwise commuting and fixing x.

    ``m = 0`` returns the input unchanged.  The action conjugates every
    group coordinate and translates the point; only its generator columns
    are written.  The result is level m of the inertia tower on ``gset``
    (see `TowerLevel`): any level of that tower still referenced somewhere
    is reused, and only the levels above it are built.  Repeatedly applying
    :func:`inertia` gives the same G-set up to flattening of the nested
    pair labels (see :func:`flattening_bijection`).  No level of more than
    ``Limits.points`` points is built or returned, nor a tower taller than
    ``MAX_DEPTH``.
    """
    check_depth(m, "iteration depth")
    if m > MAX_DEPTH:
        raise ResourceLimitError(f"iteration depth {m} exceeds MAX_DEPTH = {MAX_DEPTH}")
    cap = limits.current().points
    level = gset
    for depth in range(1, m + 1):
        link = gset._up if depth == 1 else level._next
        above = link() if link is not None else None
        if above is None:
            above = _level_above(level, depth, cap)
            if depth == 1:
                gset._up = weakref.ref(above)
            else:
                level._next = weakref.ref(above)
        elif above.size > cap:
            raise ResourceLimitError(f"iterated fixed-point set exceeds Limits.points = {cap}")
        level = above
    return level


def flattening_bijection(nested: TowerLevel, flat: TowerLevel) -> "EquivariantMap":
    """The relabeling inertia(I^m) -> I^(m+1), checked for equivariance.

    ``nested`` is the inertia of a G-set B (a tower level or the base
    itself), a depth-1 level, and ``flat`` must be a tower level built
    directly on B.  Both list the children h of each point x of B in one
    sorted row, so the map is the identity exactly when their ``offsets``,
    ``last`` and generator columns are equal; otherwise `ValidationError`
    carries the difference `_flattening_mismatch` names.
    """
    mismatch = _flattening_mismatch(nested, flat)
    if mismatch is not None:
        raise ValidationError(mismatch)
    return EquivariantMap(nested, flat, tuple(range(nested.size)), tuple(range(nested.group.order)))


def _flattening_mismatch(nested: TowerLevel, flat: TowerLevel) -> str | None:
    """The first pair (x, h) one level lacks (or places differently), else the
    first generator and point whose images differ, else None; see `flattening_bijection`."""
    if not (isinstance(nested, TowerLevel) and nested.depth == 1):
        raise ValidationError("nested set is not the inertia of a G-set")
    if not (isinstance(flat, TowerLevel) and flat.below is nested.below):
        raise ValidationError("target is not the tower level directly above the nested set's base")
    if nested.offsets != flat.offsets or nested.last != flat.last:
        # also true of equal entries in a list and a tuple: then no pair differs
        nested_at, flat_at = (dict(zip(zip(_per_child(count(), level.offsets), level.last),
                                       count())) for level in (nested, flat))
        for pair in sorted(nested_at.keys() | flat_at.keys()):
            j, i = nested_at.get(pair, -1), flat_at.get(pair, -1)
            if j != i:
                if min(i, j) >= 0:
                    return f"pair {pair} is point {j} of the nested set but {i} of the direct one"
                return f"pair {pair} missing from the {'direct' if i < 0 else 'nested'} construction"
    for s, a, b in zip(nested.group.spanning_tree()[0], nested.cols, flat.cols):
        if a != b:
            x = next((x for x, (u, v) in enumerate(zip(a, b)) if u != v), min(len(a), len(b)))
            return f"not equivariant: witness (g={s}, x={x})"
    return None


class EquivariantMap:
    """A checked morphism of G-sets over a group homomorphism."""

    __slots__ = ("source", "target", "point_map", "elem_map")

    def __init__(self, source: FiniteGSet, target: FiniteGSet,
                 point_map: tuple[int, ...], elem_map: tuple[int, ...]):
        self.source, self.target = source, target
        self.point_map, self.elem_map = point_map, elem_map

    def is_bijective(self) -> bool:
        return (
            len(set(self.point_map)) == self.source.size == self.target.size
        )


def equivariant_map(source: FiniteGSet, target: FiniteGSet, point_map, elem_map) -> EquivariantMap:
    """Validate that rho is a homomorphism and f(g.x) = rho(g).f(x).

    Both rules are checked for generators s of the source group only:
    rho(a s) = rho(a) rho(s) for every a, then f(s.x) = rho(s).f(x) for
    every x.  By induction on word length they then hold for every element,
    at O(|G| + |X|) work per generator.  Raises with an explicit witness on
    the first failure.
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
    gens = gs.spanning_tree()[0]
    for s in gens:
        rho_s = elem_map[s]
        for a in range(gs.order):
            if elem_map[gs.mul[a][s]] != gt.mul[elem_map[a]][rho_s]:
                raise ValidationError(
                    f"not a homomorphism: witness pair ({a}, {s})"
                )
    target_gens = gt.spanning_tree()[0]
    for s, col in zip(gens, source.cols):
        rho_s = elem_map[s]
        if rho_s in target_gens:
            image = target.cols[target_gens.index(rho_s)]
        else:
            image = [row[rho_s] for row in target.act]
        for x in range(source.size):
            if point_map[col[x]] != image[point_map[x]]:
                raise ValidationError(
                    f"not equivariant: witness (g={s}, x={x})"
                )
    return EquivariantMap(source, target, point_map, elem_map)


# -- convenient constructions ------------------------------------------------


def natural_gset(group: FiniteGroup) -> FiniteGSet:
    """The defining action of a permutation-built group on its ground set."""
    if group.perms is None:
        raise ValidationError("group was not built from permutations")
    cols = [group.perms[s] for s in group.spanning_tree()[0]]
    return FiniteGSet(group, len(group.perms[0]), cols, validate=False)


def trivial_gset(group: FiniteGroup, npoints: int = 1) -> FiniteGSet:
    cols = [range(check_depth(npoints, "point count"))] * len(group.spanning_tree()[0])
    return FiniteGSet(group, npoints, cols, validate=False)


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
    cols = [
        [coset_of[mul[s][rep]] for rep in cosets] for s in group.spanning_tree()[0]
    ]
    return FiniteGSet(group, len(cosets), cols, validate=False)


def disjoint_union(*gsets: FiniteGSet) -> FiniteGSet:
    group = gsets[0].group
    for x in gsets[1:]:
        if x.group is not group:
            raise ValidationError("disjoint union needs a common group")
    cols = [[] for _ in group.spanning_tree()[0]]
    offset = 0
    for x in gsets:
        for col, part in zip(cols, x.cols):
            col.extend(y + offset for y in part)
        offset += x.size
    return FiniteGSet(group, offset, cols, validate=False)


def gset_from_table(group: FiniteGroup, act) -> FiniteGSet:
    """A user-supplied action table, fully validated.

    Its generator columns are read off the rows and validated as any
    G-set's are.  Then each tree edge b = s*a must hold in every row,
    act[x][s*a] == act[act[x][a]][s], two |X|-entry columns at a time: with
    the identity column, that makes the rows the action the columns
    generate, and they become the G-set's ``act`` unchanged.
    """
    rows = tuple(tuple(row) for row in act)
    n = group.order
    for x, row in enumerate(rows):
        if len(row) != n:
            raise ValidationError(f"action row {x} has length {len(row)} != {n}")
        for y in row:
            if not 0 <= y < len(rows):
                raise ValidationError(f"action value {y} out of range in row {x}")
        if row[0] != x:
            raise ValidationError(f"identity moves point {x}")
    gens, edges = group.spanning_tree()
    cols = [list(map(operator.itemgetter(s), rows)) for s in gens]
    gset = FiniteGSet(group, len(rows), cols)
    for b, i, a in edges:
        given = list(map(operator.itemgetter(b), rows))
        generated = list(map(cols[i].__getitem__, map(operator.itemgetter(a), rows)))
        if given != generated:
            x = next(x for x, (p, q) in enumerate(zip(given, generated)) if p != q)
            raise ValidationError(
                f"action is not compatible with multiplication at (x={x}, g={gens[i]}, h={a})"
            )
    gset._act = rows
    return gset


def gset_from_generator_action(group: FiniteGroup, gen_columns) -> FiniteGSet:
    """An action given only on the group's recorded generators, validated.

    ``gen_columns[i][x]`` is the image of point x under generator i (in the
    group's generator order); the recorded generators must generate the
    group.
    """
    if group.generators is None:
        raise ValidationError("group has no recorded generators")
    if len(gen_columns) != len(group.generators):
        raise ValidationError(
            f"expected {len(group.generators)} generator columns, got {len(gen_columns)}"
        )
    size = len(gen_columns[0])
    for g, col in zip(group.generators, gen_columns):
        if sorted(col) != list(range(size)):
            raise ValidationError(f"generator column for element {g} is not a bijection")
    if group.spanning_tree()[0] != group.generators:
        raise ValidationError("generators do not generate the group")
    return FiniteGSet(group, size, gen_columns, validate=True)
