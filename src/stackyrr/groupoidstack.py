"""Finite group actions as zero-dimensional quotient stacks.

A `FiniteGSet` is a left action of a `FiniteGroup` on points 0..s-1, stored
as one column per generator of the group's spanning tree:
``cols[i][x] = s_i.x``.  The full table ``act[x][g] = g.x`` is built from
the columns on first use and cached.  The composition convention is fixed
once, globally:  act[x][g*h] == act[act[x][h]][g]  (h acts first).
Everything that follows -- fixed-point pairs, conjugation-translation
actions, commuting-tuple fibers -- leans on that one identity.  It is
validated on every user-facing construction, for every g and every
generator h only, which implies it for all pairs: O(|X|·|G|·#gens).

The central construction is `inertia`: the set of pairs (x, h) with h.x = x,
carrying the action g.(x, h) = (g.x, g h g^-1).  Iterating it m times is,
up to relabeling, the set of (x, h_1, ..., h_m) with the h_i pairwise
commuting and all fixing x.  `iterated_inertia` builds that as a tower of
`TowerLevel`s: level k+1 is stored as the children of the points of level
k in compressed rows (offsets into one array of new group coordinates),
and a generator's column is read off by offset, with no label tuples.
Each level holds its level below strongly and the one above only weakly,
so a tower lives exactly as long as its top level is referenced.  Labels
are built from the parent chain on first use.  `flattening_bijection`
checks that ``inertia`` of a level really is, equivariantly, the level
above it.
"""

from __future__ import annotations

import weakref
from itertools import compress

from . import limits
from .errors import ResourceLimitError, ValidationError, check_depth
from .grouptheory import FiniteGroup, Subgroup, commuting_masks, subgroup


class FiniteGSet:
    """A finite left G-set with a fixed point order, stored on generators.

    ``cols[i][x]`` is the image of point x under the i-th generator of
    ``group.spanning_tree()``.  ``act[x][g]`` (g.x for every element g) is
    filled along that tree on first use, row_x[s*a] = cols[s][row_x[a]],
    and cached.  Validation checks act[x][g*s] == act[act[x][s]][g] for
    every point x, every element g and every generator s, which by
    induction on word length is the whole composition rule.
    """

    __slots__ = ("group", "size", "cols", "_labels", "_label_index", "_act", "_orbits",
                 "_up", "__weakref__")

    def __init__(self, group: FiniteGroup, size: int, cols, *, labels=None, validate=True):
        self.group = group
        self.size = size
        self.cols = tuple(tuple(col) for col in cols)
        self._labels = tuple(labels) if labels is not None else None
        if self._labels is not None and len(self._labels) != size:
            raise ValidationError(f"{len(self._labels)} labels for {size} points")
        self._label_index = None
        self._act = None
        self._orbits = None
        self._up = None  # weakref to level 1 of the inertia tower built on this set
        if validate:
            self._validate()

    @property
    def labels(self) -> tuple | None:
        """One label per point, or None."""
        return self._labels

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

    @property
    def label_index(self) -> dict | None:
        """Label -> point, built on first use and cached; None without labels."""
        if self._label_index is None and self.labels:
            self._label_index = {lab: i for i, lab in enumerate(self.labels)}
        return self._label_index

    def _validate(self):
        # callers have checked that every column maps 0..size-1 into itself
        gens = self.group.spanning_tree()[0]
        act = self.act
        mul = self.group.mul
        elements = range(self.group.order)
        for i, s in enumerate(gens):
            times_s = [mul[g][s] for g in elements]
            col = self.cols[i]
            for x, row in enumerate(act):
                y = row[s]
                if y != col[x]:
                    raise ValidationError(
                        f"generator column {i} disagrees with element {s} at point {x}"
                    )
                if tuple(map(row.__getitem__, times_s)) != act[y]:
                    g = next(g for g in elements if row[times_s[g]] != act[y][g])
                    raise ValidationError(
                        f"action is not compatible with multiplication at "
                        f"(x={x}, g={g}, h={s})"
                    )

    def stabilizer_elements(self, x: int) -> list[int]:
        row = self.act[x]
        return [h for h in range(self.group.order) if row[h] == x]

    def stabilizer(self, x: int) -> Subgroup:
        return subgroup(self.group, self.stabilizer_elements(x))

    def __repr__(self):
        return f"FiniteGSet(order={self.group.order}, points={self.size})"


class OrbitDecomposition:
    """The orbits of a G-set; ``transporter[x]`` is a g with x = g.representative."""

    __slots__ = ("orbits", "representatives", "stabilizer_orders", "orbit_of", "transporter")

    def __init__(self, orbits, representatives, stabilizer_orders, orbit_of, transporter):
        self.orbits, self.representatives, self.orbit_of = orbits, representatives, orbit_of
        self.stabilizer_orders, self.transporter = stabilizer_orders, transporter

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
    """Number of orbits, by sweeping the generator columns only.

    Gives the same partition as :func:`orbits` (generators generate) but
    never builds the full table nor keeps stabilizer bookkeeping; the cheap
    path for Euler numbers of large iterated fixed-point sets.
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


class InertiaSet(FiniteGSet):
    """The G-set of pairs (x, h) with h.x = x, ordered lexicographically."""

    __slots__ = ("base",)

    def __init__(self, base: FiniteGSet, cols, pairs):
        self.base = base
        super().__init__(base.group, len(pairs), cols, labels=pairs, validate=False)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return self.labels


def inertia(gset: FiniteGSet) -> InertiaSet:
    """Fixed-point pairs (x, h) under g.(x, h) = (g.x, g h g^-1).

    Writes one column per generator: |pairs| * #gens index lookups.
    """
    group = gset.group
    n = group.order
    pairs = [(x, h) for x in range(gset.size) for h in gset.stabilizer_elements(x)]
    index = {x * n + h: i for i, (x, h) in enumerate(pairs)}
    conj = group.conj_table()
    cols = [
        [index[col[x] * n + conj[s][h]] for (x, h) in pairs]
        for s, col in zip(group.spanning_tree()[0], gset.cols)
    ]
    return InertiaSet(gset, cols, pairs)


class TowerLevel(FiniteGSet):
    """Level ``depth`` >= 1 of an inertia tower: the children of ``below``.

    Stored in compressed rows over the points p of ``below``:
    ``offsets[p]:offsets[p+1]`` are p's children, ``last[i]`` is child i's
    new group coordinate, and ``pos[p*|G| + h]`` is the child (p, h), or -1
    if h is not one.  ``below`` is held strongly; the level above, if any,
    only through a weak reference (``_up`` for a tower built on this level
    itself, ``_next`` for the next level of this tower), so no level keeps
    its tower in a reference cycle.
    """

    __slots__ = ("below", "depth", "offsets", "last", "pos", "_next")

    def __init__(self, below: FiniteGSet, depth: int, offsets, last, pos, cols):
        super().__init__(below.group, len(last), cols, validate=False)
        self.below = below
        self.depth = depth
        self.offsets = offsets
        self.last = last
        self.pos = pos
        self._next = None

    @property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        """Tuples (x, h_1..h_depth), x a point of the tower's base; built once."""
        if self._labels is None:
            heads = (
                [(x,) for x in range(self.below.size)] if self.depth == 1 else self.below.labels
            )
            offsets, last = self.offsets, self.last
            self._labels = tuple(
                head + (h,)
                for p, head in enumerate(heads)
                for h in last[offsets[p]:offsets[p + 1]]
            )
        return self._labels


def _level_above(below: FiniteGSet, depth: int, cap: int) -> TowerLevel:
    """The children of every point of ``below``, with their generator columns.

    At depth 1 the children of x are its stabilizer elements.  Deeper, the
    children of p = (q, h) are the children of q that commute with h, found
    by `commuting_masks` at m = 2.  Both lists come out sorted, so the
    points are in lexicographic order.
    """
    group = below.group
    n = group.order
    offsets, last, parent = [0], [], []
    if depth == 1:
        rows = (below.stabilizer_elements(x) for x in range(below.size))
    else:
        starts, siblings = below.offsets, below.last
        sibling_masks = (sum(1 << h for h in siblings[a:b]) for a, b in zip(starts, starts[1:]))
        listed = {}  # each child mask holds h itself, so no listed row is empty
        rows = (listed.get(c) or listed.setdefault(c, _set_bits(c))
                for mask in sibling_masks for c in commuting_masks(group, mask, 2))
    for p, children in enumerate(rows):
        last.extend(children)
        parent.extend([p] * len(children))
        offsets.append(len(last))
        if len(last) > cap:
            raise ResourceLimitError(f"iterated fixed-point set exceeds Limits.points = {cap}")
    pos = [-1] * (below.size * n)
    for i, (p, h) in enumerate(zip(parent, last)):
        pos[p * n + h] = i
    conj = group.conj_table()
    cols = []
    for s, below_col in zip(group.spanning_tree()[0], below.cols):
        conj_s = conj[s]
        cols.append([pos[below_col[p] * n + conj_s[h]] for p, h in zip(parent, last)])
    return TowerLevel(below, depth, offsets, last, pos, cols)


_SELECT = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first: its binary digits select positions."""
    return list(compress(range(mask.bit_length()), bin(mask)[:1:-1].encode().translate(_SELECT)))


def iterated_inertia(gset: FiniteGSet, m: int) -> FiniteGSet:
    """Tuples (x, h_1..h_m), h_i pairwise commuting and fixing x.

    ``m = 0`` returns the input unchanged.  The action conjugates every
    group coordinate and translates the point; only its generator columns
    are written.  The result is level m of the inertia tower on ``gset``
    (see `TowerLevel`): any level of that tower still referenced somewhere
    is reused, and only the levels above it are built.  Repeatedly applying
    :func:`inertia` gives the same G-set up to flattening of the nested
    pair labels (see :func:`flattening_bijection`).  No level of more than
    ``Limits.points`` points is built or returned.
    """
    check_depth(m, "iteration depth")
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


def flattening_bijection(nested: InertiaSet, flat: TowerLevel) -> "EquivariantMap":
    """The relabeling inertia(I^m) -> I^(m+1), checked for equivariance.

    ``nested`` is the inertia of a G-set B (a tower level or the base
    itself) and ``flat`` must be the tower level built directly on B.  The
    pair (x, h) maps to the child ``flat.pos[x*|G| + h]``; a pair with no
    child, or a ``flat`` that is not the level above B, raises
    `ValidationError`.  The map is then checked on generators by
    :func:`equivariant_map`.
    """
    if not (
        isinstance(nested, InertiaSet)
        and isinstance(flat, TowerLevel)
        and flat.below is nested.base
    ):
        raise ValidationError("target is not the tower level directly above the nested set's base")
    n = nested.group.order
    pos = flat.pos
    point_map = []
    for x, h in nested.pairs:
        i = pos[x * n + h]
        if i < 0:
            raise ValidationError(f"pair {(x, h)} missing from the direct construction")
        point_map.append(i)
    identity_rho = tuple(range(n))
    return equivariant_map(nested, flat, point_map, identity_rho)


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
    cols = [range(npoints)] * len(group.spanning_tree()[0])
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


def gset_from_table(group: FiniteGroup, act, *, labels=None) -> FiniteGSet:
    """A user-supplied action table, fully validated.

    The generator columns are read off the table and validated as an
    action; the table must then equal the action they generate.
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
    cols = [[row[s] for row in rows] for s in group.spanning_tree()[0]]
    gset = FiniteGSet(group, len(rows), cols, labels=labels)
    if gset.act != rows:
        x = next(x for x in range(len(rows)) if rows[x] != gset.act[x])
        g = next(g for g in range(n) if rows[x][g] != gset.act[x][g])
        raise ValidationError(
            f"action is not compatible with multiplication at (x={x}, g={g})"
        )
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
    if not gen_columns:
        raise ValidationError("a generator-free action needs an explicit table")
    size = len(gen_columns[0])
    for g, col in zip(group.generators, gen_columns):
        if sorted(col) != list(range(size)):
            raise ValidationError(f"generator column for element {g} is not a bijection")
    if group.spanning_tree()[0] != group.generators:
        raise ValidationError("generators do not generate the group")
    return FiniteGSet(group, size, gen_columns, validate=True)
