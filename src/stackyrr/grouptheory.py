"""Finite groups as validated Cayley tables.

Elements are indices 0..n-1 with the identity at index 0.  Groups come from
permutation generators (closed by breadth-first search, so the element
order is reproducible) or from explicit multiplication tables.  Everything
downstream -- conjugacy classes, centralizers, subgroup lattices,
commuting-tuple counts -- is plain table arithmetic, which is the right
trade at the scale this package works at (orders in the hundreds, not
millions).  The kernels work a whole row at a time, and every row is one
C-level gather (`_gather`): the closure builds each row from an earlier one
read through a generator's row and reads the inverses off the same tree,
a given table is checked by Light's associativity test on its generators,
and conjugation by g is a row h -> g h g^-1 built on first use.  The one
orbit table of any action, `OrbitDecomposition`, is swept by `_action_orbits`:
the conjugacy classes are its orbits for conjugation (the centralizers are
its stabilizers); they, the inertia tower and the subgroup lattice read only
the generators' rows (normalizers are tested on the table itself).  The
commute masks are read off the class table, one centralizer per class,
while the brute commuting count builds its own from the table, row
against column, and tests a tuple's last entry against their AND.
"""

from __future__ import annotations

from itertools import compress, product
from operator import eq, itemgetter

from . import limits
from .errors import ConsistencyError, ResourceLimitError, ValidationError, check_depth


class FiniteGroup:
    """Immutable finite group on indices 0..order-1, identity at 0."""

    __slots__ = ("order", "mul", "inv", "generators", "perms", "_classes",
                 "_conj", "_commutes", "_brute_masks", "_tree", "_sub_groups")

    def __init__(self, mul: tuple[tuple[int, ...], ...], *, generators=None,
                 perms=None, inv=None, _validated=False):
        self.order = len(mul)
        self.mul = mul
        if not _validated:
            _check_table(mul)
        self.inv = tuple(row.index(0) for row in mul) if inv is None else inv
        self.generators = tuple(generators) if generators else None
        self.perms = tuple(perms) if perms else None
        self._classes = None
        self._conj = {}
        self._commutes = None
        self._brute_masks = None  # read only by _commuting_brute
        self._tree = None
        self._sub_groups = {}

    def conj(self, g: int, h: int) -> int:
        """g * h * g^-1."""
        return self.mul[self.mul[g][h]][self.inv[g]]

    def conj_row(self, g: int) -> tuple[int, ...]:
        """The row h -> g * h * g^-1, built on first use and kept on the group;
        the package asks only for the spanning-tree generators' rows."""
        row = self._conj.get(g)
        if row is None:
            right = tuple(map(itemgetter(self.inv[g]), self.mul))  # x -> x * g^-1
            row = self._conj[g] = _gather(self.mul[g])(right)
        return row

    def commute_masks(self) -> tuple[int, ...]:
        """Per element g, a bitmask with bit h set when g*h == h*g, read off the classes.

        g = t r t^-1 for r its class representative and t its transporter, so
        C(g) = t C(r) t^-1: its bits t c t^-1 for c in C(r) are gathered as
        (t (t c)^-1)^-1, and a central g gets every bit.  So the masks cost
        |C(g)| steps per element, |G| per class, and not the |G|^2
        comparisons of `_commute_masks`.
        """
        if self._commutes is None:
            table, mul, inv, n = conjugacy_classes(self), self.mul, self.inv, self.order
            masks = []
            for t, o in zip(table.transporter, table.orbit_of):
                cent = table.stabilizers[o]
                if len(cent) == n:
                    masks.append((1 << n) - 1)
                    continue
                row, bits = mul[t], bytearray(n // 8 + 1)
                for p in _gather(_gather(_gather(_gather(cent)(row))(inv))(row))(inv):
                    bits[p >> 3] |= 1 << (p & 7)
                masks.append(int.from_bytes(bits, "little"))
            self._commutes = tuple(masks)
        return self._commutes

    def spanning_tree(self) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
        """Generators and a breadth-first tree of left multiplication by them.

        Returns ``(gens, edges)``.  ``gens`` are the recorded generators when
        they generate the group, otherwise a greedy generating set (the least
        element not yet reached, then close; at most log2 |G| of them).
        ``edges`` holds one ``(b, i, a)`` with ``b = gens[i] * a`` per
        non-identity element ``b``, each ``a`` reached before ``b``.  Since
        every element is a word in ``gens``, a rule of the form
        ``f(g * s) = f(g) * f(s)`` checked for every g and every generator s
        holds for all pairs (induction on word length).
        """
        if self._tree is None:
            gens = self.generators
            if gens is not None and all(0 <= s < self.order for s in gens):
                self._tree = _left_tree(self, gens)
            if self._tree is None:
                self._tree = _left_tree(self, _span(self.mul, set(range(self.order))))
        return self._tree

    def element_order(self, g: int) -> int:
        order = 1
        acc = g
        while acc != 0:
            acc = self.mul[acc][g]
            order += 1
        return order

    def is_abelian(self) -> bool:
        """Whether the spanning tree's generators commute pairwise."""
        gens, mul = self.spanning_tree()[0], self.mul
        return all(mul[a][b] == mul[b][a] for a in gens for b in gens)

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _gather(idx):
    """``seq -> tuple(seq[i] for i in idx)``, by ``itemgetter`` at C speed.

    ``itemgetter(*idx)`` returns a bare value, not a 1-tuple, for one index
    and cannot be built from none, so those two cases take a plain loop.
    Every table row, conjugation row and re-indexed row is gathered here.
    """
    if len(idx) > 1:
        return itemgetter(*idx)
    return lambda seq: tuple(seq[i] for i in idx)


def _check_table(mul) -> None:
    """Shape, range, identity, inverses, then associativity by Light's test.

    Let S be the set of t with (x*t)*y == x*(t*y) for all x, y.  S is closed
    under products: for a, b in S,
    (x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y),
    using a, then b, then a, then b (with x = a) in S.  The identity is in S,
    so if the elements a generator set reaches by right multiplication
    cover the table, S is all of it and the table is associative.  The
    generators are `_span`'s greedy ones (the least element not yet
    reached, then close), tested in the order picked: one C-level gather of
    every row, mul[x*a] == mul[x] read through mul[a], so O(|G|^2) per
    generator.  A table whose picks all pass is a group, and then each pick
    at least doubles the closure, so at most log2 |G| generators are tested.
    A table over ``Limits.group_order`` rows is refused before any check.
    """
    n = len(mul)
    if n == 0:
        raise ValidationError("empty multiplication table")
    cap = limits.current().group_order
    if n > cap:
        raise ResourceLimitError(f"group table of {n} rows exceeds Limits.group_order = {cap}")
    for i, row in enumerate(mul):
        if len(row) != n:
            raise ValidationError(f"row {i} has length {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= n:
            v = next(v for v in row if not 0 <= v < n)
            raise ValidationError(f"entry {v} in row {i} out of range")
    for a in range(n):
        if mul[0][a] != a or mul[a][0] != a:
            raise ValidationError(f"index 0 is not an identity at element {a}")
    for a in range(n):
        if 0 not in mul[a]:
            raise ValidationError(f"element {a} has no inverse")
    for a in _span(mul, set(range(n))):
        through_a = _gather(mul[a])  # row x -> the row y -> x*(a*y)
        for x, row in enumerate(mul):
            if tuple(mul[row[a]]) != through_a(row):
                y = next(y for y, v in enumerate(through_a(row)) if mul[row[a]][y] != v)
                raise ValidationError(f"associativity fails on triple ({x}, {a}, {y})")


_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _commute_masks(mul) -> tuple[int, ...]:
    """Bit b of entry a is set when a*b == b*a: row a == column a, read in binary."""
    return tuple(int(bytes(map(eq, row, col)).translate(_BITS)[::-1], 2)
                 for row, col in zip(mul, zip(*mul)))


# -- construction -----------------------------------------------------------


def _compose(p, q):
    # apply q first, then p
    return tuple(p[i] for i in q)


def group_from_permutations(generators) -> FiniteGroup:
    """Close permutation generators into a group.

    Each generator is a sequence ``p`` with ``p[i]`` the image of ``i``; all
    must act on the same ground set.  Elements are discovered breadth-first
    from the identity, multiplying by generators in input order on the
    right, so the index assignment is deterministic.  Multiplication is
    ``(a*b)(i) = a(b(i))``.  Closure stops at ``Limits.group_order``.

    The table is built along the search tree: each new element b was found
    as a * gens[i], so its row is row a read through the row of gens[i],
    mul[b][y] = mul[a][mul[gens[i]][y]], one C-level gather with one getter
    per generator.  Only the generators' rows are composed as permutations,
    |G| compositions each.  The inverses come off the same tree:
    b^-1 = gens[i]^-1 * a^-1.
    """
    cap = limits.current().group_order
    gens = [_as_tuple(g, "each generator") for g in _as_tuple(generators, "generators")]
    degree = len(gens[0]) if gens else 1
    for g in gens:
        if len(g) != degree or not all(map(_is_index, g)) or sorted(g) != list(range(degree)):
            raise ValidationError(f"generator {g} is not a permutation of 0..{degree - 1}")
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    edges = []  # (b, i, a): elements[b] = elements[a] * gens[i]
    moves = [_gather(g) for g in gens]  # p -> p * g
    for a, p in enumerate(elements):  # grows while it is walked
        for i, move in enumerate(moves):
            b = move(p)
            if b not in index:
                if len(elements) >= cap:
                    raise ResourceLimitError(
                        f"group closure exceeds Limits.group_order = {cap}"
                    )
                index[b] = len(elements)
                edges.append((len(elements), i, a))
                elements.append(b)
    gen_idx = [index[g] for g in gens]
    reads = [_gather([index[_compose(g, q)] for q in elements]) for g in gens]
    rows = [None] * len(elements)
    rows[0] = tuple(range(len(elements)))
    for b, i, a in edges:
        rows[b] = reads[i](rows[a])
    # By induction along the tree, row b is the composition table's row of
    # elements[b], so associativity is inherited from composition of functions.
    gen_inv = [rows[s].index(0) for s in gen_idx]
    inv = [0] * len(elements)
    for b, i, a in edges:
        inv[b] = rows[gen_inv[i]][inv[a]]
    return FiniteGroup(tuple(rows), generators=gen_idx, perms=elements, inv=tuple(inv),
                       _validated=True)


def _left_tree(group: FiniteGroup, gens: tuple[int, ...]):
    """(gens, edges) as in `FiniteGroup.spanning_tree`, or None if gens fall short."""
    mul = group.mul
    reached = [False] * group.order
    reached[0] = True
    edges = []
    queue = [0]
    for a in queue:
        for i, s in enumerate(gens):
            b = mul[s][a]
            if not reached[b]:
                reached[b] = True
                edges.append((b, i, a))
                queue.append(b)
    if len(queue) < group.order:
        return None
    return gens, tuple(edges)


def extend_along_generators(group: FiniteGroup, images: dict, identity, compose,
                            failure: str) -> list:
    """Extend a homomorphism given on generators to every element.

    ``images`` maps generator indices to their images; every other element
    is reached along a spanning tree (the group's own when ``images`` names
    its generators) as s*a from an element a already known, with
    image(s*a) = compose(image(s), image(a)).  Returns the images in element
    order, or raises ``ValidationError(failure)`` when the generators do not
    reach the whole group.  Callers validate the result, since the rule is
    only checked along the tree.
    """
    gens = tuple(images)
    tree = group.spanning_tree()
    if tree[0] != gens:
        tree = _left_tree(group, gens)
        if tree is None:
            raise ValidationError(failure)
    known = [identity] * group.order
    for b, i, a in tree[1]:
        known[b] = compose(images[gens[i]], known[a])
    return known


def group_from_table(table) -> FiniteGroup:
    """Validate an explicit multiplication table (indices, identity first)."""
    mul = tuple(tuple(row) for row in table)
    return FiniteGroup(mul)


def trivial_group() -> FiniteGroup:
    return FiniteGroup(((0,),), _validated=True)


# -- subgroups --------------------------------------------------------------


def _close(mul, reached: list, seen: set, gens: list, s: int, inside=None, cap=None) -> bool:
    """Add generator ``s`` to ``gens`` and extend ``reached`` to the new closure.

    ``reached`` (``seen`` is its set) must be closed under right
    multiplication by ``gens``.  Then it is enough to multiply the old
    elements by ``s`` and each new element by every generator, so a whole
    closure costs O(|closure| * #gens).  A product outside ``inside``, when
    given, raises ``ValidationError``.  Returns ``True`` when the closure is
    complete, or ``False`` as soon as ``reached`` holds more than ``cap``
    elements.
    """
    gens.append(s)
    old = len(reached)
    cap = len(mul) if cap is None else cap
    i = 0
    while i < len(reached) <= cap:
        a = reached[i]
        row = mul[a]
        for t in (gens if i >= old else (s,)):
            b = row[t]
            if b not in seen:
                if inside is not None and b not in inside:
                    raise ValidationError(
                        f"subgroup not closed under product at ({a}, {t})"
                    )
                seen.add(b)
                reached.append(b)
        i += 1
    return len(reached) <= cap


def _span(mul, inside: set, gens=None) -> tuple[int, ...]:
    """Generators whose closure is exactly ``inside``, an index set holding 0.

    Closes ``gens`` when given.  Otherwise picks greedy generators: the least
    element not yet reached, then close again.  Each pick at least doubles
    the closure (Lagrange), so there are at most log2 |inside| of them.
    Raises ``ValidationError`` when a product leaves ``inside`` or the
    closure ends short of it.
    """
    reached, seen, taken = [0], {0}, []
    for s in (sorted(inside) if gens is None else gens):
        if s not in seen:
            _close(mul, reached, seen, taken, s, inside)
    if len(reached) != len(inside):
        raise ValidationError(
            f"generators {tuple(gens)} do not generate the subgroup: "
            f"element {min(inside - seen)} is not reached"
        )
    return tuple(taken) if gens is None else tuple(gens)


def _is_index(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _index(x, n: int, what: str) -> int:
    """``x`` if it is an int in 0..n-1; else a `ValidationError` naming it."""
    if _is_index(x) and 0 <= x < n:
        return x
    raise ValidationError(f"{what} {x!r} is not an index in 0..{n - 1}")


def _as_tuple(values, what: str) -> tuple:
    try:  # an argument that is not iterable is malformed input, refused by name
        return tuple(values)
    except TypeError:
        raise ValidationError(f"{what} must be iterable, got {values!r}") from None


def _pairs(values, what: str) -> list[tuple]:
    """``values`` as a list of 2-tuples, or a ValidationError naming them."""
    pairs = [_as_tuple(pair, f"each of the {what}") for pair in _as_tuple(values, what)]
    if any(len(pair) != 2 for pair in pairs):
        raise ValidationError(f"{what} must be pairs, got {values!r}")
    return pairs


class Subgroup:
    """A validated subgroup: its sorted element set and generators for it.

    ``elements`` must be a strictly increasing tuple of indices of
    ``parent`` starting at the identity 0.  ``generators`` must lie in that
    set and their closure must equal it; when they are omitted a greedy set
    is taken (the least element not yet reached, then close), at most
    log2 |H| of them.  The closure multiplies by generators only, so
    validation costs O(|H| * #generators) rather than the O(|H|^2) of
    checking every product.  A non-integer, out-of-range, repeated or
    unsorted element, a generator outside the set, a product leaving the
    set or a closure short of it raises ``ValidationError``.  Two subgroups
    are equal when their parents and element sets are; the generators take
    no part in ``==`` or ``hash``.
    """

    __slots__ = ("parent", "elements", "generators")

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...], generators=None):
        self.parent, self.elements = parent, elements
        elems = elements
        if not isinstance(elems, tuple):
            raise ValidationError(f"subgroup elements must be a tuple, got {elems!r}")
        n = parent.order
        for e in elems:
            _index(e, n, "subgroup element")
        for a, b in zip(elems, elems[1:]):
            if b <= a:
                what = "repeated" if a == b else "out of order"
                raise ValidationError(f"subgroup element {b} is {what}")
        if not elems or elems[0] != 0:
            raise ValidationError("subgroup must contain the identity (index 0)")
        eset = set(elems)
        gens = generators
        if gens is not None:
            gens = tuple(gens)
            for s in gens:
                if not _is_index(s) or s not in eset:
                    raise ValidationError(
                        f"generator {s!r} is not an element of the subgroup"
                    )
        self.generators = _span(parent.mul, eset, gens)

    def __eq__(self, other):
        if type(other) is not Subgroup:
            return NotImplemented
        return (self.parent, self.elements) == (other.parent, other.elements)

    def __hash__(self):
        return hash((self.parent, self.elements))

    @property
    def order(self) -> int:
        return len(self.elements)

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Re-index as a standalone group; returns (group, parent indices).

        The group records the re-indexed generators, so G-sets over it are
        stored with one column per generator.  Cached on the parent so
        repeated stabilizer lookups share class tables and conjugation data.
        """
        elems = self.elements
        cached = self.parent._sub_groups.get(elems)
        if cached is not None:
            return cached, elems
        pos = [0] * self.parent.order
        for i, e in enumerate(elems):
            pos[e] = i
        pick = _gather(elems)
        mul = tuple(_gather(pick(row))(pos) for row in pick(self.parent.mul))
        small = FiniteGroup(mul, generators=[pos[s] for s in self.generators],
                            inv=_gather(pick(self.parent.inv))(pos), _validated=True)
        self.parent._sub_groups[elems] = small
        return small, elems


def subgroup(parent: FiniteGroup, elements) -> Subgroup:
    """The subgroup with these elements, in any order, with greedy generators."""
    elements = _as_tuple(elements, "subgroup elements")
    try:
        elements = tuple(sorted(elements))
    except TypeError:
        pass  # Subgroup names the element that is not an integer
    return Subgroup(parent, elements)


def _zuppos(group: FiniteGroup) -> tuple[list[int], dict[int, int]]:
    """Cyclic subgroups of prime-power order > 1 ("zuppos").

    Returns the least generator of each, and for every element of
    prime-power order the position of the zuppo it generates.
    """
    mul = group.mul
    gens, position, zuppo_of = [], {}, {}
    for g in range(1, group.order):
        powers = [g]
        while powers[-1] != 0:
            powers.append(mul[powers[-1]][g])
        k = len(powers)
        p = next(d for d in range(2, k + 1) if k % d == 0)
        while k % p == 0:
            k //= p
        if k == 1:
            cyclic = frozenset(powers)
            if cyclic not in position:
                position[cyclic] = len(gens)
                gens.append(g)
            zuppo_of[g] = position[cyclic]
    return gens, zuppo_of


def _subgroup_classes(parent: FiniteGroup) -> list[dict]:
    """Conjugacy classes of subgroups by cyclic extension (Neubüser 1960).

    Every subgroup is generated by its zuppos, and dropping one zuppo from
    a shortest such generating list leaves a proper subgroup.  So, starting
    from the trivial group, every class is reached by extending each class
    representative K by the zuppos not in K.  Zuppos conjugate under the
    normalizer of K give conjugate extensions, so one per normalizer orbit
    is enough.  The normalizer is read off the table: the g with g k g^-1
    in K for each of K's generators k.  A new closure's whole class is
    enumerated once, as its orbit under conjugation by the spanning-tree
    generators, whose rows are the only conjugation rows read.  Each class
    is a dict from a member's sorted elements to generators of that member
    (the extended ones, conjugated along the orbit).  Once G itself is
    known, a closure is stopped past |G|/2 elements and skipped as known:
    by Lagrange a subgroup with more than |G|/2 elements is G.
    """
    mul, inv = parent.mul, parent.inv
    moves = [parent.conj_row(s) for s in parent.spanning_tree()[0]]
    zuppos, zuppo_of = _zuppos(parent)
    classes = [{(0,): ()}]
    known = {(0,)}
    cap = None
    for cls in classes:  # grows while it is walked
        rep = min(cls)
        in_rep = set(rep)
        normalizer = range(parent.order)
        for k in cls[rep]:
            normalizer = [g for g in normalizer if mul[mul[g][k]][inv[g]] in in_rep]
        done = set()
        for z in zuppos:
            if z in in_rep or zuppo_of[z] in done:
                continue
            done.update([zuppo_of[mul[mul[g][z]][inv[g]]] for g in normalizer])
            reached, seen, gens = list(rep), set(in_rep), list(cls[rep])
            if not _close(mul, reached, seen, gens, z, cap=cap):
                continue  # G, already known
            elems = tuple(sorted(reached))
            if elems in known:
                continue
            orbit = {elems: tuple(gens)}
            queue = [elems]
            for h in queue:
                for row in moves:
                    image = tuple(sorted(map(row.__getitem__, h)))
                    if image not in orbit:
                        orbit[image] = tuple(row[x] for x in orbit[h])
                        queue.append(image)
            known.update(orbit)
            classes.append(orbit)
            if len(elems) == parent.order:
                cap = parent.order // 2
    return classes


def all_subgroups(parent: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, sorted by (order, elements).

    The union of the conjugacy classes found by cyclic extension (see
    `subgroup_conjugacy_reps`); each subgroup carries the generators it was
    found with, and is validated on them.
    """
    members = [m for cls in _subgroup_classes(parent) for m in cls.items()]
    members.sort(key=lambda m: (len(m[0]), m[0]))
    return [Subgroup(parent, elems, gens) for elems, gens in members]


def subgroup_conjugacy_reps(parent: FiniteGroup) -> list[Subgroup]:
    """One subgroup per conjugacy class of subgroups, sorted by (order, elements).

    Found by Neubüser's cyclic extension method (as in GAP's
    ``LatticeByCyclicExtension``): from the trivial group, each class
    representative is extended by the cyclic subgroups of prime-power order
    outside it, one per orbit of its normalizer, and each new class is
    enumerated once by conjugation.  The representative of a class is its
    least member in (order, elements) order and carries the conjugated
    generators; no pass over all subgroups is made.
    """
    reps = [min(cls.items()) for cls in _subgroup_classes(parent)]
    reps.sort(key=lambda m: (len(m[0]), m[0]))
    return [Subgroup(parent, elems, gens) for elems, gens in reps]


# -- conjugacy structure ----------------------------------------------------


class OrbitDecomposition:
    """The sorted orbits of an action, each represented by its least point.

    ``transporter[x]`` is a g with x = g.representative and ``stabilizers[o]``
    the sorted stabilizer of orbit o's representative (for conjugation: the
    classes and centralizers), kept as a `Subgroup` in ``_subgroups`` once
    `FiniteGSet.stabilizer` asks.
    """

    __slots__ = ("orbits", "representatives", "stabilizers", "stabilizer_orders",
                 "orbit_of", "transporter", "_subgroups")

    def __init__(self, orbits, representatives, stabilizers, orbit_of, transporter):
        self.orbits, self.representatives, self.orbit_of = orbits, representatives, orbit_of
        self.stabilizers, self.transporter = stabilizers, transporter
        self.stabilizer_orders = tuple(map(len, stabilizers))
        self._subgroups = {}  # orbit -> its representative's stabilizer

    @property
    def count(self) -> int:
        return len(self.orbits)


def conjugacy_classes(group: FiniteGroup) -> OrbitDecomposition:
    """The orbit table of conjugation h -> g h g^-1, swept along the generators'
    rows (the stabilizers are the representatives' centralizers); cached."""
    if group._classes is None:
        rows = [group.conj_row(s) for s in group.spanning_tree()[0]]
        group._classes = _action_orbits(group, group.order, rows)
    return group._classes


def _action_orbits(group: FiniteGroup, size: int, cols, *, check=False) -> OrbitDecomposition:
    """The orbit table of the action on 0..size-1 whose generator columns are ``cols``.

    ``cols[i]`` is the column of the i-th spanning-tree generator.  Each orbit
    is swept from its least point, its representative; z reached as s.y gets
    the transporter s * t(y).  The representative's stabilizer is kept: the
    sorted elements, walked along the tree's edges, whose image of it is
    itself, or every element, without the walk, for a point every generator
    fixes.  Orbit size times stabilizer order must be |G|.  With ``check``
    (G-set validation) the walked row images[g] = g.x must also satisfy
    images[s*h] == cols[s][images[h]] for every element h and generator s
    (then, by induction on word length, the columns act on the orbit), and a
    one-point orbit is fixed only if every column fixes it: a column that is
    not a bijection may send it into an earlier orbit.
    """
    gens, edges = group.spanning_tree()
    mul, n = group.mul, group.order
    everything = tuple(range(n))
    moves = list(zip(gens, cols))
    orbit_of = [-1] * size
    transporter = [0] * size
    found, stabs = [], []
    for x in range(size):
        if orbit_of[x] >= 0:
            continue
        idx = len(found)
        orbit_of[x] = idx
        members = [x]
        for y in members:  # grows while it is walked
            t = transporter[y]
            for s, col in moves:
                z = col[y]
                if orbit_of[z] < 0:
                    orbit_of[z] = idx
                    transporter[z] = mul[s][t]
                    members.append(z)
        if len(members) == 1 and (not check or all(col[x] == x for col in cols)):
            stab = everything  # fixed by every generator, so by the whole group
        else:
            images = [x] * n  # images[g] = g.x
            for b, i, a in edges:
                images[b] = cols[i][images[a]]
            for i, s in enumerate(gens if check else ()):  # images[s*h] == s.images[h]
                lhs = list(map(images.__getitem__, mul[s]))
                rhs = list(map(cols[i].__getitem__, images))
                if lhs != rhs:
                    h = next(h for h, (p, q) in enumerate(zip(lhs, rhs)) if p != q)
                    raise ValidationError(
                        f"action is not compatible with multiplication at (x={x}, g={s}, h={h})"
                        if h else f"generator column {i} disagrees with element {s} at point {x}")
            stab = tuple(compress(everything, map(x.__eq__, images)))
        if len(members) * len(stab) != n:
            raise ValidationError(
                f"orbit of {x} has size {len(members)} but stabilizer order {len(stab)}"
            )
        members.sort()
        found.append(tuple(members))
        stabs.append(stab)
    reps = tuple(orbit[0] for orbit in found)
    return OrbitDecomposition(tuple(found), reps, tuple(stabs), tuple(orbit_of), tuple(transporter))


def centralizer(group: FiniteGroup, elems) -> Subgroup:
    """The subgroup commuting with every listed element."""
    elems = _as_tuple(elems, "centralizer elements")
    if not elems:
        raise ValidationError("centralizer needs at least one element")
    for x in elems:
        _index(x, group.order, "centralizer element")
    mul = group.mul
    members = [
        g
        for g in range(group.order)
        if all(mul[g][x] == mul[x][g] for x in elems)
    ]
    return Subgroup(group, tuple(members))


# -- commuting tuples -------------------------------------------------------


def count_commuting_tuples(group: FiniteGroup, m: int, algorithm: str = "recursive") -> int:
    """Number of m-tuples of pairwise commuting elements.

    ``algorithm`` is "brute" (enumerate, subject to ``Limits.tuples``) or
    "recursive" (sum class_size * count over centralizers, one level down).
    Both are exposed because agreeing answers from the two are the test
    oracle for everything built on top of them.
    """
    check_depth(m, "tuple length")
    if algorithm == "recursive":
        return _commuting_recursive(group, tuple(range(group.order)), m, {})[m]
    if algorithm == "brute":
        cap = limits.current().tuples
        if group.order**m > cap:
            raise ResourceLimitError(
                f"{group.order}^{m} tuples exceed Limits.tuples = {cap}"
            )
        return _commuting_brute(group, m)
    raise ValidationError(f"unknown algorithm {algorithm!r}")


def commuting_tuple_counts(group: FiniteGroup, masks: dict[int, int], m: int) -> list[int]:
    """[N_0..N_m], N_k the weighted k-tuples of pairwise commuting elements
    drawn from each mask (bit h set for element h) of ``{mask: weight}``.

    A (k-1)-tuple counts only through its extension mask (the members of its
    mask commuting with all its entries), which many tuples share.  So a
    level holds {extension mask: weight}: a step sends the weight of ``mask``
    to ``mask & commute_masks[h]`` for each bit h of ``mask``, and N_k sums
    weight * popcount over level k - 1.  The work grows with the number of
    distinct masks, not with the count.
    """
    check_depth(m, "tuple length")
    commutes = group.commute_masks()
    level = masks
    counts = [sum(level.values())]
    for k in range(1, m + 1):
        counts.append(sum(w * mask.bit_count() for mask, w in level.items()))
        if k < m:
            above = {}
            for mask, w in level.items():
                for h in _set_bits(mask):
                    c = mask & commutes[h]
                    above[c] = above.get(c, 0) + w
            level = above
    return counts


_SELECT = bytes.maketrans(b"01", b"\x00\x01")


def _set_bits(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first: its binary digits select positions."""
    return list(compress(range(mask.bit_length()), bin(mask)[:1:-1].encode().translate(_SELECT)))


def _commuting_brute(group: FiniteGroup, m: int) -> int:
    # The deliberately plain oracle: scan all |G|^m tuples and check every
    # pair, reading nothing but the table (not the group's cached commute
    # masks, classes or centralizers, which the other routes use; its own
    # masks, built from the table, sit in a slot no other route reads).
    # Each (m-1)-prefix is checked pair by pair, and its |G| extensions at
    # once: the last entry must lie in the AND of the prefix masks.
    if m == 0:
        return 1
    if group._brute_masks is None:
        group._brute_masks = _commute_masks(group.mul)
    masks = group._brute_masks
    full = (1 << group.order) - 1
    total = 0
    for prefix in product(range(group.order), repeat=m - 1):
        common = full
        for a in prefix:
            if not common >> a & 1:
                break
            common &= masks[a]
        else:
            total += common.bit_count()
    return total


def _commuting_recursive(group, elems, m, memo):
    """[N_0..N_m], N_k = sum over classes of |class| * N_(k-1)(centralizer).

    Central classes are summed in the loop over k and the rest recur on
    proper centralizers, so the depth is a centralizer chain, not m.
    """
    if m <= 1:
        return [1, len(elems)][:m + 1]
    if (elems, m) in memo:
        return memo[elems, m]
    mul, inv = group.mul, group.inv
    eset, remaining = set(elems), set(elems)
    central, others = 0, []
    while remaining:
        h = min(remaining)
        orbit = {mul[mul[g][h]][inv[g]] for g in elems}
        if not orbit <= eset:
            raise ConsistencyError(f"class of {h} leaves a centralizer it was taken in")
        remaining -= orbit
        if len(orbit) == 1:
            central += 1
            continue
        cent = tuple(g for g in elems if mul[g][h] == mul[h][g])
        others.append((len(orbit), _commuting_recursive(group, cent, m - 1, memo)))
    counts = [1]
    for k in range(1, m + 1):
        counts.append(central * counts[-1] + sum(size * sub[k - 1] for size, sub in others))
    memo[elems, m] = counts
    return counts


# -- products ---------------------------------------------------------------


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    """Direct product with elements ordered as (i, j) -> i * |B| + j."""
    nb = b.order
    n = a.order * nb
    mul = tuple(
        tuple(
            a.mul[x // nb][y // nb] * nb + b.mul[x % nb][y % nb]
            for y in range(n)
        )
        for x in range(n)
    )
    gens = None
    if a.generators is not None and b.generators is not None:
        gens = [g * nb for g in a.generators] + list(b.generators)
    return FiniteGroup(mul, generators=gens, _validated=True)
