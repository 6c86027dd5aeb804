"""Finite groups as validated Cayley tables.

Elements are indices 0..n-1 with the identity at index 0.  Groups come from
permutation generators (closed by breadth-first search, so the element
order is reproducible) or from explicit multiplication tables.  Everything
downstream -- conjugacy classes, centralizers, subgroup lattices,
commuting-tuple counts -- is plain table arithmetic, which is the right
trade at the scale this package works at (orders in the hundreds, not
millions).  The two kernels that touch all |G|^2 products work a whole row
at a time: the closure builds each row from an earlier one read through a
generator's row, and the brute commuting count tests a tuple's last entry
against the AND of per-element commute bitmasks.
"""

from __future__ import annotations

from itertools import product
from operator import eq

from . import limits
from .errors import ConsistencyError, ResourceLimitError, ValidationError, check_depth


class FiniteGroup:
    """Immutable finite group on indices 0..order-1, identity at 0."""

    __slots__ = ("order", "mul", "inv", "generators", "perms", "_classes",
                 "_conj", "_commutes", "_brute_masks", "_tree", "_sub_groups")

    def __init__(self, mul: tuple[tuple[int, ...], ...], *, generators=None,
                 perms=None, _validated=False):
        self.order = len(mul)
        self.mul = mul
        if not _validated:
            _check_table(mul)
        self.inv = _inverse_vector(mul)
        self.generators = tuple(generators) if generators else None
        self.perms = tuple(perms) if perms else None
        self._classes = None
        self._conj = None
        self._commutes = None
        self._brute_masks = None  # read only by _commuting_brute
        self._tree = None
        self._sub_groups = {}

    def conj(self, g: int, h: int) -> int:
        """g * h * g^-1."""
        return self.mul[self.mul[g][h]][self.inv[g]]

    def conj_table(self) -> tuple[tuple[int, ...], ...]:
        if self._conj is None:
            mul, inv = self.mul, self.inv
            self._conj = tuple(
                tuple(mul[mul[g][h]][inv[g]] for h in range(self.order))
                for g in range(self.order)
            )
        return self._conj

    def commute_masks(self) -> tuple[int, ...]:
        """Per element g, a bitmask with bit h set when g*h == h*g."""
        if self._commutes is None:
            self._commutes = _commute_masks(self.mul)
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
        full = (1 << self.order) - 1
        return all(mask == full for mask in self.commute_masks())

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def _check_table(mul) -> None:
    n = len(mul)
    if n == 0:
        raise ValidationError("empty multiplication table")
    for i, row in enumerate(mul):
        if len(row) != n:
            raise ValidationError(f"row {i} has length {len(row)}, expected {n}")
        for v in row:
            if not 0 <= v < n:
                raise ValidationError(f"entry {v} in row {i} out of range")
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
                    raise ValidationError(
                        f"associativity fails on triple ({a}, {b}, {c})"
                    )


_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _commute_masks(mul) -> tuple[int, ...]:
    """Bit b of entry a is set when a*b == b*a: row a == column a, read in binary."""
    return tuple(int(bytes(map(eq, row, col)).translate(_BITS)[::-1], 2)
                 for row, col in zip(mul, zip(*mul)))


def _inverse_vector(mul) -> tuple[int, ...]:
    n = len(mul)
    inv = [0] * n
    for a in range(n):
        inv[a] = mul[a].index(0)
    return tuple(inv)


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
    mul[b][y] = mul[a][mul[gens[i]][y]].  Only the generators' rows are
    composed as permutations, |G| compositions each.
    """
    cap = limits.current().group_order
    gens = [tuple(g) for g in generators]
    degree = len(gens[0]) if gens else 1
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValidationError(f"generator {g} is not a permutation of 0..{degree - 1}")
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    edges = []  # (b, i, a): elements[b] = elements[a] * gens[i]
    for a, p in enumerate(elements):  # grows while it is walked
        for i, g in enumerate(gens):
            b = _compose(p, g)
            if b not in index:
                if len(elements) >= cap:
                    raise ResourceLimitError(
                        f"group closure exceeds Limits.group_order = {cap}"
                    )
                index[b] = len(elements)
                edges.append((len(elements), i, a))
                elements.append(b)
    gen_idx = [index[g] for g in gens]
    gen_rows = [tuple(index[_compose(g, q)] for q in elements) for g in gens]
    rows = [None] * len(elements)
    rows[0] = tuple(range(len(elements)))
    for b, i, a in edges:
        rows[b] = tuple(map(rows[a].__getitem__, gen_rows[i]))
    # By induction along the tree, row b is the composition table's row of
    # elements[b], so associativity is inherited from composition of functions.
    return FiniteGroup(tuple(rows), generators=gen_idx, perms=elements, _validated=True)


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


def _close(mul, reached: list, seen: set, gens: list, s: int, inside=None) -> None:
    """Add generator ``s`` to ``gens`` and extend ``reached`` to the new closure.

    ``reached`` (``seen`` is its set) must be closed under right
    multiplication by ``gens``.  Then it is enough to multiply the old
    elements by ``s`` and each new element by every generator, so a whole
    closure costs O(|closure| * #gens).  A product outside ``inside``, when
    given, raises ``ValidationError``.
    """
    gens.append(s)
    old = len(reached)
    i = 0
    while i < len(reached):
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
            if not _is_index(e):
                raise ValidationError(f"subgroup element {e!r} is not an integer")
            if not 0 <= e < n:
                raise ValidationError(f"subgroup element {e} is out of range 0..{n - 1}")
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
        pos = {e: i for i, e in enumerate(elems)}
        mul = tuple(
            tuple(pos[self.parent.mul[a][b]] for b in elems) for a in elems
        )
        small = FiniteGroup(
            mul, generators=[pos[s] for s in self.generators], _validated=True
        )
        self.parent._sub_groups[elems] = small
        return small, elems


def subgroup(parent: FiniteGroup, elements) -> Subgroup:
    """The subgroup with these elements, in any order, with greedy generators."""
    elements = tuple(elements)
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
    is enough.  A new closure's whole class is enumerated once, as its orbit
    under conjugation by the parent's generators.  Each class is a dict
    from a member's sorted elements to generators of that member (the
    extended ones, conjugated along the orbit).
    """
    mul, conj = parent.mul, parent.conj_table()
    moves = parent.spanning_tree()[0]
    zuppos, zuppo_of = _zuppos(parent)
    classes = [{(0,): ()}]
    known = {(0,)}
    for cls in classes:  # grows while it is walked
        rep = min(cls)
        in_rep = set(rep)
        normalizer = [g for g in range(parent.order)
                      if all(conj[g][k] in in_rep for k in cls[rep])]
        done = set()
        for z in zuppos:
            if z in in_rep or zuppo_of[z] in done:
                continue
            done.update(zuppo_of[conj[g][z]] for g in normalizer)
            reached, seen, gens = list(rep), set(in_rep), list(cls[rep])
            _close(mul, reached, seen, gens, z)
            elems = tuple(sorted(reached))
            if elems in known:
                continue
            orbit = {elems: tuple(gens)}
            queue = [elems]
            for h in queue:
                for s in moves:
                    row = conj[s]
                    image = tuple(sorted(row[x] for x in h))
                    if image not in orbit:
                        orbit[image] = tuple(row[x] for x in orbit[h])
                        queue.append(image)
            known.update(orbit)
            classes.append(orbit)
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


class ConjClassTable:
    """Conjugacy classes of a group; representatives are minimal indices."""

    __slots__ = ("classes", "representatives", "class_sizes", "centralizer_orders", "class_of")

    def __init__(self, classes, representatives, class_sizes, centralizer_orders, class_of):
        self.classes, self.representatives, self.class_sizes = classes, representatives, class_sizes
        self.centralizer_orders, self.class_of = centralizer_orders, class_of

    @property
    def count(self) -> int:
        return len(self.classes)


def conjugacy_classes(group: FiniteGroup) -> ConjClassTable:
    if group._classes is not None:
        return group._classes
    n = group.order
    conj = group.conj_table()
    class_of = [-1] * n
    classes = []
    for h in range(n):
        if class_of[h] >= 0:
            continue
        orbit = sorted({conj[g][h] for g in range(n)})
        idx = len(classes)
        for x in orbit:
            class_of[x] = idx
        classes.append(tuple(orbit))
    sizes = tuple(len(c) for c in classes)
    cents = tuple(n // s for s in sizes)
    for s, z in zip(sizes, cents):
        if s * z != n:
            raise ValidationError("class size does not divide group order")
    table = ConjClassTable(
        classes=tuple(classes),
        representatives=tuple(c[0] for c in classes),
        class_sizes=sizes,
        centralizer_orders=cents,
        class_of=tuple(class_of),
    )
    group._classes = table
    return table


def centralizer(group: FiniteGroup, elems) -> Subgroup:
    """The subgroup commuting with every listed element."""
    elems = list(elems)
    if not elems:
        raise ValidationError("centralizer needs at least one element")
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
    if algorithm in ("recursive", "centralizer-recursive"):
        return _commuting_recursive(group, tuple(range(group.order)), m, {})[m]
    if algorithm == "brute":
        cap = limits.current().tuples
        if group.order**m > cap:
            raise ResourceLimitError(
                f"{group.order}^{m} tuples exceed Limits.tuples = {cap}"
            )
        return _commuting_brute(group, m)
    raise ValidationError(f"unknown algorithm {algorithm!r}")


def commuting_masks(group: FiniteGroup, mask: int, m: int):
    """Walk the m-tuples of pairwise commuting elements drawn from ``mask``.

    ``mask`` has bit h set for element h.  Once per pairwise commuting
    (m-1)-tuple drawn from it, in lexicographic order, yields the mask of
    its extensions: the members of ``mask`` commuting with all its entries.
    """
    if check_depth(m, "tuple length") < 1:
        raise ValidationError(f"tuple length must be >= 1, got {m}")
    masks = group.commute_masks()
    stack = [(mask, m - 1)]
    while stack:
        common, k = stack.pop()
        if k == 0:
            yield common
            continue
        rest = common
        while rest:  # highest bit first, so the lowest is walked first
            h = rest.bit_length() - 1
            rest ^= 1 << h
            stack.append((common & masks[h], k - 1))


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
