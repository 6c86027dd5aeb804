"""Finite groups as validated Cayley tables.

Elements are indices 0..n-1 with the identity at index 0.  Groups come from
permutation generators (closed by breadth-first search, so the element
order is reproducible) or from explicit multiplication tables.  Everything
downstream -- conjugacy classes, centralizers, commuting-tuple counts --
is plain table arithmetic, which is the right trade at the scale this
package works at (orders in the hundreds, not millions).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import limits
from .errors import ResourceLimitError, ValidationError


class FiniteGroup:
    """Immutable finite group on indices 0..order-1, identity at 0."""

    __slots__ = ("order", "mul", "inv", "generators", "perms", "_classes",
                 "_conj", "_commutes", "_tree", "_sub_groups")

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

    def commute_sets(self) -> tuple[frozenset[int], ...]:
        """Per element g, the set of elements commuting with g."""
        if self._commutes is None:
            mul, n = self.mul, self.order
            self._commutes = tuple(
                frozenset(h for h in range(n) if mul[g][h] == mul[h][g])
                for g in range(n)
            )
        return self._commutes

    def spanning_tree(self) -> tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]:
        """Generators and a breadth-first tree of left multiplication by them.

        Returns ``(gens, edges)``.  ``gens`` are the recorded generators when
        they generate the group, otherwise every non-identity element.
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
                self._tree = _left_tree(self, tuple(range(1, self.order)))
        return self._tree

    def element_order(self, g: int) -> int:
        order = 1
        acc = g
        while acc != 0:
            acc = self.mul[acc][g]
            order += 1
        return order

    def is_abelian(self) -> bool:
        mul = self.mul
        return all(
            mul[a][b] == mul[b][a]
            for a in range(self.order)
            for b in range(a + 1, self.order)
        )

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
    queue = [identity]
    while queue:
        nxt = []
        for a in queue:
            for g in gens:
                b = _compose(a, g)
                if b not in index:
                    if len(elements) >= cap:
                        raise ResourceLimitError(
                            f"group closure exceeds Limits.group_order = {cap}"
                        )
                    index[b] = len(elements)
                    elements.append(b)
                    nxt.append(b)
        queue = nxt
    n = len(elements)
    mul = tuple(
        tuple(index[_compose(elements[a], elements[b])] for b in range(n))
        for a in range(n)
    )
    gen_idx = [index[g] for g in gens]
    # Associativity is inherited from composition of functions.
    return FiniteGroup(mul, generators=gen_idx, perms=elements, _validated=True)


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


@dataclass(frozen=True)
class Subgroup:
    """A validated subgroup, stored as its sorted element set."""

    parent: FiniteGroup
    elements: tuple[int, ...]

    def __post_init__(self):
        elems = self.elements
        if not elems or elems[0] != 0:
            raise ValidationError("subgroup must contain the identity (index 0)")
        eset = set(elems)
        mul, inv = self.parent.mul, self.parent.inv
        for a in elems:
            if inv[a] not in eset:
                raise ValidationError(f"subgroup not closed under inverse at {a}")
            for b in elems:
                if mul[a][b] not in eset:
                    raise ValidationError(
                        f"subgroup not closed under product at ({a}, {b})"
                    )

    @property
    def order(self) -> int:
        return len(self.elements)

    def as_group(self) -> tuple[FiniteGroup, tuple[int, ...]]:
        """Re-index as a standalone group; returns (group, parent indices).

        Cached on the parent so repeated stabilizer lookups share class
        tables and conjugation data.
        """
        elems = self.elements
        cached = self.parent._sub_groups.get(elems)
        if cached is not None:
            return cached, elems
        pos = {e: i for i, e in enumerate(elems)}
        mul = tuple(
            tuple(pos[self.parent.mul[a][b]] for b in elems) for a in elems
        )
        small = FiniteGroup(mul, _validated=True)
        self.parent._sub_groups[elems] = small
        return small, elems


def subgroup(parent: FiniteGroup, elements) -> Subgroup:
    return Subgroup(parent, tuple(sorted(set(elements))))


def generated_subgroup(parent: FiniteGroup, gens) -> Subgroup:
    elems = {0}
    queue = [0]
    mul = parent.mul
    while queue:
        a = queue.pop()
        for g in gens:
            b = mul[a][g]
            if b not in elems:
                elems.add(b)
                queue.append(b)
    return Subgroup(parent, tuple(sorted(elems)))


def all_subgroups(parent: FiniteGroup) -> list[Subgroup]:
    """Every subgroup, found by closing known subgroups with one new element.

    Exponential in the worst case but instant at this package's scale.
    Returned sorted by (order, elements) for reproducibility.
    """
    seen = {(0,)}
    frontier = [(0,)]
    while frontier:
        fresh = []
        for elems in frontier:
            eset = set(elems)
            for g in range(1, parent.order):
                if g in eset:
                    continue
                bigger = generated_subgroup(parent, list(elems) + [g]).elements
                if bigger not in seen:
                    seen.add(bigger)
                    fresh.append(bigger)
        frontier = fresh
    return [Subgroup(parent, e) for e in sorted(seen, key=lambda e: (len(e), e))]


def subgroup_conjugacy_reps(parent: FiniteGroup) -> list[Subgroup]:
    """One subgroup per conjugacy class of subgroups."""
    reps = []
    seen = set()
    for sub in all_subgroups(parent):
        if sub.elements in seen:
            continue
        reps.append(sub)
        for g in range(parent.order):
            seen.add(tuple(sorted(parent.conj(g, h) for h in sub.elements)))
    return reps


# -- conjugacy structure ----------------------------------------------------


@dataclass(frozen=True)
class ConjClassTable:
    """Conjugacy classes of a group; representatives are minimal indices."""

    classes: tuple[tuple[int, ...], ...]
    representatives: tuple[int, ...]
    class_sizes: tuple[int, ...]
    centralizer_orders: tuple[int, ...]
    class_of: tuple[int, ...]

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
    if m < 0:
        raise ValidationError(f"tuple length must be >= 0, got {m}")
    if algorithm in ("recursive", "centralizer-recursive"):
        memo: dict = {}
        return _commuting_recursive(group, tuple(range(group.order)), m, memo)
    if algorithm == "brute":
        cap = limits.current().tuples
        if group.order**m > cap:
            raise ResourceLimitError(
                f"{group.order}^{m} tuples exceed Limits.tuples = {cap}"
            )
        return _commuting_brute(group, m)
    raise ValidationError(f"unknown algorithm {algorithm!r}")


def commuting_prefixes(group: FiniteGroup, elems, m: int):
    """Walk the m-tuples of pairwise commuting elements drawn from ``elems``.

    Yields ``(prefix, last)`` once per pairwise commuting (m-1)-tuple
    ``prefix``, where ``last`` lists the members of ``elems`` commuting with
    every entry of ``prefix``; the m-tuples are exactly ``prefix + (h,)``
    for ``h`` in ``last``.  Prefixes come in lexicographic order when
    ``elems`` is sorted.  Reads the group's cached commute sets.
    """
    if m < 1:
        raise ValidationError(f"tuple length must be >= 1, got {m}")
    commutes = group.commute_sets()
    stack = [((), list(elems))]
    while stack:
        prefix, candidates = stack.pop()
        if len(prefix) == m - 1:
            yield prefix, candidates
            continue
        for h in reversed(candidates):
            with_h = commutes[h]
            stack.append((prefix + (h,), [t for t in candidates if t in with_h]))


def _commuting_brute(group: FiniteGroup, m: int) -> int:
    # The deliberately dumb oracle: scan all |G|^m tuples, check all pairs.
    if m == 0:
        return 1
    from itertools import product

    mul = group.mul
    total = 0
    for tup in product(range(group.order), repeat=m):
        if all(
            mul[tup[i]][tup[j]] == mul[tup[j]][tup[i]]
            for i in range(m)
            for j in range(i + 1, m)
        ):
            total += 1
    return total


def _commuting_recursive(group, elems, m, memo):
    if m == 0:
        return 1
    if m == 1:
        return len(elems)
    key = (elems, m)
    if key in memo:
        return memo[key]
    mul, inv = group.mul, group.inv
    eset = set(elems)
    remaining = set(elems)
    total = 0
    while remaining:
        h = min(remaining)
        orbit = {mul[mul[g][h]][inv[g]] for g in elems}
        assert orbit <= eset
        remaining -= orbit
        cent = tuple(
            g for g in elems if mul[g][h] == mul[h][g]
        )
        total += len(orbit) * _commuting_recursive(group, cent, m - 1, memo)
    memo[key] = total
    return total


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
