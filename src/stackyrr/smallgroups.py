"""Constructors for the standard small groups, and the full catalog of
isomorphism classes up to order 16.

The catalog exists so that exhaustive Euler-ladder sweeps can quantify over
"all groups of order <= n" without an external group database.  Each entry
is built from an explicit faithful permutation action or product/quotient
formula; the test suite certifies that the 42 entries up to order 16 are
pairwise non-isomorphic and match the classical counts per order.
"""

from __future__ import annotations

from .errors import ValidationError
from .grouptheory import (
    FiniteGroup,
    direct_product,
    group_from_permutations,
    trivial_group,
)


def _integer(n, what: str) -> int:
    """``n`` when it is an int; a bool, a float or any other value raises."""
    if type(n) is not int:
        raise ValidationError(f"{what} needs an integer n, got {n!r}")
    return n


def cyclic(n: int) -> FiniteGroup:
    if _integer(n, "cyclic group") < 1:
        raise ValidationError(f"cyclic group needs n >= 1, got {n}")
    if n == 1:
        return trivial_group()
    shift = tuple((i + 1) % n for i in range(n))
    return group_from_permutations([shift])


def symmetric(n: int) -> FiniteGroup:
    if _integer(n, "symmetric group") < 1:
        raise ValidationError(f"symmetric group needs n >= 1, got {n}")
    if n == 1:
        return trivial_group()
    swap = (1, 0) + tuple(range(2, n))
    cycle = tuple((i + 1) % n for i in range(n))
    return group_from_permutations([swap, cycle] if n > 2 else [swap])


def alternating(n: int) -> FiniteGroup:
    if _integer(n, "alternating group") < 3:
        return trivial_group()
    three = (1, 2, 0) + tuple(range(3, n))
    if n == 3:
        return group_from_permutations([three])
    if n % 2:
        big = tuple((i + 1) % n for i in range(n))
    else:
        big = (0,) + tuple(1 + (i + 1) % (n - 1) for i in range(n - 1))
    return group_from_permutations([three, big])


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n (n >= 1)."""
    if _integer(n, "dihedral group") < 1:
        raise ValidationError(f"dihedral group needs n >= 1, got {n}")
    if n == 1:
        return cyclic(2)
    rot = tuple((i + 1) % n for i in range(n))
    flip = tuple((-i) % n for i in range(n))
    return group_from_permutations([rot, flip])


def dicyclic(n: int) -> FiniteGroup:
    """The dicyclic group of order 4n: a^(2n)=e, b^2=a^n, b a b^-1 = a^-1.

    dicyclic(2) is the quaternion group Q8, dicyclic(4) is Q16.
    """
    if _integer(n, "dicyclic group") < 1:
        raise ValidationError(f"dicyclic group needs n >= 1, got {n}")
    two_n = 2 * n
    # elements (i, j) = a^i b^j with i mod 2n, j in {0, 1}
    def mul(x, y):
        i, j = x
        k, l = y
        if j == 0:
            i2, j2 = (i + k) % two_n, l
        else:
            i2, j2 = (i - k) % two_n, 1 - l
            if l == 1:
                i2 = (i2 + n) % two_n
        return i2, j2

    return _group_from_formula(
        [(i, j) for j in (0, 1) for i in range(two_n)], mul,
        generators=[(1, 0), (0, 1)],
    )


def abelian(*orders: int) -> FiniteGroup:
    """Direct product of cyclic groups of the given orders."""
    g = cyclic(orders[0]) if orders else trivial_group()
    for n in orders[1:]:
        g = direct_product(g, cyclic(n))
    return g


def _group_from_formula(elements, mul, *, generators=None) -> FiniteGroup:
    """The group on ``elements`` (identity first) under ``mul``, validated by `FiniteGroup`."""
    index = {e: i for i, e in enumerate(elements)}
    table = tuple(
        tuple(index[mul(a, b)] for b in elements) for a in elements
    )
    gen_idx = [index[g] for g in generators] if generators else None
    return FiniteGroup(table, generators=gen_idx)


def semidihedral16() -> FiniteGroup:
    # r: i -> i+1 and s: i -> 3i on Z/8 gives s r s^-1 = r^3.
    rot = tuple((i + 1) % 8 for i in range(8))
    twist = tuple((3 * i) % 8 for i in range(8))
    return group_from_permutations([rot, twist])


def modular16() -> FiniteGroup:
    # s: i -> 5i on Z/8 gives s r s^-1 = r^5 (the modular group of order 16).
    rot = tuple((i + 1) % 8 for i in range(8))
    twist = tuple((5 * i) % 8 for i in range(8))
    return group_from_permutations([rot, twist])


def z4_semidirect_z4() -> FiniteGroup:
    # (i, j)(k, l) = (i + (-1)^j k, j + l): the inverting action of Z4 on Z4.
    def mul(x, y):
        i, j = x
        k, l = y
        return ((i + (k if j % 2 == 0 else -k)) % 4, (j + l) % 4)

    return _group_from_formula(
        [(i, j) for j in range(4) for i in range(4)], mul,
        generators=[(1, 0), (0, 1)],
    )


def klein_semidirect_z4() -> FiniteGroup:
    # Z4 acting on Z2 x Z2 by swapping the coordinates.
    def mul(x, y):
        (u, v), j = x
        (w, t), l = y
        if j % 2:
            w, t = t, w
        return (((u + w) % 2, (v + t) % 2), (j + l) % 4)

    return _group_from_formula(
        [((u, v), j) for j in range(4) for u in (0, 1) for v in (0, 1)],
        mul,
        generators=[((1, 0), 0), ((0, 0), 1)],
    )


def pauli16() -> FiniteGroup:
    """The one-qubit Pauli group {i^a X^b Z^c}, order 16.

    This is the central product of the dihedral group of order 8 and Z4
    over their shared central involution (the only order-16 group that is
    neither a product nor a semidirect product from the lists above).
    """
    # element (a, b, c) = i^a X^b Z^c;  Z X = i^2 X Z when composing.
    def mul(x, y):
        a, b, c = x
        d, e, f = y
        return ((a + d + 2 * c * e) % 4, (b + e) % 2, (c + f) % 2)

    return _group_from_formula(
        [(a, b, c) for a in range(4) for b in (0, 1) for c in (0, 1)],
        mul,
        generators=[(0, 1, 0), (0, 0, 1), (1, 0, 0)],
    )


def group_catalog(max_order: int = 16) -> list[tuple[str, FiniteGroup]]:
    """All isomorphism classes of groups of order <= max_order (max 16)."""
    if max_order > 16:
        raise ValidationError("catalog covers orders up to 16 only")
    entries: list[tuple[str, FiniteGroup]] = [
        ("1", trivial_group()),
        ("Z2", cyclic(2)),
        ("Z3", cyclic(3)),
        ("Z4", cyclic(4)),
        ("Z2^2", abelian(2, 2)),
        ("Z5", cyclic(5)),
        ("Z6", cyclic(6)),
        ("S3", symmetric(3)),
        ("Z7", cyclic(7)),
        ("Z8", cyclic(8)),
        ("Z4xZ2", abelian(4, 2)),
        ("Z2^3", abelian(2, 2, 2)),
        ("D4", dihedral(4)),
        ("Q8", dicyclic(2)),
        ("Z9", cyclic(9)),
        ("Z3^2", abelian(3, 3)),
        ("Z10", cyclic(10)),
        ("D5", dihedral(5)),
        ("Z11", cyclic(11)),
        ("Z12", cyclic(12)),
        ("Z6xZ2", abelian(6, 2)),
        ("D6", dihedral(6)),
        ("A4", alternating(4)),
        ("Dic3", dicyclic(3)),
        ("Z13", cyclic(13)),
        ("Z14", cyclic(14)),
        ("D7", dihedral(7)),
        ("Z15", cyclic(15)),
        ("Z16", cyclic(16)),
        ("Z8xZ2", abelian(8, 2)),
        ("Z4^2", abelian(4, 4)),
        ("Z4xZ2^2", abelian(4, 2, 2)),
        ("Z2^4", abelian(2, 2, 2, 2)),
        ("D8", dihedral(8)),
        ("Q16", dicyclic(4)),
        ("SD16", semidihedral16()),
        ("M16", modular16()),
        ("D4xZ2", direct_product(dihedral(4), cyclic(2))),
        ("Q8xZ2", direct_product(dicyclic(2), cyclic(2))),
        ("Z4:Z4", z4_semidirect_z4()),
        ("Z2^2:Z4", klein_semidirect_z4()),
        ("Pauli16", pauli16()),
    ]
    return [(name, g) for name, g in entries if g.order <= max_order]


def order_profile(group: FiniteGroup) -> tuple:
    """A cheap isomorphism invariant used to tell catalog entries apart."""
    from .grouptheory import conjugacy_classes

    orders = sorted(group.element_order(g) for g in range(group.order))
    square_values = {group.mul[g][g] for g in range(group.order)}
    square_orders = sorted(group.element_order(s) for s in square_values)
    table = conjugacy_classes(group)
    return (
        group.order,
        tuple(orders),
        table.count,
        tuple(sorted(map(len, table.orbits))),
        len(square_values),
        tuple(square_orders),
        group.is_abelian(),
    )
