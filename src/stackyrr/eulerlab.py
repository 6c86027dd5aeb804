"""The Euler-characteristic ladder and its weighted refinements.

Three Euler characteristics attach to a finite quotient [X/H]:

* chi_top: the number of orbits (the coarse space is a finite set);
* chi_orb: orbits weighted by 1/|stabilizer|, which is |X|/|H|;
* chi_phy: the orbit count of the fixed-point pairs, i.e. chi_top of the
  inertia construction.

Writing I^m for the m-th iterated inertia, these satisfy the exact ladder

    chi_phy(I^m) = chi_top(I^(m+1)) = chi_orb(I^(m+2)),

and chi_orb(I^m) = (number of commuting m-tuples with a common fixed
point)/|H| gives a generating series worth tabulating.  Every quantity but
chi_orb = |X|/|H| is computed by two genuinely different routes (the count
over extension masks of `grouptheory.commuting_tuple_counts` vs. the
centralizer recursion, each once per distinct stabilizer; direct
construction vs. repeated inertia above I^1), which must agree exactly.

Weighted variants: a constructible integer (or nonzero rational) weight on
a stratified base produces weighted Euler characteristics (sums) and Euler
determinants (products with Euler-number exponents), invariant under
refinement of the stratification.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from . import limits
from .errors import ResourceLimitError, ValidationError, agree, check_depth, check_exact
from .groupoidstack import (
    MAX_DEPTH, FiniteGSet, TowerLevel, inertia, iterated_inertia, orbit_count, orbits,
)
from .grouptheory import _as_tuple, _commuting_recursive, _index, _pairs, commuting_tuple_counts
from .orbicurve import OrbifoldCurve


def chi_top_gset(gset: FiniteGSet) -> int:
    """Euler number of the coarse quotient: the orbit count."""
    if gset._orbits is not None:
        return gset._orbits.count
    return orbit_count(gset)


def chi_orb_gset(gset: FiniteGSet) -> Fraction:
    """Sum over orbits of 1/|stabilizer|: |X|/|G|, as the sweep checks |orbit|·|stab| = |G|."""
    return Fraction(gset.size, gset.group.order)


def chi_phy_gset(gset: FiniteGSet) -> int:
    """chi_top of the inertia construction."""
    return chi_top_gset(inertia(gset))


def chi_m(gset: FiniteGSet, m: int) -> Fraction:
    """chi_orb of I^m, term m of :func:`euler_series`: both tuple counts run once, up to m."""
    check_depth(m, "m")
    return Fraction(_tuple_counts(gset, m)[m], gset.group.order) if m else chi_orb_gset(gset)


def euler_series(gset: FiniteGSet, m_max: int) -> list[Fraction]:
    """[chi_0, ..., chi_m_max]: chi_0 = chi_orb, chi_m = N_m/|G| with N_m the commuting
    m-tuples with a common fixed point, all from one pass of :func:`_tuple_counts`."""
    check_depth(m_max, "m_max")
    order = gset.group.order
    return [chi_orb_gset(gset)] + [Fraction(n, order) for n in _tuple_counts(gset, m_max)[1:]]


def _tuple_counts(gset: FiniteGSet, m_max: int) -> list[int]:
    """[N_0..N_m_max], each N_m counted two ways; exact agreement is mandatory.

    Conjugate points have conjugate stabilizers, which hold equally many
    commuting tuples, so both routes run once per distinct representative
    stabilizer, weighted by the points of the orbits it represents.
    Recursive route: the centralizer recursion on the stabilizer, which
    returns N_0..N_m_max at once.  Direct route:
    :func:`commuting_tuple_counts` over the stabilizers' masks.  The
    recursive count comes first and counts never fall as m grows, so a
    series over ``Limits.tuples`` raises before any term is worked out.  A
    nontrivial stabilizer holds a cyclic subgroup of order >= 2, so N_m >=
    2^m, and a series with 2^m_max over the cap is refused before it counts;
    one longer than ``MAX_DEPTH`` (a free action's counts stay |X|) too.
    """
    group, dec = gset.group, orbits(gset)
    cap = limits.current().tuples
    if m_max >= cap.bit_length() and max(dec.stabilizer_orders, default=1) > 1:
        raise ResourceLimitError(f"tuple enumeration exceeds Limits.tuples = {cap}")
    if m_max > MAX_DEPTH:
        raise ResourceLimitError(f"m_max {m_max} exceeds MAX_DEPTH = {MAX_DEPTH}")
    points = Counter()  # distinct stabilizer -> the points with a stabilizer conjugate to it
    for members, stab in zip(dec.orbits, dec.stabilizers):
        points[stab] += len(members)
    memo = {}  # keyed on element sets of one group, so shared by the stabilizers
    recursive = [0] * (m_max + 1)
    for stab, w in points.items():
        for m, n in enumerate(_commuting_recursive(group, stab, m_max, memo)):
            recursive[m] += w * n
    if m_max and recursive[m_max] > cap:
        raise ResourceLimitError(f"tuple enumeration exceeds Limits.tuples = {cap}")
    masks = {sum(1 << h for h in stab): w for stab, w in points.items()}
    direct = commuting_tuple_counts(group, masks, m_max)
    for m in range(1, m_max + 1):
        agree(f"commuting {m}-tuples, by enumeration and by recursion", direct[m], recursive[m])
    return direct


def ladder_check(gset: FiniteGSet, m: int) -> bool:
    """Verify chi_phy(I^m) = chi_top(I^(m+1)) = chi_m(X, m+2), exactly.

    The three quantities are read from the inertia of I^m (built from I^m's
    stabilizers; at m = 0 that is I^1 itself), the directly built I^(m+1),
    and the commuting-tuple count.  Any mismatch raises; the return value is
    True so the call reads as an assertion.
    """
    check_depth(m, "m")
    level = iterated_inertia(gset, m + 1)
    _ladder_rung(level, m, chi_m(gset, m + 2))
    return True


def _ladder_rung(level: TowerLevel, m: int, orb: Fraction) -> int:
    """chi_phy(I^m), once it equals chi_top(I^(m+1)) and ``orb``; ``level`` is I^(m+1)."""
    return agree(f"Euler ladder at m={m}: chi_phy, chi_top, chi_orb",
                 chi_phy_gset(level.below), chi_top_gset(level), orb)


class EulerReport:
    """The full Euler bookkeeping of one quotient, with the ladder verified.

    ``ladder_verified`` is always True: a broken ladder raises instead.
    """

    __slots__ = ("chi_top", "chi_orb", "chi_phy", "series", "ladder_verified")

    def __init__(self, chi_top: int, chi_orb: Fraction, chi_phy: int,
                 series: tuple[Fraction, ...], ladder_verified: bool):
        self.chi_top, self.chi_orb, self.chi_phy = chi_top, chi_orb, chi_phy
        self.series, self.ladder_verified = series, ladder_verified

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"EulerReport({fields})"


def euler_report(gset: FiniteGSet, m_max: int = 3) -> EulerReport:
    """chi_top, chi_orb, chi_phy, the series to ``m_max`` and every ladder rung.

    One tuple count, to depth max(m_max, 2), gives the series and each
    rung's chi_orb; the rungs climb one tower, holding its last level.  The
    series gives |I^k| = chi_k·|G|, so a top level over ``Limits.points``
    is refused before any level is built.
    """
    check_depth(m_max, "m_max")
    chis = euler_series(gset, max(m_max, 2))
    top, cap = max(1, m_max - 1), limits.current().points
    if chis[top] * gset.group.order > cap:
        raise ResourceLimitError(f"iterated fixed-point set exceeds Limits.points = {cap}")
    phys = []
    for m in range(top):
        level = iterated_inertia(gset, m + 1)
        phys.append(_ladder_rung(level, m, chis[m + 2]))
    return EulerReport(
        chi_top=chi_top_gset(gset),
        chi_orb=chis[0],
        chi_phy=phys[0],
        series=tuple(chis[:m_max + 1]),
        ladder_verified=True,
    )


# -- weighted Euler characteristics and determinants -------------------------


class GSetStrata:
    """A partition of a G-set into invariant blocks with one weight each."""

    __slots__ = ("gset", "blocks", "weights")

    def __init__(self, gset: FiniteGSet, blocks: tuple[tuple[int, ...], ...], weights: tuple):
        self.gset = gset
        blocks, weights = _as_tuple(blocks, "blocks"), _as_tuple(weights, "weights")
        self.blocks = tuple(tuple(sorted(_index(p, gset.size, f"block {i} point") for p in points))
                            for i, b in enumerate(blocks) for points in [_as_tuple(b, f"block {i}")])
        self.weights = tuple(check_exact(w, f"weight of block {i}") for i, w in enumerate(weights))
        if len(self.blocks) != len(self.weights):
            raise ValidationError("one weight per block required")
        flat = sorted(p for b in self.blocks for p in b)
        if flat != list(range(gset.size)):
            raise ValidationError("blocks must partition the points")
        dec = orbits(gset)
        for i, block in enumerate(self.blocks):
            block_set = set(block)
            for o in {dec.orbit_of[p] for p in block}:
                for p in dec.orbits[o]:
                    if p not in block_set:
                        raise ValidationError(f"block {i} cuts orbit {o}: weight would not "
                                              f"be constant on the quotient (point {p})")

    @staticmethod
    def from_point_weights(gset: FiniteGSet, point_weights) -> "GSetStrata":
        """Group points by weight; weights must be orbit-constant."""
        point_weights = [check_exact(w, f"weight of point {p}")
                         for p, w in enumerate(_as_tuple(point_weights, "point weights"))]
        if len(point_weights) != gset.size:
            raise ValidationError("need one weight per point")
        dec = orbits(gset)
        for o, members in enumerate(dec.orbits):
            vals = {point_weights[p] for p in members}
            if len(vals) != 1:
                raise ValidationError(f"weights not constant on orbit {o}: {sorted(vals)}")
        by_weight: dict[Fraction, list[int]] = {}
        for p, w in enumerate(point_weights):
            by_weight.setdefault(w, []).append(p)
        items = sorted(by_weight.items())
        return GSetStrata(gset, [ps for _, ps in items], [w for w, _ in items])

    def refine(self) -> "GSetStrata":
        """Split every block into its orbits (same weights): a refinement."""
        dec = orbits(self.gset)
        parts = [(dec.orbits[o], w) for block, w in zip(self.blocks, self.weights)
                 for o in sorted({dec.orbit_of[p] for p in block})]
        return GSetStrata(self.gset, [b for b, _ in parts], [w for _, w in parts])

    def _block_chis(self):
        """(orbit count, chi_orb) per block: a union of orbits, so chi_orb = |block|/|G|."""
        dec, order = orbits(self.gset), self.gset.group.order
        return [(len({dec.orbit_of[p] for p in block}), Fraction(len(block), order))
                for block in self.blocks]


class CurveStrata:
    """Points (each its own stratum) plus the open complement, weighted.

    Every stacky point must be listed: the isotropy order has to be constant
    along each stratum for the orbifold-weighted sums to make sense.
    """

    __slots__ = ("curve", "open_weight", "point_weights")

    def __init__(self, curve: OrbifoldCurve, open_weight: Fraction, point_weights: tuple):
        self.curve = curve
        self.open_weight = check_exact(open_weight, "open weight")
        pairs = _pairs(point_weights, "point weights")
        for l, _ in pairs:
            if not isinstance(l, str):
                raise ValidationError(f"point label must be a string, got {l!r}")
        self.point_weights = tuple(sorted((l, check_exact(w, f"weight of point {l!r}"))
                                          for l, w in pairs))
        labels = [l for l, _ in self.point_weights]
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate point labels in stratification")
        for label, _ in curve.stacky_points:
            if label not in set(labels):
                raise ValidationError(f"stacky point {label!r} must be its own stratum")

    def refine(self, extra_label: str) -> "CurveStrata":
        """Carve one more ordinary point out of the open stratum.

        The new point keeps the open stratum's weight, so every weighted
        quantity must be unchanged.
        """
        if any(l == extra_label for l, _ in self.point_weights):
            raise ValidationError(f"{extra_label!r} is already a stratum")
        return CurveStrata(self.curve, self.open_weight,
                           self.point_weights + ((extra_label, self.open_weight),))

    def _strata(self):
        """(weight, chi_top, chi_orb) per stratum, open complement last."""
        out = [(w, 1, Fraction(1, self.curve.order_at(label))) for label, w in self.point_weights]
        open_chi = 2 - 2 * self.curve.genus - len(out)
        return out + [(self.open_weight, open_chi, Fraction(open_chi))]


def weighted_chi(strata, variant: str = "top"):
    """Sum of weight * chi(stratum); integer weights required.

    Returns an int for the coarse variant, a Fraction for the orbifold one.
    """
    if variant not in ("top", "orb"):
        raise ValidationError(f"variant must be 'top' or 'orb', got {variant!r}")
    parts = _strata_parts(strata)
    for w, _, _ in parts:
        if w.denominator != 1:
            raise ValidationError(f"weighted chi needs integer weights, got {w}")
    if variant == "top":
        return sum(int(w) * t for w, t, _ in parts)
    return sum((w * o for w, _, o in parts), Fraction(0))


def _strata_parts(strata):
    if isinstance(strata, CurveStrata):
        return strata._strata()
    if isinstance(strata, GSetStrata):
        return [(w, t, o) for w, (t, o) in zip(strata.weights, strata._block_chis())]
    raise ValidationError(f"unknown strata object {strata!r}")


class FormalProduct:
    """An element of Q* tensor Q: factors base^exponent with bases deduplicated.

    Products with integer exponents evaluate to an exact Fraction; rational
    exponents stay formal because q^(1/r) is usually irrational.
    """

    __slots__ = ("factors",)

    def __init__(self, factors: tuple[tuple[Fraction, Fraction], ...]):
        self.factors = factors

    @staticmethod
    def from_pairs(pairs) -> "FormalProduct":
        acc: dict[Fraction, Fraction] = {}
        for i, pair in enumerate(_pairs(pairs, "factors")):
            base, exp = map(check_exact, pair, (f"base of factor {i}", f"exponent of factor {i}"))
            if base == 0:
                raise ValidationError("zero base in a formal product")
            if base == 1:
                continue
            acc[base] = acc.get(base, Fraction(0)) + exp
        cleaned = tuple(sorted((b, e) for b, e in acc.items() if e))
        return FormalProduct(cleaned)

    @property
    def is_integral(self) -> bool:
        return all(e.denominator == 1 for _, e in self.factors)

    def value(self) -> Fraction:
        if not self.is_integral:
            raise ValidationError(
                f"exponents {self.factors} are fractional; value stays formal"
            )
        out = Fraction(1)
        for b, e in self.factors:
            out *= b ** int(e)
        return out

    def __mul__(self, other: "FormalProduct") -> "FormalProduct":
        return FormalProduct.from_pairs(self.factors + other.factors)


def euler_determinant(strata, variant: str = "top") -> FormalProduct:
    """Product over strata of weight^chi(stratum); weights must be nonzero.

    The coarse variant has integer exponents and therefore an exact rational
    value; the orbifold variant keeps base/exponent pairs formal.
    """
    if variant not in ("top", "orb"):
        raise ValidationError(f"variant must be 'top' or 'orb', got {variant!r}")
    parts = _strata_parts(strata)
    for w, _, _ in parts:
        if w == 0:
            raise ValidationError("Euler determinants need nonzero weights")
    if variant == "top":
        return FormalProduct.from_pairs((w, t) for w, t, _ in parts)
    return FormalProduct.from_pairs((w, o) for w, _, o in parts)
