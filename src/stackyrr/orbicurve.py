"""Orbifold curves and fractional divisors at the level of numbers.

A curve here is its numerical shadow: a coarse genus g and a list of stacky
points with cyclic isotropy of orders r_i >= 2.  Line bundles are fractional
divisors whose coefficient at a stacky point lies in (1/r_i)Z; the Euler
characteristic of such a bundle is

    chi(D) = deg(D) + 1 - g - sum_i k_i / r_i,

where k_i in [0, r_i) is the local multiplicity.  Because
deg(D) - sum k_i/r_i is exactly the degree of the rounded-down divisor, this
always agrees with classical Riemann-Roch on the coarse curve applied to
floor(D); `coarse_rr_oracle` computes that second route and the test suite
insists the two coincide on everything it can generate.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ConsistencyError, ValidationError, agree, check_depth

ANCHOR_LABEL = "@coarse"


class OrbifoldCurve:
    """Coarse genus plus stacky points (label, order) with distinct labels.

    Two curves with the same genus and points are equal.
    """

    __slots__ = ("genus", "stacky_points")

    def __init__(self, genus: int, stacky_points: tuple[tuple[str, int], ...] = ()):
        self.genus = check_depth(genus, "genus")
        self.stacky_points = tuple((l, r) for l, r in stacky_points)
        labels = [l for l, _ in self.stacky_points]
        for l in labels:
            if not isinstance(l, str):
                raise ValidationError(f"stacky label must be a string, got {l!r}")
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate stacky labels in {labels}")
        for l, r in self.stacky_points:
            if isinstance(r, bool) or not isinstance(r, int):
                raise ValidationError(f"stacky order at {l!r} must be an integer, got {r!r}")
            if r < 2:
                raise ValidationError(f"stacky order at {l!r} must be >= 2, got {r}")

    def order_at(self, label: str) -> int:
        for l, r in self.stacky_points:
            if l == label:
                return r
        return 1

    def is_stacky(self, label: str) -> bool:
        return self.order_at(label) > 1

    def __eq__(self, other):
        if type(other) is not OrbifoldCurve:
            return NotImplemented
        return (self.genus, self.stacky_points) == (other.genus, other.stacky_points)

    def __hash__(self):
        return hash((self.genus, self.stacky_points))


class FracDivisor:
    """Finite formal sum of labeled points with controlled denominators."""

    __slots__ = ("curve", "support")

    def __init__(self, curve: OrbifoldCurve, support: tuple[tuple[str, Fraction], ...]):
        self.curve = curve
        cleaned = []
        seen = set()
        for label, coeff in support:
            if not isinstance(label, str):
                raise ValidationError(f"divisor label must be a string, got {label!r}")
            coeff = Fraction(coeff)
            if label in seen:
                raise ValidationError(f"label {label!r} listed twice")
            seen.add(label)
            r = curve.order_at(label)
            if (coeff * r).denominator != 1:
                raise ValidationError(
                    f"coefficient {coeff} at {label!r} is not a multiple of 1/{r}"
                )
            if coeff:
                cleaned.append((label, coeff))
        self.support = tuple(sorted(cleaned))

    @staticmethod
    def from_pairs(curve: OrbifoldCurve, pairs) -> "FracDivisor":
        return FracDivisor(curve, tuple(pairs))

    def coefficient(self, label: str) -> Fraction:
        for l, c in self.support:
            if l == label:
                return c
        return Fraction(0)

    def __add__(self, other: "FracDivisor") -> "FracDivisor":
        if other.curve != self.curve:
            raise ValidationError("divisors live on different curves")
        labels = {l for l, _ in self.support} | {l for l, _ in other.support}
        return FracDivisor(
            self.curve,
            tuple((l, self.coefficient(l) + other.coefficient(l)) for l in sorted(labels)),
        )

    def __neg__(self) -> "FracDivisor":
        return FracDivisor(self.curve, tuple((l, -c) for l, c in self.support))

    def __sub__(self, other: "FracDivisor") -> "FracDivisor":
        return self + (-other)

    def __rmul__(self, scalar) -> "FracDivisor":
        return FracDivisor(
            self.curve, tuple((l, Fraction(scalar) * c) for l, c in self.support)
        )

    __mul__ = __rmul__


def zero_divisor(curve: OrbifoldCurve) -> FracDivisor:
    return FracDivisor(curve, ())


def multiplicity(divisor: FracDivisor, label: str) -> int:
    """The residue k in [0, r): how the isotropy acts on the fiber at label."""
    r = divisor.curve.order_at(label)
    if r == 1:
        raise ValidationError(f"{label!r} is not a stacky point")
    scaled = divisor.coefficient(label) * r
    if scaled.denominator != 1:
        raise ConsistencyError(f"coefficient at {label!r} is not a multiple of 1/{r}")
    return scaled.numerator % r


def degree(divisor: FracDivisor) -> Fraction:
    return sum((c for _, c in divisor.support), Fraction(0))


def euler_char_rr(divisor: FracDivisor) -> int:
    """chi(D) = deg D + 1 - g - sum k_i/r_i; always an integer."""
    curve = divisor.curve
    total = degree(divisor) + 1 - curve.genus
    for label, r in curve.stacky_points:
        total -= Fraction(multiplicity(divisor, label), r)
    if total.denominator != 1:
        raise ConsistencyError(
            f"Euler characteristic {total} is not an integer; divisor invariants broken"
        )
    return total.numerator


def coarse_rr_oracle(divisor: FracDivisor) -> int:
    """Classical Riemann-Roch for floor(D) on the coarse curve."""
    floor_deg = sum(c.numerator // c.denominator for _, c in divisor.support)
    return floor_deg + 1 - divisor.curve.genus


def canonical_divisor(curve: OrbifoldCurve, anchor: str = ANCHOR_LABEL) -> FracDivisor:
    """K = (2g-2) * anchor + sum (r_i - 1)/r_i * x_i.

    Only the degree and the local multiplicities of K enter any formula
    here, so the integer part may sit at any non-stacky label; ``anchor``
    names it.  deg K = 2g - 2 + sum (1 - 1/r_i) = -chi_orb.
    """
    if curve.is_stacky(anchor):
        raise ValidationError(f"anchor {anchor!r} must be a non-stacky label")
    pairs = [(anchor, Fraction(2 * curve.genus - 2))]
    for label, r in curve.stacky_points:
        pairs.append((label, Fraction(r - 1, r)))
    return FracDivisor(curve, tuple(pairs))


def chi_orb_curve(curve: OrbifoldCurve) -> Fraction:
    """Isotropy-weighted Euler characteristic, via the stratification.

    The open complement of the s stacky points contributes its own Euler
    number 2 - 2g - s with weight 1; each stacky point contributes 1/r_i.
    """
    s = len(curve.stacky_points)
    total = Fraction(2 - 2 * curve.genus - s)
    for _, r in curve.stacky_points:
        total += Fraction(1, r)
    return total


def chi_top_via_inertia(curve: OrbifoldCurve) -> int:
    """Coarse Euler number recomputed from the inertia components.

    The inertia of the curve is the curve itself plus, for each stacky
    point, r_i - 1 copies of a point with isotropy Z/r_i.  Summing the
    isotropy-weighted Euler numbers over components must give back the
    coarse chi^top = 2 - 2g exactly.
    """
    total = chi_orb_curve(curve)
    for _, r in curve.stacky_points:
        total += Fraction(r - 1, r)
    return agree("coarse chi_top, directly and via inertia", 2 - 2 * curve.genus, total)


def serre_duality_check(divisor: FracDivisor, anchor: str = ANCHOR_LABEL) -> bool:
    """chi(D) == -chi(K - D), exactly."""
    k = canonical_divisor(divisor.curve, anchor)
    return euler_char_rr(divisor) == -euler_char_rr(k - divisor)
