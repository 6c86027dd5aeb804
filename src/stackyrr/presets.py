"""Embedded fixtures: named groups, actions, curves, divisors and weights.

These exist so that the command line (and the verification suite) can run
meaningful computations without any external files.  Names resolve where a
file path would otherwise be given; a trailing ".json" is ignored.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from .errors import ValidationError
from .eulerlab import CurveStrata
from .groupoidstack import (
    FiniteGSet,
    coset_gset,
    disjoint_union,
    natural_gset,
    trivial_gset,
)
from .orbicurve import FracDivisor, OrbifoldCurve, canonical_divisor
from . import smallgroups as sg

GROUP_BUILDERS = {
    "Z1": lambda: sg.cyclic(1),
    "Z2": lambda: sg.cyclic(2),
    "Z3": lambda: sg.cyclic(3),
    "Z4": lambda: sg.cyclic(4),
    "Z5": lambda: sg.cyclic(5),
    "Z6": lambda: sg.cyclic(6),
    "Z7": lambda: sg.cyclic(7),
    "Z8": lambda: sg.cyclic(8),
    "S3": lambda: sg.symmetric(3),
    "S4": lambda: sg.symmetric(4),
    "D4": lambda: sg.dihedral(4),
    "Q8": lambda: sg.dicyclic(2),
    "A4": lambda: sg.alternating(4),
}


def _s3_mixed() -> FiniteGSet:
    s3 = sg.symmetric(3)
    return disjoint_union(natural_gset(s3), trivial_gset(s3, 1))


def _d4_cosets() -> FiniteGSet:
    d4 = sg.dihedral(4)
    nat = natural_gset(d4)
    return coset_gset(d4, nat.stabilizer(0))


GSET_BUILDERS = {
    "s3-natural": lambda: natural_gset(sg.symmetric(3)),
    "s4-natural": lambda: natural_gset(sg.symmetric(4)),
    "a4-natural": lambda: natural_gset(sg.alternating(4)),
    "d4-natural": lambda: natural_gset(sg.dihedral(4)),
    "d4-vertices": _d4_cosets,
    "z2-free": lambda: natural_gset(sg.cyclic(2)),
    "pt-z2": lambda: trivial_gset(sg.cyclic(2), 1),
    "pt-s3": lambda: trivial_gset(sg.symmetric(3), 1),
    "pt-q8": lambda: trivial_gset(sg.dicyclic(2), 1),
    "s3-mixed": _s3_mixed,
}

CURVE_BUILDERS = {
    # genus-0 orbifolds named by their isotropy orders
    "p23": lambda: OrbifoldCurve(0, (("p2", 2), ("p3", 3))),
    "p237": lambda: OrbifoldCurve(0, (("p2", 2), ("p3", 3), ("p7", 7))),
    "p2233": lambda: OrbifoldCurve(0, (("a", 2), ("b", 2), ("c", 3), ("d", 3))),
    "elliptic": lambda: OrbifoldCurve(1),
    "genus2": lambda: OrbifoldCurve(2),
}


def modular_weight_divisor(k: int, curve: OrbifoldCurve | None = None) -> FracDivisor:
    """The divisor of the weight-k form bundle on the (2, 3) orbifold.

    For even k >= 0 this is (k/2) * K + (k/2) * cusp with the cusp an
    ordinary point: degree k/12, local multiplicities (k/2) mod 2 at the
    order-2 point and k mod 3 at the order-3 point (those are the only data
    the Euler characteristic depends on, and they are forced by the degree
    plus integrality of the rounded-down divisor).  Sections are classical
    modular forms of weight k, so chi values can be cross-checked against
    the two-generator monomial count.
    """
    if k < 0 or k % 2:
        raise ValidationError(f"weight must be a non-negative even integer, got {k}")
    if curve is None:
        curve = CURVE_BUILDERS["p23"]()
    half = k // 2
    kan = canonical_divisor(curve, anchor="cusp")
    cusp = FracDivisor.from_pairs(curve, [("cusp", Fraction(1))])
    return half * kan + half * cusp


DIVISOR_BUILDERS = {
    "zero": lambda curve: FracDivisor.from_pairs(curve, []),
    "canonical": lambda curve: canonical_divisor(curve),
    "weight4": lambda curve: modular_weight_divisor(4, curve),
    "weight12": lambda curve: modular_weight_divisor(12, curve),
}

WEIGHTS_BUILDERS = {
    "p23-weights": lambda curve: CurveStrata(
        curve, Fraction(5), (("p2", Fraction(7)), ("p3", Fraction(11)))
    ),
}


PRESETS = {
    "group": GROUP_BUILDERS,
    "action": GSET_BUILDERS,
    "curve": CURVE_BUILDERS,
    "divisor": DIVISOR_BUILDERS,
    "weights": WEIGHTS_BUILDERS,
}


def preset(kind: str, name, *args):
    """Build the preset ``name`` of one kind, passing ``args`` to its builder.

    ``kind`` is a key of :data:`PRESETS`; a trailing ".json" on the name is
    ignored.  Divisor and weights builders take the curve as their argument.
    """
    builders = PRESETS[kind]
    if not isinstance(name, str):
        raise ValidationError(f"{kind} preset name must be a string, got {name!r}")
    key = name[:-5] if name.endswith(".json") else name
    if key not in builders:
        raise ValidationError(
            f"unknown {kind} preset {name!r}; available: {sorted(builders)}"
        )
    return builders[key](*args)


gset_preset = partial(preset, "action")
curve_preset = partial(preset, "curve")
divisor_preset = partial(preset, "divisor")
weights_preset = partial(preset, "weights")
