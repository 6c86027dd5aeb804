"""JSON input parsing and exact-value encoding.

Inputs are small hand-written documents, so the schema is strict: any
unknown key is rejected with a message naming it, and every number that is
not a plain integer travels as a ["numerator", "denominator"] pair of
decimal strings so that round trips are bit-exact.  No floats are accepted
or produced anywhere.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclonum import CyclotomicNumber, _fraction_of_pair
from .errors import ValidationError
from .eulerlab import CurveStrata, FormalProduct, GSetStrata
from .groupoidstack import (
    FiniteGSet,
    gset_from_generator_action,
    gset_from_table,
    natural_gset,
)
from .grouptheory import FiniteGroup, group_from_permutations, group_from_table
from .orbicurve import FracDivisor, OrbifoldCurve
from .presets import preset


def _require_keys(data: dict, allowed: set[str], where: str) -> None:
    unknown = set(data) - allowed
    if unknown:
        raise ValidationError(
            f"unknown key(s) {sorted(unknown)} in {where}; allowed: {sorted(allowed)}"
        )


def _int_rows(value, where: str) -> list:
    if not isinstance(value, list) or not all(
        isinstance(row, list)
        and all(isinstance(v, int) and not isinstance(v, bool) for v in row)
        for row in value
    ):
        raise ValidationError(f"{where} must be a list of integer lists")
    return value


def fraction_to_json(q: Fraction):
    q = Fraction(q)
    if q.denominator == 1:
        return int(q)
    return [str(q.numerator), str(q.denominator)]


def fraction_from_json(value, where: str) -> Fraction:
    """An int (not a bool), or [num, den], each an int or an ASCII decimal string."""
    if isinstance(value, bool):
        raise ValidationError(f"{where}: booleans are not numbers")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ValidationError(
            f"{where}: floats are not accepted; use [\"num\", \"den\"] strings"
        )
    if isinstance(value, list):
        try:
            return _fraction_of_pair(value)
        except ValidationError:
            raise ValidationError(
                f"{where}: bad rational {value!r}; expected [num, den], "
                "each an int or an ASCII decimal string"
            ) from None
    raise ValidationError(f"{where}: expected integer or [num, den], got {value!r}")


def cyclo_to_json(v: CyclotomicNumber):
    if v.is_rational:
        return fraction_to_json(v.rational_value())
    return v.to_dict()


# -- domain object parsing ---------------------------------------------------


def group_from_json(data) -> FiniteGroup:
    """{"permutations": [...]} | {"table": [...]} | {"preset": name} | name."""
    if isinstance(data, str):
        return preset("group", data)
    if not isinstance(data, dict):
        raise ValidationError(f"group spec must be an object or name, got {data!r}")
    _require_keys(data, {"permutations", "table", "preset"}, "group spec")
    given = [k for k in ("permutations", "table", "preset") if k in data]
    if len(given) != 1:
        raise ValidationError(
            f"group spec needs exactly one of permutations/table/preset, got {given}"
        )
    if "preset" in data:
        return preset("group", data["preset"])
    if "permutations" in data:
        return group_from_permutations(_int_rows(data["permutations"], "group permutations"))
    return group_from_table(_int_rows(data["table"], "group table"))


def gset_from_json(data) -> FiniteGSet:
    """{"group": spec, "points": s, "action": rows} with [point][element] rows.

    "action_generators" may replace "action" when the group is built from
    permutations; "natural": true uses the defining permutation action.
    """
    if isinstance(data, str):
        return preset("action", data)
    if not isinstance(data, dict):
        raise ValidationError(f"gset spec must be an object or name, got {data!r}")
    _require_keys(
        data, {"group", "points", "action", "action_generators", "natural"}, "gset spec"
    )
    group = group_from_json(data.get("group"))
    natural = data.get("natural", False)
    if not isinstance(natural, bool):
        raise ValidationError(f"'natural' must be true or false, got {natural!r}")
    if natural:
        extra = set(data) & {"points", "action", "action_generators"}
        if extra:
            raise ValidationError(f"natural action excludes keys {sorted(extra)}")
        return natural_gset(group)
    if "points" not in data:
        raise ValidationError("gset spec needs a 'points' count")
    points = data["points"]
    if isinstance(points, bool) or not isinstance(points, int) or points < 0:
        raise ValidationError(f"'points' must be a non-negative integer, got {points!r}")
    if ("action" in data) == ("action_generators" in data):
        raise ValidationError("gset spec needs exactly one of action/action_generators")
    if "action" in data:
        rows = _int_rows(data["action"], "'action'")
        if len(rows) != points:
            raise ValidationError(
                f"action has {len(rows)} rows for {points} points"
            )
        return gset_from_table(group, rows)
    cols = _int_rows(data["action_generators"], "'action_generators'")
    for col in cols:
        if len(col) != points:
            raise ValidationError("generator column length differs from 'points'")
    return gset_from_generator_action(group, cols)


def curve_from_json(data) -> OrbifoldCurve:
    """{"genus": g, "stacky": [{"label": ..., "order": ...}, ...]}"""
    if isinstance(data, str):
        return preset("curve", data)
    if not isinstance(data, dict):
        raise ValidationError(f"curve spec must be an object or name, got {data!r}")
    _require_keys(data, {"genus", "stacky"}, "curve spec")
    genus = data.get("genus")
    if isinstance(genus, bool) or not isinstance(genus, int):
        raise ValidationError("curve spec needs an integer 'genus'")
    stacky = data.get("stacky", [])
    if not isinstance(stacky, list):
        raise ValidationError(f"curve 'stacky' must be a list, got {stacky!r}")
    pts = []
    for i, entry in enumerate(stacky):
        if not isinstance(entry, dict):
            raise ValidationError(f"stacky[{i}] must be an object")
        _require_keys(entry, {"label", "order"}, f"stacky[{i}]")
        if "label" not in entry or "order" not in entry:
            raise ValidationError(f"stacky[{i}] needs 'label' and 'order'")
        pts.append((entry["label"], entry["order"]))
    return OrbifoldCurve(genus, tuple(pts))


def divisor_from_json(data, curve: OrbifoldCurve) -> FracDivisor:
    """[{"label": ..., "num": ..., "den": ...}, ...]"""
    if isinstance(data, str):
        return preset("divisor", data, curve)
    if not isinstance(data, list):
        raise ValidationError(f"divisor spec must be a list, got {data!r}")
    pairs = []
    for i, entry in enumerate(data):
        if not isinstance(entry, dict):
            raise ValidationError(f"divisor[{i}] must be an object")
        _require_keys(entry, {"label", "num", "den"}, f"divisor[{i}]")
        if "label" not in entry or "num" not in entry:
            raise ValidationError(f"divisor[{i}] needs 'label' and 'num'")
        num = entry["num"]
        den = entry.get("den", 1)
        if any(isinstance(v, bool) or not isinstance(v, int) for v in (num, den)):
            raise ValidationError(f"divisor[{i}] num/den must be integers")
        if den == 0:
            raise ValidationError(f"divisor[{i}] denominator must be nonzero")
        pairs.append((entry["label"], Fraction(num, den)))
    return FracDivisor.from_pairs(curve, pairs)


def curve_strata_from_json(data, curve: OrbifoldCurve) -> CurveStrata:
    """{"open": w, "points": {label: w, ...}}"""
    if isinstance(data, str):
        return preset("weights", data, curve)
    if not isinstance(data, dict):
        raise ValidationError(f"weights spec must be an object, got {data!r}")
    _require_keys(data, {"open", "points"}, "weights spec")
    if "open" not in data:
        raise ValidationError("weights spec needs an 'open' weight")
    open_w = fraction_from_json(data["open"], "weights.open")
    points = data.get("points", {})
    if not isinstance(points, dict):
        raise ValidationError(f"curve weights 'points' must be an object, got {points!r}")
    pts = tuple(
        (label, fraction_from_json(w, f"weights.points[{label!r}]"))
        for label, w in sorted(points.items())
    )
    return CurveStrata(curve, open_w, pts)


def gset_strata_from_json(data, gset: FiniteGSet) -> GSetStrata:
    """{"points": [w per point]}"""
    if not isinstance(data, dict):
        raise ValidationError(f"weights spec must be an object, got {data!r}")
    _require_keys(data, {"points"}, "weights spec")
    weights = data.get("points")
    if not isinstance(weights, list):
        raise ValidationError("gset weights need a 'points' list")
    parsed = [fraction_from_json(w, f"weights.points[{i}]") for i, w in enumerate(weights)]
    return GSetStrata.from_point_weights(gset, parsed)


# -- report encoding ---------------------------------------------------------


def encode_value(v):
    """Recursively encode report payloads into JSON-safe exact values."""
    if isinstance(v, bool) or v is None:
        return v
    if isinstance(v, int):
        return v
    if isinstance(v, Fraction):
        return fraction_to_json(v)
    if isinstance(v, CyclotomicNumber):
        return cyclo_to_json(v)
    if isinstance(v, FormalProduct):
        return {
            "factors": [
                [fraction_to_json(b), fraction_to_json(e)] for b, e in v.factors
            ]
        }
    if isinstance(v, str):
        return v
    if isinstance(v, dict):
        return {str(k): encode_value(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [encode_value(x) for x in v]
    raise ValidationError(f"cannot encode {type(v).__name__} into a report")
