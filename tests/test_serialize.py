"""Strict JSON schemas and exact round trips."""

from fractions import Fraction

import pytest

from stackyrr.cyclonum import CyclotomicNumber, root_of_unity
from stackyrr.errors import ValidationError
from stackyrr.eulerlab import FormalProduct
from stackyrr.groupoidstack import natural_gset
from stackyrr.orbicurve import degree
from stackyrr.serialize import (
    curve_from_json,
    curve_strata_from_json,
    cyclo_to_json,
    divisor_from_json,
    encode_value,
    fraction_from_json,
    fraction_to_json,
    group_from_json,
    gset_from_json,
)
from stackyrr.smallgroups import symmetric


def test_fraction_round_trip():
    for q in (Fraction(0), Fraction(3), Fraction(-7, 2), Fraction(10**30, 7)):
        assert fraction_from_json(fraction_to_json(q), "t") == q
    with pytest.raises(ValidationError):
        fraction_from_json(0.5, "t")
    with pytest.raises(ValidationError):
        fraction_from_json(True, "t")
    with pytest.raises(ValidationError):
        fraction_from_json(["1", "0"], "t")


@pytest.mark.parametrize("pair", [[True, 2], ["1_0", "3"], [" 7 ", "2"], ["\u0661\u0662", "1"]],
                         ids=["bool", "underscore", "spaces", "arabic-indic-digits"])
def test_fraction_pairs_are_ints_or_ascii_decimal_strings(pair):
    with pytest.raises(ValidationError, match=r"^weights\.open: bad rational"):
        fraction_from_json(pair, "weights.open")
    assert fraction_from_json(["-12", 8], "t") == Fraction(-3, 2)


def test_cyclo_round_trip():
    z = root_of_unity(12, 5) + 3
    assert CyclotomicNumber.from_dict(cyclo_to_json(z)) == z
    assert cyclo_to_json(CyclotomicNumber.from_rational(4)) == 4


def test_group_spec_parsing():
    assert group_from_json({"preset": "S3"}).order == 6
    assert group_from_json("Q8").order == 8
    assert group_from_json({"permutations": [[1, 0]]}).order == 2
    assert group_from_json({"table": [[0, 1], [1, 0]]}).order == 2
    with pytest.raises(ValidationError, match="unknown key"):
        group_from_json({"preset": "S3", "extra": 1})
    with pytest.raises(ValidationError, match="exactly one"):
        group_from_json({"preset": "S3", "table": [[0]]})
    with pytest.raises(ValidationError, match="unknown group preset"):
        group_from_json("NoSuchGroup")


def test_gset_spec_parsing():
    nat = gset_from_json("s3-natural")
    assert nat.size == 3
    explicit = gset_from_json(
        {"group": {"permutations": [[1, 0]]}, "points": 2, "action": [[0, 1], [1, 0]]}
    )
    assert explicit.size == 2
    gen_only = gset_from_json(
        {"group": {"permutations": [[1, 0]]}, "points": 2, "action_generators": [[1, 0]]}
    )
    assert gen_only.act == explicit.act
    naturally = gset_from_json({"group": "S3", "natural": True})
    assert naturally.act == natural_gset(symmetric(3)).act
    with pytest.raises(ValidationError, match="exactly one"):
        gset_from_json({"group": "S3", "points": 1, "action": [[0] * 6],
                        "action_generators": [[0]]})
    with pytest.raises(ValidationError, match="unknown key"):
        gset_from_json({"group": "S3", "points": 1, "action": [[0] * 6], "foo": 1})


def test_curve_and_divisor_parsing():
    curve = curve_from_json(
        {"genus": 0, "stacky": [{"label": "p1", "order": 2}, {"label": "p2", "order": 3}]}
    )
    assert curve.genus == 0 and curve.order_at("p2") == 3
    div = divisor_from_json(
        [{"label": "p1", "num": 1, "den": 2}, {"label": "q", "num": 3}], curve
    )
    assert degree(div) == Fraction(7, 2)
    with pytest.raises(ValidationError, match="unknown key"):
        curve_from_json({"genus": 0, "stacky": [], "z": 1})
    with pytest.raises(ValidationError, match="unknown key"):
        divisor_from_json([{"label": "p1", "num": 1, "den": 2, "w": 9}], curve)
    with pytest.raises(ValidationError):
        divisor_from_json([{"label": "p1", "num": 1, "den": 3}], curve)


def test_strata_parsing():
    curve = curve_from_json("p23")
    strata = curve_strata_from_json(
        {"open": 5, "points": {"p2": 7, "p3": 11}}, curve
    )
    assert strata.open_weight == 5
    with pytest.raises(ValidationError):
        curve_strata_from_json({"open": 1, "points": {"p2": 1}}, curve)


def test_encode_value_rejects_floats():
    with pytest.raises(ValidationError):
        encode_value(0.5)
    out = encode_value(
        {"a": Fraction(1, 2), "b": [root_of_unity(3), 4],
         "c": FormalProduct.from_pairs([(2, 3)])}
    )
    assert out["a"] == ["1", "2"]
    assert out["b"][0] == {"conductor": 3, "coeffs": [["0", "1"], ["1", "1"]]}
    assert out["c"] == {"factors": [[2, 3]]}
