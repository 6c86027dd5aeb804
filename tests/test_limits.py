"""Resource caps: `Limits` fields must be positive integers."""

import pytest

from stackyrr import limits
from stackyrr.errors import ValidationError


@pytest.mark.parametrize(
    "caps",
    [
        {"conductor": "x"},
        {"tuples": -1},
        {"points": 0},
        {"group_order": True},
        {"conductor": 12.0},
    ],
)
def test_using_rejects_a_bad_field(caps):
    before = limits.current()
    with pytest.raises(ValidationError, match=r"Limits\.\w+ must be a positive int"):
        with limits.using(**caps):
            pass
    assert limits.current() == before


def test_using_accepts_positive_ints():
    with limits.using(conductor=7, tuples=1) as caps:
        assert (caps.conductor, caps.tuples) == (7, 1)
        assert limits.current() is caps


@pytest.mark.parametrize("build", [
    lambda: limits.Limits(foo=1),
    lambda: limits.using(foo=1).__enter__(),
], ids=["constructor", "using"])
def test_an_unknown_field_is_named(build):
    before = limits.current()
    with pytest.raises(ValidationError, match="Limits has no field 'foo'"):
        build()
    assert limits.current() is before


def test_limits_compare_by_value():
    assert limits.Limits() == limits.Limits(conductor=1000)
    assert hash(limits.Limits()) == hash(limits.Limits(conductor=1000))
    assert limits.Limits(tuples=5) != limits.Limits()
    assert limits.Limits() != (1000, 10080, 10**8, 10**6)


def test_limits_are_immutable():
    caps = limits.Limits()
    with pytest.raises(AttributeError):
        caps.tuples = 5
    with pytest.raises(AttributeError):
        del caps.points
    with pytest.raises(AttributeError):
        caps.extra = 1
    assert caps == limits.Limits()
