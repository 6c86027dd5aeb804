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
