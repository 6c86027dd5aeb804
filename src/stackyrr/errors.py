"""Exception types shared by all modules, the one way to declare an oracle,
and the one check on a depth argument and on an exact scalar.

The CLI maps these onto exit statuses: validation problems exit with 2,
resource-cap breaches with 3, and cross-check disagreements with 4.
"""

from fractions import Fraction


class ValidationError(ValueError):
    """Malformed or inconsistent input (bad table, bad JSON, bad label...)."""


class ResourceLimitError(RuntimeError):
    """A configured cap (conductor, group order, tuple count) was exceeded."""


class ConsistencyError(AssertionError):
    """Two independent computations of the same quantity disagreed.

    This is never expected to fire; it exists so that a formula bug cannot
    silently produce a wrong number.
    """


def agree(quantity: str, fast, *independent):
    """Return ``fast`` once every independent route has given the same value.

    An oracle is an independent second route to a quantity; a disagreement
    raises `ConsistencyError` naming the quantity and every route's value.

    >>> agree("orbit count", 3, 3, 3)
    3
    >>> agree("orbit count", 3, 4)
    Traceback (most recent call last):
    ...
    stackyrr.errors.ConsistencyError: orbit count: routes disagree: 3 vs 4
    """
    if any(value != fast for value in independent):
        values = " vs ".join(str(v) for v in (fast, *independent))
        raise ConsistencyError(f"{quantity}: routes disagree: {values}")
    return fast


def check_depth(m, what: str) -> int:
    """Return ``m`` if it is a non-negative int; raise `ValidationError` if not.

    A depth (tuple length, iteration count, series length), a genus or a point
    count is a count, so a float, a bool or a negative value is malformed input.

    >>> check_depth(2, "m")
    2
    >>> check_depth(True, "m")
    Traceback (most recent call last):
    ...
    stackyrr.errors.ValidationError: m must be an int, got True
    >>> check_depth(-1, "m")
    Traceback (most recent call last):
    ...
    stackyrr.errors.ValidationError: m must be >= 0, got -1
    """
    if type(m) is not int:
        raise ValidationError(f"{what} must be an int, got {m!r}")
    if m < 0:
        raise ValidationError(f"{what} must be >= 0, got {m}")
    return m


def check_exact(value, what: str) -> Fraction:
    """An int (not a bool) or a Fraction, as a Fraction; anything else is refused by name."""
    if isinstance(value, Fraction) or isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise ValidationError(f"{what} must be an int or a Fraction, got {value!r}")
