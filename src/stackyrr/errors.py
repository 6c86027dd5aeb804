"""Exception types shared by all modules, and the one way to declare an oracle.

The CLI maps these onto exit statuses: validation problems exit with 2,
resource-cap breaches with 3, and cross-check disagreements with 4.
"""


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
