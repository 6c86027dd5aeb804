"""Resource caps: one immutable `Limits` value, in force for a block.

The caps make runaway computations raise `ResourceLimitError`, naming the
field that tripped, instead of eating all memory.  Read them with
:func:`current`; change them for one block with ``with using(tuples=...):``
(the CLI does so from its environment).  They live in a context variable,
not in arguments, because the conductor cap is enforced inside the
`CyclotomicNumber` operators.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar

from .errors import ValidationError

_DEFAULTS = {
    "conductor": 1000,  # largest cyclotomic conductor an operation may reach
    "group_order": 10080,  # largest group group_from_permutations will close
    "tuples": 10**8,  # most commuting tuples an enumeration may visit
    "points": 10**6,  # largest iterated fixed-point set that may be built
}


class Limits:
    """Upper bounds that make the headline computations fail loudly.

    Immutable, and equal to any `Limits` with the same caps.
    """

    __slots__ = tuple(_DEFAULTS)

    def __init__(self, **caps):
        if unknown := sorted(caps.keys() - _DEFAULTS.keys()):
            raise ValidationError(f"Limits has no field {unknown[0]!r}")
        for name, default in _DEFAULTS.items():
            value = caps.get(name, default)
            if type(value) is not int or value < 1:  # bool is not a cap
                raise ValidationError(f"Limits.{name} must be a positive int, got {value!r}")
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"Limits is immutable; set {name} with limits.using")

    __delattr__ = __setattr__

    def _caps(self) -> dict:
        return {name: getattr(self, name) for name in _DEFAULTS}

    def __eq__(self, other):
        return self._caps() == other._caps() if type(other) is Limits else NotImplemented

    def __hash__(self):
        return hash(tuple(self._caps().values()))


_CURRENT = ContextVar("stackyrr_limits", default=Limits())


def current() -> Limits:
    """The caps in force."""
    return _CURRENT.get()


@contextmanager
def using(**caps):
    """Run the block with the given `Limits` fields replaced, then restore."""
    token = _CURRENT.set(Limits(**{**_CURRENT.get()._caps(), **caps}))
    try:
        yield _CURRENT.get()
    finally:
        _CURRENT.reset(token)
