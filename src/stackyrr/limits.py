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
from dataclasses import dataclass, fields, replace

from .errors import ValidationError


@dataclass(frozen=True)
class Limits:
    """Upper bounds that make the headline computations fail loudly."""

    conductor: int = 1000  # largest cyclotomic conductor an operation may reach
    group_order: int = 10080  # largest group group_from_permutations will close
    tuples: int = 10**8  # most commuting tuples an enumeration may visit
    points: int = 10**6  # largest iterated fixed-point set that may be built

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int or value < 1:  # bool is not a cap
                raise ValidationError(
                    f"Limits.{f.name} must be a positive int, got {value!r}"
                )


_CURRENT = ContextVar("stackyrr_limits", default=Limits())


def current() -> Limits:
    """The caps in force."""
    return _CURRENT.get()


@contextmanager
def using(**caps):
    """Run the block with the given `Limits` fields replaced, then restore."""
    token = _CURRENT.set(replace(_CURRENT.get(), **caps))
    try:
        yield _CURRENT.get()
    finally:
        _CURRENT.reset(token)
