"""Exact linear algebra over any field with Python arithmetic operators.

Entries may be `int`, `Fraction` or `CyclotomicNumber` (anything supporting
+, -, *, /, == and truthiness).  The one elimination routine is `exact_rank`.
In each column it pivots on the first rational entry (an int, a Fraction or
a conductor-1 cyclotomic value) among the rows not yet used, or on the first
nonzero one when none is rational; the rank does not depend on that order.
The pivot is inverted once and its row is not scaled: each other row with a
nonzero entry in the column gets one factor, and only the pivot row's
nonzero columns to the right of the pivot are updated.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclonum import CyclotomicNumber
from .errors import ValidationError

_ONE = Fraction(1)


def exact_rank(rows) -> int:
    """Rank of a matrix given as a list of rows (not modified), by forward elimination."""
    rest = [list(r) for r in rows]  # the rows not yet used as pivots
    ncols = len(rest[0]) if rest else 0
    for i, row in enumerate(rest):
        if len(row) != ncols:
            raise ValidationError(f"row {i} has {len(row)} entries, row 0 has {ncols}")
    rank = 0
    for col in range(ncols):
        live = [row for row in rest if row[col]]
        if not live:
            continue
        # the first rational entry: an int or a Fraction has no conductor
        prow = next((row for row in live if getattr(row[col], "conductor", 1) == 1), live[0])
        pivot = prow[col]
        inv = pivot.inverse() if isinstance(pivot, CyclotomicNumber) else _ONE / pivot
        nonzero = [(j, v) for j, v in enumerate(prow[col + 1:], col + 1) if v]
        for row in live:
            if row is not prow:
                f = row[col] * inv
                for j, v in nonzero:
                    row[j] = row[j] - f * v
        rest = [row for row in rest if row is not prow]
        rank += 1
    return rank
