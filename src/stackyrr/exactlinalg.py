"""Exact linear algebra over any field with Python arithmetic operators.

Entries may be `int`, `Fraction` or `CyclotomicNumber` (anything supporting
+, -, *, /, == and truthiness).  The one elimination routine is `exact_rank`:
each pivot row is scaled so its pivot is 1, which costs a single field
inverse per pivot; every other update is a multiply and a subtract, skipped
wherever the entry it would clear is already zero.
"""

from __future__ import annotations

from fractions import Fraction

_ONE = Fraction(1)


def exact_rank(rows) -> int:
    """Rank of a matrix given as a list of rows (not modified), by forward elimination."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank = 0
    for col in range(ncols):
        if rank == nrows:
            break
        pivot_row = next((i for i in range(rank, nrows) if m[i][col]), None)
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = _ONE / m[rank][col]
        prow = m[rank] = [x * inv if x else x for x in m[rank]]
        for i in range(rank + 1, nrows):
            row = m[i]
            head = row[col]
            if head:
                for j in range(col, ncols):
                    if prow[j]:
                        row[j] = row[j] - head * prow[j]
        rank += 1
    return rank
