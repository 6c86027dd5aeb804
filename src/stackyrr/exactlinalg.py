"""Exact linear algebra over any field with Python arithmetic operators.

Entries may be `int`, `Fraction` or `CyclotomicNumber` (anything supporting
+, -, *, /, == and truthiness).  Everything rests on one forward
elimination: each pivot row is scaled so its pivot is 1, which costs a
single field inverse per pivot; every other update is a multiply and a
subtract, skipped wherever the entry it would clear is already zero.
"""

from __future__ import annotations

from fractions import Fraction

_ONE = Fraction(1)


def forward_eliminate(rows: list[list], ncols: int) -> list[int]:
    """Bring ``rows`` to row echelon form in place; return the pivot columns.

    Pivots are sought in the first ``ncols`` columns only; any further
    columns (the right-hand side of an augmented system [A | b]) are carried
    along.  Pivot rows are scaled to a leading 1, and every entry below a
    pivot becomes zero.
    """
    nrows = len(rows)
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        pivot_row = next((i for i in range(r, nrows) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = _ONE / rows[r][col]
        prow = rows[r] = [x * inv if x else x for x in rows[r]]
        for i in range(r + 1, nrows):
            row = rows[i]
            head = row[col]
            if head:
                for j in range(col, len(row)):
                    if prow[j]:
                        row[j] = row[j] - head * prow[j]
        pivots.append(col)
    return pivots


def exact_rank(rows) -> int:
    """Rank of a matrix given as a list of rows (not modified)."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    return len(forward_eliminate(m, len(m[0])))
