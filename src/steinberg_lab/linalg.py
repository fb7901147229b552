"""Exact linear solves by Fraction row reduction.

`solve_exact` is the program's one general solver: `apartment.affine_relation`
takes its d x d solve per chamber from it, and tests use it as the reference
for every coordinate the program reads off coroot pairings instead.
"""

from __future__ import annotations

from fractions import Fraction


def _rref(rows, width):
    """Row-reduce in place, returning the list of pivot columns."""
    pivots = []
    r = 0
    for c in range(width):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def solve_exact(columns, rhs):
    """Solve sum_j x_j * columns[j] = rhs exactly.

    Returns the coefficient list, or None when the system is inconsistent.
    Requires the columns to be linearly independent (unique solution on the
    span); raises ValueError otherwise.
    """
    n = len(rhs)
    k = len(columns)
    rows = [[Fraction(columns[j][i]) for j in range(k)] + [Fraction(rhs[i])] for i in range(n)]
    pivots = _rref(rows, k)
    if len(pivots) < k:
        raise ValueError("columns are linearly dependent")
    # Inconsistency shows up as a nonzero rhs entry in a zero row.
    for i in range(len(pivots), n):
        if rows[i][k] != 0:
            return None
    sol = [Fraction(0)] * k
    for idx, c in enumerate(pivots):
        sol[c] = rows[idx][k]
    return sol
