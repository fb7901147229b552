"""Exact coordinates over a set of vectors, by integer elimination.

`LeftInverse` is the one solver the program uses.  `solve_exact`, a
Fraction row reduction, is kept as the independent oracle that tests
compare it with.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul


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
    span); raises ValueError otherwise.  The test oracle for LeftInverse.
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


def _scaled_to_integers(rows):
    """(integer rows, den) with rows == integer rows / den."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


class LeftInverse:
    """Coordinates over linearly independent vectors, from one fraction-free
    Gauss-Jordan elimination.

    With A the matrix whose columns are the vectors scaled to integers,
    eliminating [A | I] (each row divided by its gcd after each step) gives
    an integer E with E A = [D; 0], D diagonal.  v lies in the span exactly
    when the rows of E below D vanish on v, and then (E v) / D are its
    coordinates, kept over one common denominator so a lookup is integer
    dot products.  Raises ValueError when the vectors are linearly dependent.
    """

    def __init__(self, vectors):
        cols, a = _scaled_to_integers(vectors)  # A = cols / a
        k, n = len(cols), len(cols[0])
        rows = [[*coord, *(int(i == j) for j in range(n))] for i, coord in enumerate(zip(*cols))]
        for c in range(k):
            p = next((i for i in range(c, n) if rows[i][c]), None)
            if p is None:
                raise ValueError("columns are linearly dependent")
            rows[c], rows[p] = rows[p], rows[c]
            pivot = rows[c]
            for i, row in enumerate(rows):
                f = row[c]
                if f and i != c:
                    row = [pivot[c] * x - f * y for x, y in zip(row, pivot)]
                    g = gcd(*row)
                    rows[i] = [x // g for x in row]
        # coordinate j of v is a (E_j v) / D_j = (a den / D_j) (E_j v) / den
        self._den = lcm(*(rows[j][j] for j in range(k)))
        self._left = [[a * self._den // rows[j][j] * x for x in rows[j][k:]] for j in range(k)]
        self._null = [row[k:] for row in rows[k:]]  # E_j v = 0 for j >= k on the span
        self._dim = n

    def numerators(self, v):
        """(integer numerators, common denominator) of the coordinates of v
        over the vectors, or None when v is off their span."""
        (w,), scale = _scaled_to_integers([v])
        if len(w) != self._dim:
            raise ValueError(f"expected a vector of length {self._dim}, got {len(w)}")
        if any(sum(map(mul, row, w)) for row in self._null):
            return None
        return [sum(map(mul, row, w)) for row in self._left], self._den * scale

    def doubled(self, v):
        """Twice the coordinates of v over the vectors, as ints; None when v is
        off their span or some coordinate is not a half-integer.  The one
        half-integrality test."""
        found = self.numerators(v)
        if found is None:
            return None
        nums, den = found
        if any(2 * n % den for n in nums):
            return None
        return [2 * n // den for n in nums]

    def coordinates(self, v):
        """Coordinates of v over the vectors as Fractions, or None when v is off
        their span; the view that tests compare with solve_exact."""
        found = self.numerators(v)
        return None if found is None else [Fraction(n, found[1]) for n in found[0]]
