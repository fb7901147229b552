"""Small exact linear algebra helpers over Fraction."""

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


def nullspace_vector(vectors):
    """One nonzero rational relation among the given vectors.

    The vectors must have a nullspace of dimension exactly one; the relation
    is scaled to coprime integers with positive first nonzero entry.
    """
    k = len(vectors)
    n = len(vectors[0])
    rows = [[Fraction(vectors[j][i]) for j in range(k)] for i in range(n)]
    pivots = _rref(rows, k)
    free = [c for c in range(k) if c not in pivots]
    if len(free) != 1:
        raise ValueError("nullspace is not one-dimensional")
    f = free[0]
    rel = [Fraction(0)] * k
    rel[f] = Fraction(1)
    for idx, c in enumerate(pivots):
        rel[c] = -rows[idx][f]
    denom = 1
    for x in rel:
        denom = denom * x.denominator // gcd(denom, x.denominator)
    ints = [int(x * denom) for x in rel]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x != 0)
    if lead < 0:
        ints = [-x for x in ints]
    return ints


def invert_matrix(matrix):
    """Exact inverse of a square rational matrix."""
    n = len(matrix)
    rows = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    pivots = _rref(rows, n)
    if len(pivots) != n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in rows]


def _scaled_to_integers(rows):
    """(integer rows, den) with rows == integer rows / den."""
    den = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in rows], den


class LeftInverse:
    """Exact left inverse L = (A^T A)^-1 A^T of the matrix A whose columns
    are the given vectors, for coordinates over them.

    v lies in the span of the vectors exactly when A L v = v, and then L v
    are its coordinates.  L and the projection A L are kept as integer
    matrices over one denominator, so a lookup is integer dot products.
    Raises ValueError when the vectors are linearly dependent.
    """

    def __init__(self, vectors):
        cols, a = _scaled_to_integers(vectors)  # A = cols / a
        gram = [[sum(map(mul, u, w)) for w in cols] for u in cols]
        try:
            inv = invert_matrix(gram)
        except ValueError:
            raise ValueError("columns are linearly dependent") from None
        inv, den = _scaled_to_integers(inv)  # (A^T A)^-1 = a^2 inv / den
        left = [[sum(map(mul, row, coord)) for coord in zip(*cols)] for row in inv]
        self._den = den
        self._left = [[a * x for x in row] for row in left]  # L = _left / den
        # A L = _proj / den
        self._proj = [[sum(map(mul, coord, col)) for col in zip(*left)] for coord in zip(*cols)]

    def numerators(self, v):
        """(integer numerators, common denominator) of the coordinates of v
        over the vectors, or None when v is off their span."""
        (w,), scale = _scaled_to_integers([v])
        for row, c in zip(self._proj, w, strict=True):
            if sum(map(mul, row, w)) != self._den * c:
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
