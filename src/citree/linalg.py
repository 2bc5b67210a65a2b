"""Exact linear algebra over the rationals: rank, kernel, row reduction.

Rational input is cleared row by row to integer rows first, and one
elimination serves every job: Bareiss's fraction-free elimination to an
echelon form (Bareiss, Sylvester's identity and multistep
integer-preserving Gaussian elimination, Math. Comp. 22, 1968).  The rank
is its number of pivots, and it is the only elimination a verifier runs.
Row reduction (rref, and kernel_basis on top of it) continues from the
echelon form by back-substitution with integer row combinations and forms
Fractions only when the pivot rows are divided by their pivots at the end;
it serves ideals.ideal_colon, which no verifier calls.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

_ZERO = Fraction(0)


def _int_rows(rows):
    """Clear denominators row by row; scaling rows changes neither the rank
    nor the reduced row echelon form."""
    out = []
    for row in rows:
        row = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in row]
        den = 1
        for c in row:
            if c.denominator != 1:
                den = den * c.denominator // gcd(den, c.denominator)
        out.append([c.numerator * (den // c.denominator) for c in row])
    return out


def _echelon(m):
    """Bareiss's fraction-free elimination of the integer rows m, in place:
    row k of the result starts with its pivot in column pivots[k], and the
    rows past the pivots are zero.  Returns the pivot columns."""
    pivots = []
    if not m or not m[0]:
        return pivots
    nrows, ncols = len(m), len(m[0])
    prev = 1
    row = 0
    for col in range(ncols):
        pivot = None
        for r in range(row, nrows):
            if m[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        m[row], m[pivot] = m[pivot], m[row]
        pv = m[row][col]
        for r in range(row + 1, nrows):
            factor = m[r][col]
            for c in range(col + 1, ncols):
                m[r][c] = (m[r][c] * pv - factor * m[row][c]) // prev
            m[r][col] = 0
        prev = pv
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    return pivots


def rank(rows) -> int:
    """Exact rank over the rationals: the pivots of one Bareiss elimination."""
    return len(_echelon(_int_rows(rows)))


def rref(rows):
    """Reduced row echelon form over the rationals; returns (rows, pivots).

    The Bareiss echelon form, then back-substitution from the bottom up:
    each pivot column is cleared from the rows above its pivot row by
    integer row combinations, and Fractions are formed only when the pivot
    rows are divided by their pivots at the end.  The reduced form is
    unique, so the result equals that of elimination in Fraction
    arithmetic.
    """
    m = _int_rows(rows)
    pivots = _echelon(m)
    for k in range(len(pivots) - 1, 0, -1):
        prow, pc = m[k], pivots[k]
        pv = prow[pc]
        for r in range(k):
            b = m[r][pc]
            if b:
                g = gcd(pv, b)
                a, b = pv // g, b // g
                m[r] = [a * x - b * y for x, y in zip(m[r], prow)]
    out = [[Fraction(x, r[pc]) if x else _ZERO for x in r] for r, pc in zip(m, pivots)]
    return out, pivots


def kernel_basis(rows, ncols=None):
    """Basis of the right kernel {v : M v = 0}, as tuples of Fractions."""
    rows = [list(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for r, pc in zip(reduced, pivots):
            v[pc] = -r[f]
        basis.append(tuple(v))
    return basis
