"""Exact linear algebra over the rationals: rank, kernel, row reduction.

Both paths work on integer rows; rational input is cleared row by row
first.  The rank is fraction-free (Bareiss), and it is the only
elimination a verifier runs.  Row reduction (rref, and kernel_basis on top
of it) is integer Gauss-Jordan that divides out each row's content and
forms Fractions only when the pivot rows are divided by their pivots at
the end; it serves ideals.ideal_colon, which no verifier calls.
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


def bareiss_rank(rows) -> int:
    """Exact rank of an integer matrix via fraction-free elimination."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank = 0
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
        rank += 1
        row += 1
        if row == nrows:
            break
    return rank


def rank(rows) -> int:
    """Exact rank over the rationals."""
    return bareiss_rank(_int_rows(rows))


def rref(rows):
    """Reduced row echelon form over the rationals; returns (rows, pivots).

    Integer Gauss-Jordan: denominators are cleared row by row, each
    elimination step is an integer row combination whose content is then
    divided out, and Fractions are formed only when the pivot rows are
    divided by their pivots at the end.  The reduced form is unique, so the
    result equals that of elimination in Fraction arithmetic.
    """
    m = _int_rows(rows)
    if not m:
        return [], []
    nrows, ncols = len(m), len(m[0])
    pivots = []
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
        prow = m[row]
        g = gcd(*prow)
        if g > 1:
            prow = m[row] = [x // g for x in prow]
        pv = prow[col]
        support = [c for c in range(col, ncols) if prow[c]]
        for r in range(nrows):
            b = m[r][col]
            if r == row or not b:
                continue
            g = gcd(pv, b)
            a, b = pv // g, b // g
            cur = m[r] if a == 1 else [a * x for x in m[r]]
            for c in support:
                cur[c] -= b * prow[c]
            g = gcd(*cur)
            m[r] = [x // g for x in cur] if g > 1 else cur
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    out = []
    for r, pc in zip(m, pivots):
        pv = r[pc]
        out.append([Fraction(x, pv) if x else _ZERO for x in r])
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
