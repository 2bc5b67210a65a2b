"""Artinian quotient algebras as graded vector spaces.

A built quotient carries the standard-monomial basis of every graded piece,
its Hilbert function, and exact multiplication matrices between pieces.
Multiplication is linear in the multiplier, so the matrix of f is
assembled as the sum of c_t * M_t over the terms c_t * t of f, where M_t,
the map of the monomial t from one degree, comes from exact normal forms
once per (t, degree) and is cached on the algebra.  Ranks of these
matrices are taken exactly by linalg.rank (fraction-free Bareiss).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from .ideals import (
    Ideal,
    NotArtinian,  # re-exported: build_quotient raises it
    normal_form,
    require_artinian,
)
from .polyring import Polynomial, mono_mul


class RationalMatrix:
    """Dense exact matrix: entries[r][c] is a Fraction.  Immutable."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("RationalMatrix is immutable")

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        # the right factor is transposed once; each entry is still
        # Fraction(0) + a_r1*b_1c + a_r2*b_2c + ..., in that order
        cols = tuple(zip(*other.entries)) if other.rows else ((),) * other.cols
        out = tuple(tuple(sum(map(mul, row, col), Fraction(0)) for col in cols)
                    for row in self.entries)
        return RationalMatrix(self.rows, other.cols, out)


class QuotientAlgebra:
    """R/I with per-degree standard monomial bases, for Artinian I."""

    __slots__ = ("ideal", "basis_by_degree", "socle_degree", "_index", "_monomial_maps")

    def __init__(self, ideal: Ideal, basis_by_degree):
        self.ideal = ideal
        self.basis_by_degree = basis_by_degree
        self.socle_degree = len(basis_by_degree) - 1
        self._monomial_maps = {}  # (t, i) -> _monomial_map(self, t, i)
        self._index = {}
        for d, monos in enumerate(basis_by_degree):
            for pos, m in enumerate(monos):
                self._index[m] = (d, pos)

    @property
    def ring(self):
        return self.ideal.ring

    def hilbert_function(self):
        return tuple(len(b) for b in self.basis_by_degree)

    def graded_piece(self, d):
        if 0 <= d <= self.socle_degree:
            return self.basis_by_degree[d]
        return []


def build_quotient(I: Ideal) -> QuotientAlgebra:
    """The quotient over the standard monomial bases of an Artinian R/I;
    raises NotArtinian otherwise."""
    return QuotientAlgebra(I, require_artinian(I))


def _monomial_map(A: QuotientAlgebra, t, i: int):
    """Multiplication by the monomial t from degree i, one sparse column
    ((row, coefficient), ...) per source monomial: the normal form of t*m,
    computed once per (t, i) and cached on A."""
    key = (t, i)
    cols = A._monomial_maps.get(key)
    if cols is None:
        target = i + sum(t)
        cols = []
        for m in A.graded_piece(i):
            col = []
            for mono, c in normal_form(Polynomial.monomial(A.ring, mono_mul(t, m)), A.ideal).terms:
                pos = A._index.get(mono)
                if pos is None or pos[0] != target:
                    raise AssertionError(f"normal form left the standard basis of degree {target}")
                col.append((pos[1], c))
            cols.append(tuple(col))
        cols = A._monomial_maps[key] = tuple(cols)
    return cols


def mult_map_matrix(A: QuotientAlgebra, f: Polynomial, i: int) -> RationalMatrix:
    """Matrix of multiplication by homogeneous f from degree i to i + deg f:
    the sum of c_t * M_t over the terms c_t * t of f, each M_t a cached
    _monomial_map.

    Rows are indexed by the target basis, columns by the source basis.
    """
    if not f.is_homogeneous():
        raise ValueError("multiplier must be homogeneous")
    fd = f.degree()
    if fd < 1:
        raise ValueError("multiplier must have positive degree")
    if not 0 <= i <= A.socle_degree - fd:
        raise ValueError(
            f"degree {i} out of range 0..{A.socle_degree - fd} for a degree-{fd} map"
        )
    rows = len(A.graded_piece(i + fd))
    cols = len(A.graded_piece(i))
    entries = [[Fraction(0)] * cols for _ in range(rows)]
    for t, c in f.terms:
        for j, col in enumerate(_monomial_map(A, t, i)):
            for r, v in col:
                entries[r][j] += c * v
    return RationalMatrix(rows, cols, tuple(map(tuple, entries)))
