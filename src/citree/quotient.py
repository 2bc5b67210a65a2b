"""Artinian quotient algebras as graded vector spaces.

A built quotient carries the standard-monomial basis of every graded piece,
its Hilbert function, and exact multiplication matrices between pieces.
Ranks of these matrices are taken exactly by linalg.rank (fraction-free
Bareiss).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .ideals import (
    Ideal,
    NotArtinian,  # re-exported: build_quotient raises it
    normal_form,
    require_artinian,
)
from .polyring import Polynomial


@dataclass(frozen=True)
class RationalMatrix:
    """Dense exact matrix: entries[r][c] is a Fraction."""

    rows: int
    cols: int
    entries: tuple

    def __mul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}")
        out = []
        for r in range(self.rows):
            row = []
            for c in range(other.cols):
                acc = Fraction(0)
                for k in range(self.cols):
                    acc += self.entries[r][k] * other.entries[k][c]
                row.append(acc)
            out.append(tuple(row))
        return RationalMatrix(self.rows, other.cols, tuple(out))


class QuotientAlgebra:
    """R/I with per-degree standard monomial bases, for Artinian I."""

    __slots__ = ("ideal", "basis_by_degree", "socle_degree", "_index")

    def __init__(self, ideal: Ideal, basis_by_degree):
        self.ideal = ideal
        self.basis_by_degree = basis_by_degree
        self.socle_degree = len(basis_by_degree) - 1
        self._index = {}
        for d, monos in enumerate(basis_by_degree):
            for pos, m in enumerate(monos):
                self._index[m] = (d, pos)

    @property
    def ring(self):
        return self.ideal.ring

    def dimension(self) -> int:
        return sum(len(b) for b in self.basis_by_degree)

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


def mult_map_matrix(A: QuotientAlgebra, f: Polynomial, i: int) -> RationalMatrix:
    """Matrix of multiplication by homogeneous f from degree i to i + deg f.

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
    source = A.graded_piece(i)
    target = i + fd
    rows = len(A.graded_piece(target))
    cols = []
    for m in source:
        col = [Fraction(0)] * rows
        for mono, c in normal_form(f * Polynomial.monomial(A.ring, m), A.ideal).terms:
            if sum(mono) != target:
                continue
            pos = A._index.get(mono)
            if pos is None or pos[0] != target:
                raise AssertionError("normal form left the standard basis")
            col[pos[1]] = c
        cols.append(col)
    entries = tuple(tuple(col[r] for col in cols) for r in range(rows))
    return RationalMatrix(rows, len(source), entries)
