"""Exact computation of Lefschetz properties and central simple module
decompositions for complete intersections cut out by power sums and signed
elementary symmetric polynomials."""

__version__ = "0.1.0"
