"""Quotient algebras: bases, Hilbert functions, multiplication, rank."""

from fractions import Fraction

import pytest

from citree import linalg
from citree.ideals import Ideal
from citree.polyring import RingSpec, parse_polynomial
from citree.quotient import (
    NotArtinian,
    build_quotient,
    mult_map_matrix,
)
from citree.symfun import symmetric_generator

R1 = RingSpec(1)
R2 = RingSpec(2)
R3 = RingSpec(3)
R2Z = RingSpec(2, True)


def test_build_quotient_squares():
    A = build_quotient(Ideal.from_strings(R2, ["x1^2", "x2^2"]))
    assert A.hilbert_function() == (1, 2, 1)
    assert A.basis_by_degree[0] == [(0, 0)]
    assert set(A.basis_by_degree[1]) == {(1, 0), (0, 1)}
    assert A.basis_by_degree[2] == [(1, 1)]
    assert A.socle_degree == 2


def test_build_quotient_power_family():
    gens = [symmetric_generator("p_tilde", 2, i) for i in (2, 3, 4)]
    A = build_quotient(Ideal(R2Z, gens))
    assert A.dimension() == 24
    assert A.socle_degree == 6
    hf = A.hilbert_function()
    assert sum(hf) == 24
    assert hf == tuple(reversed(hf))


def test_build_quotient_e_generators():
    A = build_quotient(Ideal(R2, [symmetric_generator("e_signed", 2, i) for i in (1, 2)]))
    assert A.hilbert_function() == (1, 1)


def test_not_artinian_reports_variable():
    with pytest.raises(NotArtinian) as err:
        build_quotient(Ideal.from_strings(R2, ["x1^2"]))
    assert err.value.variable == "x2"


def test_hilbert_univariate():
    A = build_quotient(Ideal.from_strings(R1, ["x1^3"]))
    assert A.hilbert_function() == (1, 1, 1)


def test_hilbert_three_squares():
    A = build_quotient(Ideal.from_strings(R3, ["x1^2", "x2^2", "x3^2"]))
    assert A.hilbert_function() == (1, 3, 3, 1)


def test_hilbert_coinvariants():
    # frozen from the brute-force oracle in test_ideals
    A = build_quotient(Ideal(R3, [symmetric_generator("e_signed", 3, i) for i in (1, 2, 3)]))
    assert A.hilbert_function() == (1, 2, 2, 1)
    assert sum(A.hilbert_function()) == 6


def test_mult_map_univariate():
    A = build_quotient(Ideal.from_strings(R1, ["x1^3"]))
    M = mult_map_matrix(A, parse_polynomial("x1", R1), 0)
    assert M.entries == ((Fraction(1),),)


def test_mult_map_squares():
    A = build_quotient(Ideal.from_strings(R2, ["x1^2", "x2^2"]))
    M = mult_map_matrix(A, parse_polynomial("x1 + x2", R2), 1)
    assert M.rows == 1 and M.cols == 2
    assert M.entries == ((Fraction(1), Fraction(1)),)


def test_mult_map_degree_errors():
    A = build_quotient(Ideal.from_strings(R2, ["x1^2", "x2^2"]))
    with pytest.raises(ValueError):
        mult_map_matrix(A, parse_polynomial("x1", R2), 2)
    with pytest.raises(ValueError):
        mult_map_matrix(A, parse_polynomial("x1 + x2^2", R2), 0)


def test_rank_examples():
    assert linalg.rank([[1, 1]]) == 1
    assert linalg.rank([[1, 0], [0, 1]]) == 2
    assert linalg.rank([[1, 2], [2, 4]]) == 1
    assert linalg.rank([[Fraction(1, 2), 1], [1, 2]]) == 1


def test_rank_with_modular_prefilter():
    # the modular prefilter is gone; these ranks now come from exact
    # fraction-free elimination alone
    assert linalg.rank([[1, 2, 3], [4, 5, 6], [7, 8, 10]]) == 3
    assert linalg.rank([[1, 2], [2, 4]]) == 1


def test_rank_bound_by_hilbert():
    gens = [symmetric_generator("p", 2, 2), symmetric_generator("p", 2, 3)]
    A = build_quotient(Ideal(R2, gens))
    hf = A.hilbert_function()
    y = parse_polynomial("x1 - 2*x2", R2)
    for i in range(A.socle_degree):
        M = mult_map_matrix(A, y, i)
        assert linalg.rank(M.entries) <= min(hf[i], hf[i + 1])


def test_dimension_product_and_symmetry_grid():
    # complete intersections: dimension = product of generator degrees and
    # the Hilbert function is symmetric
    cases = [
        [symmetric_generator("p", 2, 2), symmetric_generator("p", 2, 3)],
        [symmetric_generator("p", 3, 3), symmetric_generator("p", 3, 4), symmetric_generator("p", 3, 5)],
        [symmetric_generator("p_tilde", 2, 2), symmetric_generator("p_tilde", 2, 3),
         symmetric_generator("p_tilde", 2, 4)],
    ]
    for gens in cases:
        I = Ideal(gens[0].ring, gens)
        A = build_quotient(I)
        prod = 1
        for g in gens:
            prod *= g.degree()
        hf = A.hilbert_function()
        assert sum(hf) == prod
        assert hf == tuple(reversed(hf))


def test_filtration_identity_desk_anchor():
    # dims of R/((I : z^i) + (z)) for the 24-dimensional instance:
    # 6 + 6 + 4 + 4 + 2 + 2 = 24
    from citree.csm import power_family_ideal, filtration_check

    report = filtration_check(power_family_ideal(2, 2))
    assert report["passed"]
    assert report["summands"][:6] == [6, 6, 4, 4, 2, 2]
    assert report["total"] == 24

