"""Quotient algebras: bases, Hilbert functions, multiplication, rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from citree import linalg, quotient
from citree.cli import thm53_bounds
from citree.ideals import Ideal, NotArtinian, normal_form
from citree.parse import parse_polynomial
from citree.polyring import Polynomial, RingSpec
from citree.quotient import RationalMatrix, build_quotient, mult_map_matrix
from citree.symfun import symmetric_generator, tilde_generators
from citree.tree import family_members

R1 = RingSpec(1)
R2 = RingSpec(2)
R3 = RingSpec(3)
R2Z = RingSpec(2, True)


def listed_hf(A):
    """The Hilbert function as the lengths of the quotient's listing."""
    return tuple(map(len, A.basis_by_degree))


def test_build_quotient_squares():
    A = build_quotient(Ideal.from_strings(R2, ["x1^2", "x2^2"]))
    assert listed_hf(A) == (1, 2, 1)
    assert A.basis_by_degree[0] == [(0, 0)]
    assert set(A.basis_by_degree[1]) == {(1, 0), (0, 1)}
    assert A.basis_by_degree[2] == [(1, 1)]
    assert A.socle_degree == 2


def test_build_quotient_power_family():
    gens = tilde_generators(2, 2, 3)
    A = build_quotient(Ideal(R2Z, gens))
    assert sum(listed_hf(A)) == 24
    assert A.socle_degree == 6
    hf = listed_hf(A)
    assert sum(hf) == 24
    assert hf == tuple(reversed(hf))


def test_build_quotient_e_generators():
    A = build_quotient(Ideal(R2, [symmetric_generator("e_signed", 2, i) for i in (1, 2)]))
    assert listed_hf(A) == (1, 1)


def test_not_artinian_reports_variable():
    with pytest.raises(NotArtinian) as err:
        build_quotient(Ideal.from_strings(R2, ["x1^2"]))
    assert err.value.variable == "x2"


def test_hilbert_univariate():
    A = build_quotient(Ideal.from_strings(R1, ["x1^3"]))
    assert listed_hf(A) == (1, 1, 1)


def test_hilbert_three_squares():
    A = build_quotient(Ideal.from_strings(R3, ["x1^2", "x2^2", "x3^2"]))
    assert listed_hf(A) == (1, 3, 3, 1)


def test_hilbert_coinvariants():
    # frozen from the brute-force oracle in test_ideals
    A = build_quotient(Ideal(R3, [symmetric_generator("e_signed", 3, i) for i in (1, 2, 3)]))
    assert listed_hf(A) == (1, 2, 2, 1)
    assert sum(listed_hf(A)) == 6


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


def _normal_form_columns(A, f, i):
    """Oracle: the matrix of f from degree i built column by column, the
    column of m being the normal form of f*m over the target basis."""
    target = A.graded_piece(i + f.degree())
    cols = []
    for m in A.graded_piece(i):
        col = [Fraction(0)] * len(target)
        for mono, c in normal_form(f * Polynomial.monomial(A.ring, m), A.ideal).terms:
            col[target.index(mono)] = c
        cols.append(col)
    return tuple(tuple(col[r] for col in cols) for r in range(len(target)))


def _test_forms(ring, seed):
    """x1..xn, the all-ones form, a seeded integer form and a degree-2 form."""
    variables = [Polynomial.variable(ring, v) for v in range(ring.total_vars)]
    rng = random.Random(seed)
    zero = Polynomial.zero(ring)
    ones = sum(variables, zero)
    seeded = sum((rng.choice([-3, -2, -1, 1, 2, 3]) * x for x in variables), zero)
    return variables + [ones, seeded, ones * seeded]


@pytest.fixture
def normal_form_calls(monkeypatch):
    """The arguments of every normal form that quotient computes."""
    calls = []
    reduce = quotient.normal_form
    monkeypatch.setattr(quotient, "normal_form", lambda p, I: calls.append(p) or reduce(p, I))
    return calls


def test_mult_map_matches_normal_form_columns_on_the_family(normal_form_calls):
    # every thm53 member; a repeated map reuses the cached monomial maps
    n_max, a_max = thm53_bounds()
    checked = 0
    for n in range(1, n_max + 1):
        for member in family_members(n, a_max):
            A = build_quotient(member.ideal)
            for f in _test_forms(A.ring, seed=n * 100 + member.a * 10 + member.m):
                for i in range(A.socle_degree - f.degree() + 1):
                    expected = _normal_form_columns(A, f, i)
                    M = mult_map_matrix(A, f, i)
                    assert (M.rows, M.cols) == (len(A.graded_piece(i + f.degree())),
                                                len(A.graded_piece(i)))
                    assert M.entries == expected, (member.label, str(f), i)
                    before = len(normal_form_calls)
                    assert mult_map_matrix(A, f, i).entries == expected
                    assert len(normal_form_calls) == before
                    checked += 1
    assert checked > 200


def test_mult_map_monomial_normal_forms_once_per_degree(normal_form_calls):
    A = build_quotient(Ideal(R2, [symmetric_generator("p", 2, 2), symmetric_generator("p", 2, 3)]))
    for text in ("x1 + x2", "x1 - 2*x2", "3*x2"):
        mult_map_matrix(A, parse_polynomial(text, R2), 1)
    # one normal form per (variable, source monomial), not per form
    assert len(normal_form_calls) == 2 * len(A.graded_piece(1))


def _naive_product(left, right, rows, inner, cols):
    return tuple(
        tuple(sum((left[r][k] * right[k][c] for k in range(inner)), Fraction(0))
              for c in range(cols))
        for r in range(rows))


_entries = st.fractions(min_value=-4, max_value=4, max_denominator=5)


@st.composite
def _factor_pairs(draw):
    rows, inner, cols = draw(st.integers(1, 4)), draw(st.integers(0, 4)), draw(st.integers(1, 4))
    left = tuple(tuple(draw(_entries) for _ in range(inner)) for _ in range(rows))
    right = tuple(tuple(draw(_entries) for _ in range(cols)) for _ in range(inner))
    return RationalMatrix(rows, inner, left), RationalMatrix(inner, cols, right)


@settings(max_examples=60, deadline=None)
@given(_factor_pairs())
@example((RationalMatrix(1, 3, ((Fraction(1), Fraction(2), Fraction(-1, 3)),)),
          RationalMatrix(3, 1, ((Fraction(1),), (Fraction(1, 2),), (Fraction(3),)))))
@example((RationalMatrix(2, 1, ((Fraction(2),), (Fraction(-1, 2),))),
          RationalMatrix(1, 3, ((Fraction(1, 3), Fraction(0), Fraction(5)),))))
@example((RationalMatrix(2, 0, ((), ())), RationalMatrix(0, 3, ())))
def test_matmul_matches_triple_loop(pair):
    left, right = pair
    product = left * right
    assert (product.rows, product.cols) == (left.rows, right.cols)
    assert product.entries == _naive_product(left.entries, right.entries,
                                             left.rows, left.cols, right.cols)
    assert all(type(e) is Fraction for row in product.entries for e in row)


def test_matmul_shape_mismatch_raises():
    two_by_three = RationalMatrix(2, 3, ((Fraction(1),) * 3,) * 2)
    with pytest.raises(ValueError, match="shape mismatch"):
        two_by_three * two_by_three


def test_rank_examples():
    # every rank is exact fraction-free elimination
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
    hf = listed_hf(A)
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
        tilde_generators(2, 2, 3),
    ]
    for gens in cases:
        I = Ideal(gens[0].ring, gens)
        A = build_quotient(I)
        prod = 1
        for g in gens:
            prod *= g.degree()
        hf = listed_hf(A)
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

