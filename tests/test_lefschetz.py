"""Lefschetz property checks, with a combinatorial oracle for monomial
complete intersections that bypasses the Groebner machinery entirely."""

import hashlib
import random
from fractions import Fraction
from itertools import islice, product

import pytest
from hypothesis import example, given, settings, strategies as st

from citree import lefschetz, linalg
from citree.csm import member_ideal
from citree.ideals import Ideal, hf_of, ideal_colon, normal_form, standard_monomials_of_degree
from citree.lefschetz import (
    find_lefschetz_element,
    lefschetz_candidates,
    module_view,
    slp_check_algebra,
    slp_check_module,
)
from citree.parse import parse_polynomial
from citree.polyring import InvalidInput, Polynomial, RingSpec
from citree.quotient import RationalMatrix, build_quotient, mult_map_matrix
from citree.symfun import symmetric_generator

R1 = RingSpec(1)
R2 = RingSpec(2)
R2Z = RingSpec(2, True)
R3 = RingSpec(3)
R4 = RingSpec(4)


# --- oracle: monomial complete intersections without normal forms -----------------


def monomial_ci_rank_oracle(caps, coeffs, d, i):
    """Rank of multiplication by (sum coeffs[v] x_v)^d from degree i, on the
    basis of exponent vectors below caps, by direct multinomial expansion."""
    vars_ = len(caps)
    basis = {}
    for exps in product(*[range(c) for c in caps]):
        basis.setdefault(sum(exps), []).append(exps)
    source = basis.get(i, [])
    target = basis.get(i + d, [])
    index = {m: pos for pos, m in enumerate(target)}

    def expand(exps):
        # multiply x^exps by the linear form d times, dropping anything
        # at or above a cap
        acc = {exps: Fraction(1)}
        for _ in range(d):
            nxt = {}
            for m, c in acc.items():
                for v, coeff in enumerate(coeffs):
                    if coeff == 0:
                        continue
                    lifted = list(m)
                    lifted[v] += 1
                    if lifted[v] >= caps[v]:
                        continue
                    key = tuple(lifted)
                    nxt[key] = nxt.get(key, Fraction(0)) + c * coeff
            acc = nxt
        return acc

    rows = []
    for m in source:
        row = [Fraction(0)] * len(target)
        for mono, c in expand(m).items():
            row[index[mono]] = c
        rows.append(row)
    return linalg.rank(rows), len(source), len(target)


def test_monomial_ci_all_ones_against_oracle():
    caps = (2, 2, 2)
    I = Ideal.from_strings(R3, ["x1^2", "x2^2", "x3^2"])
    A = build_quotient(I)
    y = parse_polynomial("x1 + x2 + x3", R3)
    report = slp_check_algebra(A, y)
    assert report.holds
    c = A.socle_degree
    hf = hf_of(A.ideal)
    for d in range(1, c + 1):
        for i in range(0, c - d + 1):
            rank, ns, nt = monomial_ci_rank_oracle(caps, (1, 1, 1), d, i)
            assert (ns, nt) == (hf[i], hf[i + d])
            assert rank == min(hf[i], hf[i + d])


def test_monomial_ci_oracle_matches_engine_ranks():
    caps = (3, 2, 2)
    I = Ideal.from_strings(R3, ["x1^3", "x2^2", "x3^2"])
    A = build_quotient(I)
    y = parse_polynomial("x1 + 2*x2 + 3*x3", R3)
    mats = [mult_map_matrix(A, y, i) for i in range(A.socle_degree)]
    for d in (1, 2, 3):
        for i in range(0, A.socle_degree - d + 1):
            M = mats[i]
            for j in range(i + 1, i + d):
                M = mats[j] * M
            oracle_rank, _, _ = monomial_ci_rank_oracle(caps, (1, 2, 3), d, i)
            assert linalg.rank(M.entries) == oracle_rank


@pytest.mark.parametrize("ideal, hilbert", [
    (lambda: member_ideal(3, 4, 3), (1, 3, 6, 10, 14, 17, 18, 17, 14, 10, 6, 3, 1)),
    (lambda: Ideal.from_strings(R3, ["x1^2", "x2^3", "x3^4", "x1*x2*x3"]), (1, 3, 5, 5, 3, 1)),
], ids=["A_3(4,3)", "non-symmetric"])
def test_power_maps_take_the_smaller_inner_dimension(monkeypatch, ideal, hilbert):
    # every y^d from degree i, d >= 2, is one product through A_(i+d-1)
    # (y after y^(d-1)) or through A_(i+1) (y^(d-1) after y), whichever
    # is smaller, so the Fraction products are
    # sum of h_(i+d) * min(h_(i+d-1), h_(i+1)) * h_i
    A = build_quotient(ideal())
    hf = hf_of(A.ideal)
    assert hf == hilbert
    c = A.socle_degree
    degree_one = []
    built = lefschetz.mult_map_matrix

    def record_map(*args):
        degree_one.append(built(*args))
        return degree_one[-1]

    products, sides = [], set()
    multiply = RationalMatrix.__mul__

    def counting_mul(left, right):
        products.append(left.rows * left.cols * right.cols)
        left_one = any(left is m for m in degree_one)
        right_one = any(right is m for m in degree_one)
        if left_one != right_one:
            sides.add("y after y^(d-1)" if left_one else "y^(d-1) after y")
        return multiply(left, right)

    monkeypatch.setattr(lefschetz, "mult_map_matrix", record_map)
    monkeypatch.setattr(RationalMatrix, "__mul__", counting_mul)
    slp_check_algebra(A, next(lefschetz_candidates(A.ring, 0, 1)))
    assert sum(products) == sum(hf[i + d] * min(hf[i + d - 1], hf[i + 1]) * hf[i]
                                for d in range(2, c + 1) for i in range(c - d + 1))
    assert sides == {"y after y^(d-1)", "y^(d-1) after y"}


# --- spec examples ------------------------------------------------------------------


def test_squares_with_single_variable_standard_range():
    # c = 2: x1 has full rank at d = 1, but the top pairing d = 2 is part
    # of the standard range, and x1^2 = 0 fails it
    A = build_quotient(Ideal.from_strings(R2, ["x1^2", "x2^2"]))
    rep = slp_check_algebra(A, parse_polynomial("x1", R2))
    assert not rep.holds
    assert rep.witnesses == [(2, 0, 0, 1)]
    assert slp_check_algebra(A, parse_polynomial("x1 + x2", R2)).holds


def test_univariate():
    A = build_quotient(Ideal.from_strings(R1, ["x1^3"]))
    rep = slp_check_algebra(A, parse_polynomial("x1", R1))
    assert rep.holds


def test_linear_form_required():
    A = build_quotient(Ideal.from_strings(R2, ["x1^2", "x2^2"]))
    for text in ("x1^2", "x1 + 1", "x1 + x2^2"):
        with pytest.raises(InvalidInput, match="not a linear form"):
            slp_check_algebra(A, parse_polynomial(text, R2))


def test_scaling_invariance():
    gens = [symmetric_generator("p", 2, 2), symmetric_generator("p", 2, 3)]
    A = build_quotient(Ideal(R2, gens))
    y = parse_polynomial("x1 - x2", R2)
    lam = parse_polynomial("x1 - x2", R2) * Fraction(7, 3)
    r1 = slp_check_algebra(A, y)
    r2 = slp_check_algebra(A, lam)
    assert r1.holds == r2.holds
    assert r1.witnesses == r2.witnesses


def test_witnesses_sorted():
    # x1 on the 3-squares algebra fails many pairs; ordering is (d, i)
    A = build_quotient(Ideal.from_strings(R3, ["x1^2", "x2^2", "x3^2"]))
    rep = slp_check_algebra(A, parse_polynomial("x1", R3))
    assert not rep.holds
    assert rep.witnesses == sorted(rep.witnesses)
    for d, i, rank, expected in rep.witnesses:
        assert rank < expected


# --- module views --------------------------------------------------------------------


def test_module_of_whole_algebra_is_the_algebra():
    # as a module over itself the algebra has the same range d = 1..c and
    # the same witnesses, in the same degrees
    I = Ideal.from_strings(R2, ["x1^2", "x2^2"])
    A = build_quotient(I)
    V = module_view(A, Polynomial.one(R2), ideal_colon(I, Polynomial.one(R2)))
    assert (V.shift, V.shift + V.algebra.socle_degree) == (0, 2)
    for text, holds in (("x1", False), ("x1 + x2", True)):
        y = parse_polynomial(text, R2)
        module, algebra = slp_check_module(V, y), slp_check_algebra(A, y)
        assert module.holds == algebra.holds == holds
        assert module.witnesses == algebra.witnesses


def test_module_one_dimensional_vacuous():
    A = build_quotient(Ideal.from_strings(R2, ["x1", "x2^2"]))
    g = parse_polynomial("x2", R2)
    V = module_view(A, g, ideal_colon(A.ideal, g))
    assert (V.shift, V.shift + V.algebra.socle_degree) == (1, 1)
    assert slp_check_module(V, parse_polynomial("x2", R2)).holds


def test_module_first_csm_of_linear_family():
    # numerator/denominator quotient for the smallest power-sum member:
    # ambient K[x1,x2,z]/(e1,e2,z), generator 1, a two-dimensional module
    ring = RingSpec(2, True)
    e1 = symmetric_generator("e_signed", 2, 1).extend(ring)
    e2 = symmetric_generator("e_signed", 2, 2).extend(ring)
    z = Polynomial.variable(ring, "z")
    A = build_quotient(Ideal(ring, [e1, e2, z]))
    V = module_view(A, Polynomial.one(ring), ideal_colon(A.ideal, Polynomial.one(ring)))
    assert hf_of(V.algebra.ideal) == (1, 1)
    rep = slp_check_module(V, parse_polynomial("x1", ring))
    assert rep.holds


# --- oracle: module pieces spanned inside the ambient algebra ------------------------


def ambient_coordinates(A, p, degree):
    """Coordinates of the degree-d part of p mod the ideal on A's basis."""
    piece = list(A.graded_piece(degree))
    vec = [Fraction(0)] * len(piece)
    for m, c in normal_form(p, A.ideal).terms:
        if sum(m) == degree:
            vec[piece.index(m)] = c
    return vec


def module_rank_oracle(A, g, y):
    """Degree range, dimensions and failing (d, i, rank, expected) of
    g * A over d = 1..b-a, by row-reducing the coordinates of g*m in each
    degree of A and multiplying the basis vectors by y^d one by one."""
    ring, gdeg = A.ring, g.degree()
    bases = {}
    for d in range(gdeg, A.socle_degree + 1):
        vectors = [ambient_coordinates(A, g * Polynomial.monomial(ring, m), d)
                   for m in A.graded_piece(d - gdeg)]
        reduced, _ = linalg.rref(vectors)
        if reduced:
            bases[d] = reduced
    if not bases:
        return None
    a, b = min(bases), max(bases)
    witnesses = []
    for d in range(1, b - a + 1):
        for i in range(a, b - d + 1):
            source, target = bases.get(i, []), bases.get(i + d, [])
            expected = min(len(source), len(target))
            if expected == 0:
                continue
            image = []
            for v in source:
                p = Polynomial(ring, dict(zip(A.graded_piece(i), v)))
                image.append(ambient_coordinates(A, p * y ** d, i + d))
            r = linalg.rank(image)
            if r < expected:
                witnesses.append((d, i, r, expected))
    return (a, b), tuple(len(bases.get(d, ())) for d in range(a, b + 1)), witnesses


def forms_of_degree(ring, degree):
    monos = standard_monomials_of_degree([], ring.total_vars, degree)
    return st.lists(st.integers(min_value=-1, max_value=1), min_size=len(monos),
                    max_size=len(monos)).map(lambda cs: Polynomial(ring, dict(zip(monos, cs))))


@st.composite
def artinian_r2z_ideals(draw):
    """One or two forms of degree 1..3 in x1, x2, z, with x1^k, x2^k, z^k."""
    gens = [draw(st.integers(min_value=1, max_value=3).flatmap(lambda d: forms_of_degree(R2Z, d)))
            for _ in range(draw(st.integers(min_value=1, max_value=2)))]
    k = draw(st.integers(min_value=2, max_value=3))
    return Ideal(R2Z, gens + [Polynomial.variable(R2Z, v) ** k for v in range(3)])


linear_forms = forms_of_degree(R2Z, 1).filter(lambda y: not y.is_zero())


@settings(max_examples=40, deadline=None)
@given(artinian_r2z_ideals(),
       st.integers(min_value=0, max_value=2).flatmap(lambda d: forms_of_degree(R2Z, d)),
       st.lists(linear_forms, min_size=3, max_size=3))
@example(Ideal.from_strings(R2Z, ["x1^2", "x2^2", "z^2"]), Polynomial.one(R2Z),
         [parse_polynomial(t, R2Z) for t in ("x1", "x1 + x2", "x1 + x2 + z")])
@example(Ideal.from_strings(R2Z, ["x1^3", "x2^3", "z^2"]), parse_polynomial("x1 - x2", R2Z),
         [parse_polynomial(t, R2Z) for t in ("x2", "x1 + x2", "x1 - x2 + z")])
def test_module_check_matches_ambient_span_oracle(I, g, ys):
    if g.is_zero():
        return
    A = build_quotient(I)
    expected = module_rank_oracle(A, g, ys[0])
    if expected is None:
        with pytest.raises(ValueError):
            module_view(A, g, ideal_colon(A.ideal, g))
        return
    V = module_view(A, g, ideal_colon(A.ideal, g))
    degree_range, dims, _ = expected
    assert (V.shift, V.shift + V.algebra.socle_degree) == degree_range
    assert hf_of(V.algebra.ideal) == dims
    for y in ys:
        _, _, witnesses = module_rank_oracle(A, g, y)
        report = slp_check_module(V, y)
        assert report.witnesses == witnesses
        assert report.holds == (not witnesses)
        assert report.hilbert == dims


# --- oracle: power maps from the normal forms of y^d * m ------------------------------


def direct_power_witnesses(B, y, shift=0):
    """Failing (d, i + shift, rank, expected) of B for d = 1..c, each map
    x y^d read from the normal forms of y^d * m, with no matrix products."""
    c, hf = B.socle_degree, hf_of(B.ideal)
    witnesses = []
    for d in range(1, c + 1):
        for i in range(c - d + 1):
            expected = min(hf[i], hf[i + d])
            r = linalg.rank(mult_map_matrix(B, y ** d, i).entries)
            if r < expected:
                witnesses.append((d, i + shift, r, expected))
    return witnesses


@settings(max_examples=40, deadline=None)
@given(artinian_r2z_ideals(),
       st.integers(min_value=0, max_value=2).flatmap(lambda d: forms_of_degree(R2Z, d)),
       linear_forms)
@example(Ideal.from_strings(R3, ["x1^2", "x2^2", "x3^2"]), Polynomial.one(R3),
         parse_polynomial("x1", R3))
@example(Ideal.from_strings(R2Z, ["x1^3", "x2^3", "z^2"]), parse_polynomial("x1 - x2", R2Z),
         parse_polynomial("x1 + x2 + z", R2Z))
# h = (1, 4, 3, 4), not unimodal
@example(Ideal.from_strings(R4, ["x3^2", "x3*x4", "x4^2", "x1*x3", "x1*x4", "x2*x3", "x2*x4",
                                 "x1^4", "x1^3*x2", "x1^2*x2^2", "x1*x2^3", "x2^4"]),
         parse_polynomial("x1", R4), parse_polynomial("x1 + x2 + x3 + x4", R4))
def test_checks_match_direct_power_oracle(I, g, y):
    A = build_quotient(I)
    report = slp_check_algebra(A, y)
    witnesses = direct_power_witnesses(A, y)
    assert report.witnesses == witnesses
    assert report.holds == (not witnesses)
    if g.is_zero():
        return
    annihilator = ideal_colon(I, g)
    if annihilator.is_unit():
        return
    V = module_view(A, g, annihilator)
    B = V.algebra
    report = slp_check_module(V, y)
    assert report.witnesses == direct_power_witnesses(B, y, V.shift)
    assert report.holds == (not report.witnesses)


def test_module_empty_rejected():
    A = build_quotient(Ideal.from_strings(R2, ["x1", "x2"]))
    g = parse_polynomial("x1", R2)
    with pytest.raises(ValueError):
        module_view(A, g, ideal_colon(A.ideal, g))


def test_module_view_rejects_bad_input():
    A = build_quotient(Ideal.from_strings(R2, ["x1^2", "x2^2"]))
    with pytest.raises(ValueError):  # generator in another ring
        module_view(A, parse_polynomial("x1", R3), A.ideal)
    with pytest.raises(ValueError):  # annihilator in another ring
        module_view(A, parse_polynomial("x1", R2), Ideal.from_strings(R3, ["x1", "x2", "x3"]))
    with pytest.raises(ValueError):  # not homogeneous
        module_view(A, parse_polynomial("x1 + x2^2", R2), A.ideal)


# --- search -----------------------------------------------------------------------


def test_find_on_monomial_ci_first_try():
    A = build_quotient(Ideal.from_strings(R3, ["x1^2", "x2^2", "x3^2"]))
    y, rep = find_lefschetz_element(A)
    assert rep.tries == 1
    assert str(y) == "x1 + x2 + x3"
    assert rep.seed == 0


def test_find_univariate():
    A = build_quotient(Ideal.from_strings(R1, ["x1^4"]))
    y, rep = find_lefschetz_element(A)
    assert str(y) == "x1"


def test_find_power_sum_member():
    gens = [symmetric_generator("p", 3, 3 + t) for t in range(3)]
    A = build_quotient(Ideal(RingSpec(3), gens))
    y, rep = find_lefschetz_element(A)
    assert rep.holds and rep.linear_form == str(y)
    assert rep.tries >= 1 and rep.seed == 0


def test_failed_search_reports_the_candidates_tried():
    # 3 variables have 124 candidate forms (coefficients 0..4, not all 0),
    # none a Lefschetz element of R/(x1^3, x2^3, x3^3, x1*x2*x3), HF 1,3,6,6,3
    A = build_quotient(Ideal.from_strings(R3, ["x1^3", "x2^3", "x3^3", "x1*x2*x3"]))
    for kw, tries in (({"max_tries": 200}, 124), ({}, 24)):
        y, rep = find_lefschetz_element(A, seed=3, **kw)
        assert y is None and not rep.holds
        assert (rep.linear_form, rep.witnesses, rep.hilbert) == (None, [], (1, 3, 6, 6, 3))
        assert (rep.seed, rep.tries) == (3, tries)
        assert rep.subject == str(A.ideal)
    with pytest.raises(InvalidInput):
        find_lefschetz_element(A, max_tries=0)


@pytest.mark.parametrize("ring", [RingSpec(5), RingSpec(4, True), RingSpec(6)])
def test_drawn_candidates_have_distinct_coefficients(ring):
    # from width 5 on, every form of the stream has pairwise distinct
    # coefficients, none of them zero: all-ones and the single variables
    # are not tried
    width = ring.total_vars
    for seed in (0, 1, 7):
        forms = list(lefschetz_candidates(ring, seed, 200))
        assert len(forms) == 200
        for y in forms:
            coeffs = [c for _, c in y.terms]
            assert len(coeffs) == width and len(set(coeffs)) == width, str(y)


def test_search_reaches_a_lefschetz_element_at_width_five():
    # A_5(1, 5), the coinvariant algebra of S_5: the first form of the
    # stream, a draw with distinct coefficients, holds
    A = build_quotient(member_ideal(5, 1, 5))
    y, rep = find_lefschetz_element(A)
    assert rep.holds and rep.linear_form == str(y)
    assert rep.tries == 1


def test_repeated_coefficient_fails_at_the_top_pairing():
    # x1..x4 share the coefficient 1, so y is fixed by the transposition of
    # x1 and x2 and y^c lies in I: x y^10: A_0 -> A_10 is zero
    A = build_quotient(member_ideal(5, 1, 5))
    rep = slp_check_algebra(A, parse_polynomial("x1 + x2 + x3 + x4 + 2*x5", A.ring))
    assert not rep.holds
    assert A.socle_degree == 10
    assert (10, 0, 0, 1) in rep.witnesses


def test_candidates_deterministic():
    a = list(lefschetz_candidates(R3, seed=5, max_tries=12))
    b = list(lefschetz_candidates(R3, seed=5, max_tries=12))
    assert a == b
    c = list(lefschetz_candidates(R3, seed=6, max_tries=12))
    assert a[:4] == c[:4]  # fixed prefix: all-ones then single variables


# (ring, seed) -> (max_tries, length, sha256 prefix of the forms, one per
# line) for each max_tries, taken from the draw loop before it stopped at
# exhaustion; a ring of width w has 5^w - 1 distinct forms.
CANDIDATE_PINS = {
    (RingSpec(1), 0): [(5, 4, "b9d9ae8117f600d7"), (24, 4, "b9d9ae8117f600d7"), (200, 4, "b9d9ae8117f600d7")],
    (RingSpec(1), 1): [(5, 4, "d4e6218a018dd730"), (24, 4, "d4e6218a018dd730"), (200, 4, "d4e6218a018dd730")],
    (RingSpec(1), 7): [(5, 4, "c952b27d1ff71c01"), (24, 4, "c952b27d1ff71c01"), (200, 4, "c952b27d1ff71c01")],
    (RingSpec(2), 0): [(5, 5, "81b081f9c7df68e6"), (24, 24, "1d60497110382554"), (200, 24, "1d60497110382554")],
    (RingSpec(2), 1): [(5, 5, "ef0e391530ee32a4"), (24, 24, "ad4b3d4af7df5807"), (200, 24, "ad4b3d4af7df5807")],
    (RingSpec(2), 7): [(5, 5, "ebb54b71f909a767"), (24, 24, "0dc4c98d79756cb0"), (200, 24, "0dc4c98d79756cb0")],
    (RingSpec(3), 0): [(5, 5, "933425abd534ac49"), (24, 24, "217313fd7b909910"), (200, 124, "5fa98787540fb0fd")],
    (RingSpec(3), 1): [(5, 5, "cd19735e72a2f004"), (24, 24, "5b8fc69c0a0e44ec"), (200, 124, "73b2cf84d25765b8")],
    (RingSpec(3), 7): [(5, 5, "f7bd6cadb3bd850f"), (24, 24, "4d8470d895863855"), (200, 124, "b1a407e0ffcc897d")],
    (RingSpec(2, True), 0): [(5, 5, "ac7b0e225dc3b6df"), (24, 24, "1f8188aaaa87a098"), (200, 124, "35df24195234ac95")],
    (RingSpec(2, True), 1): [(5, 5, "e5ae36b3264ad87c"), (24, 24, "560947fc074bbb5d"), (200, 124, "0e046e359d16dd8b")],
    (RingSpec(2, True), 7): [(5, 5, "bd4535ed70e567bf"), (24, 24, "5f8dbdd18af8c995"), (200, 124, "043e3842802b9b46")],
    # width 4, the widest ring that still draws each coefficient from 0..4
    (RingSpec(4), 0): [(5, 5, "51f9aeefc3ecaa58"), (24, 24, "731a59474dd3dbf9"), (200, 200, "632e3d8db78a7735")],
    (RingSpec(4), 1): [(5, 5, "51f9aeefc3ecaa58"), (24, 24, "f9e7224091abc3a1"), (200, 200, "bf060cde9e74180d")],
    (RingSpec(4), 7): [(5, 5, "51f9aeefc3ecaa58"), (24, 24, "85ef5e5753109fbf"), (200, 200, "f3f654704af66b96")],
    (RingSpec(3, True), 0): [(5, 5, "8beee4e7d768e5f7"), (24, 24, "c4b7cfb5a56e9bf2"), (200, 200, "9ca9bacf6ad39ba7")],
    (RingSpec(3, True), 1): [(5, 5, "8beee4e7d768e5f7"), (24, 24, "f6cca73e4016fe1f"), (200, 200, "253624f6818052b0")],
    (RingSpec(3, True), 7): [(5, 5, "8beee4e7d768e5f7"), (24, 24, "6fb5818ef3c188b7"), (200, 200, "2fc73376d7644178")],
}


@pytest.mark.parametrize("ring, seed", list(CANDIDATE_PINS))
def test_candidate_lists_pinned(ring, seed):
    for max_tries, length, digest in CANDIDATE_PINS[ring, seed]:
        forms = list(lefschetz_candidates(ring, seed, max_tries))
        assert len(forms) == length
        text = "\n".join(str(p) for p in forms)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_candidates_stop_drawing_at_exhaustion(monkeypatch):
    draws = []

    class CountingRandom(random.Random):
        def randint(self, a, b):
            draws.append(1)
            return super().randint(a, b)

    monkeypatch.setattr(lefschetz.random, "Random", CountingRandom)
    forms = list(lefschetz_candidates(R1, 0, 1000))
    assert [str(p) for p in forms] == ["x1", "3*x1", "2*x1", "4*x1"]
    # the four nonzero multiples of x1 are listed after a few draws, not
    # after the 50 * max_tries = 50000 the attempt cap allows
    assert len(draws) < 50


def test_candidates_built_when_asked_for(monkeypatch):
    # the all-ones form and the single variables come before any draw, and
    # no later form is drawn until it is asked for
    draws = []

    class CountingRandom(random.Random):
        def randint(self, a, b):
            draws.append(1)
            return super().randint(a, b)

    monkeypatch.setattr(lefschetz.random, "Random", CountingRandom)
    forms = list(islice(lefschetz_candidates(R4, 0, 624), 5))
    assert [str(p) for p in forms] == ["x1 + x2 + x3 + x4", "x1", "x2", "x3", "x4"]
    assert draws == []


def test_report_json_schema():
    A = build_quotient(Ideal.from_strings(R2, ["x1^2", "x2^2"]))
    _, rep = find_lefschetz_element(A)
    data = rep.to_json()
    assert set(data) == {
        "subject", "linear_form", "holds", "witnesses", "hilbert",
        "seed", "tries",
    }
