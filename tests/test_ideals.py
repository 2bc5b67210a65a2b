"""Groebner engine: bases, normal forms, colons, certification.

The brute-force oracle here never touches the Groebner machinery: degree
by degree it spans the ideal with monomial multiples of the generators and
row-reduces over the rationals.
"""

from fractions import Fraction
from itertools import product
from math import gcd, prod

import pytest
from hypothesis import example, given, settings, strategies as st

from citree import cli, ideals, linalg, quotient
from citree.csm import cyclic_presentation
from citree.ideals import (
    Ideal,
    NotArtinian,
    _colon_artinian,
    add_last_variable,
    certify_regular_sequence,
    colon_by_variable_power,
    contract_modulo_last,
    extend_with_last_variable,
    hf_difference,
    hf_of,
    ideal_colon,
    ideal_equal,
    ideal_sum,
    normal_form,
    quotient_dimension,
    require_artinian,
    shifted_hf_matches,
    standard_monomials_of_degree,
)
from citree.parse import parse_polynomial
from citree.polyring import (Polynomial, RingMismatch, RingSpec, grevlex_key, mono_div,
                             mono_divides, mono_lcm, mono_mul)
from citree.symfun import member_generators, symmetric_generator, tilde_generators

R1Z = RingSpec(1, True)
R2 = RingSpec(2)
R2Z = RingSpec(2, True)


def P(text, ring):
    return parse_polynomial(text, ring)


def _leading_monomial_ideal(I):
    """in(I): same Hilbert function as I, and a different ideal unless I
    is monomial."""
    return Ideal(I.ring, [Polynomial.monomial(I.ring, lm) for lm in I.leading_exponents()])


# --- brute-force membership oracle (no Groebner bases) --------------------------


def oracle_row(p, index):
    """Coordinates of p in the monomial index, denominators cleared."""
    den = 1
    for _, c in p.terms:
        den = den * c.denominator // gcd(den, c.denominator)
    row = [0] * len(index)
    for mono, c in p.terms:
        row[index[mono]] = int(c * den)
    return row


def oracle_degree_span(gens, ring, degree):
    """Rows spanning the degree-d piece of the ideal, and the monomials
    indexing their columns."""
    monos = standard_monomials_of_degree([], ring.total_vars, degree)
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for g in gens:
        gdeg = g.degree()
        if gdeg > degree:
            continue
        for m in standard_monomials_of_degree([], ring.total_vars, degree - gdeg):
            rows.append(oracle_row(g * Polynomial.monomial(ring, m), index))
    return rows, monos


def oracle_member(p, gens):
    """Membership of a homogeneous polynomial via exact row reduction."""
    if p.is_zero():
        return True
    rows, monos = oracle_degree_span(gens, p.ring, p.degree())
    target = oracle_row(p, {m: i for i, m in enumerate(monos)})
    return linalg.rank(rows + [target]) == linalg.rank(rows)


def oracle_hilbert(gens, ring, up_to):
    out = []
    for d in range(up_to + 1):
        rows, monos = oracle_degree_span(gens, ring, d)
        out.append(len(monos) - linalg.rank(rows))
    return out


def assert_colon_matches_oracle(C, gens, f, up_to):
    """C = (I : f), degree by degree: f*C_d lies in I_(d+e), and C_d has
    the dimension of the kernel of g -> g*f from R_d to R_(d+e)/I_(d+e)."""
    ring = f.ring
    for d in range(up_to + 1):
        ideal_rows, monos = oracle_degree_span(gens, ring, d + f.degree())
        index = {m: i for i, m in enumerate(monos)}
        base = linalg.rank(ideal_rows)
        in_colon = [oracle_row(c * f, index) for c in C.generators if c.degree() == d]
        assert linalg.rank(ideal_rows + in_colon) == base
        images = [oracle_row(f * Polynomial.monomial(ring, m), index)
                  for m in standard_monomials_of_degree([], ring.total_vars, d)]
        kernel_dim = len(images) - (linalg.rank(ideal_rows + images) - base)
        colon_rows, _ = oracle_degree_span(C.generators, ring, d)
        assert linalg.rank(colon_rows) == kernel_dim


# --- spec examples ----------------------------------------------------------------


def test_gb_two_generators():
    I = Ideal.from_strings(R1Z, ["x1 + z", "x1^2 + z^2"])
    assert [str(g) for g in I.groebner_basis()] == ["x1 + z", "z^2"]


def test_gb_coprime_leading_terms():
    I = Ideal.from_strings(R2, ["x1^2", "x2^2"])
    assert [str(g) for g in I.groebner_basis()] == ["x2^2", "x1^2"]


def test_gb_zero_ideal():
    I = Ideal(R2, [])
    assert I.groebner_basis() == ()


def test_normal_form_substitution():
    I = Ideal.from_strings(R1Z, ["x1 + z"])
    assert normal_form(P("x1^2 + z^2", R1Z), I) == P("2*z^2", R1Z)


def test_normal_form_membership_of_generators():
    I = Ideal.from_strings(R2Z, ["x1^2 + x2*z", "x2^3"])
    for g in I.generators:
        assert normal_form(g, I).is_zero()


def test_normal_form_unit_on_proper_ideal():
    I = Ideal.from_strings(R2, ["x1^2", "x2^2"])
    one = Polynomial.one(R2)
    assert normal_form(one, I) == one


def test_ideal_equal_unit_multiples():
    lhs = Ideal.from_strings(R2, ["x1 + x2", "x1*x2"])
    e1 = symmetric_generator("e_signed", 2, 1)
    e2 = symmetric_generator("e_signed", 2, 2)
    assert ideal_equal(lhs, Ideal(R2, [e1, e2]))


def test_ideal_not_equal():
    assert not ideal_equal(Ideal.from_strings(R2, ["x1"]), Ideal.from_strings(R2, ["x1^2"]))


def test_ideal_sum_examples():
    assert ideal_equal(
        ideal_sum(Ideal.from_strings(R2, ["x1^2"]), Ideal.from_strings(R2, ["x2"])),
        Ideal.from_strings(R2, ["x1^2", "x2"]),
    )
    I = Ideal.from_strings(R2, ["x1^2"])
    assert ideal_equal(ideal_sum(I, I), I)


def test_ideal_sum_power_family_with_z():
    gens = tilde_generators(2, 2, 3)
    I = Ideal(R2Z, gens)
    with_z = ideal_sum(I, Ideal.from_strings(R2Z, ["z"]))
    p2 = symmetric_generator("p", 2, 2).extend(R2Z)
    p3 = symmetric_generator("p", 2, 3).extend(R2Z)
    expected = Ideal(R2Z, [p2, p3, Polynomial.variable(R2Z, "z")])
    assert ideal_equal(with_z, expected)


def test_colon_simple():
    I = Ideal.from_strings(R2, ["x1^2", "x1*x2"])
    assert ideal_equal(ideal_colon(I, P("x2", R2)), Ideal.from_strings(R2, ["x1"]))


def test_colon_by_one_is_identity():
    I = Ideal.from_strings(R2, ["x1^2", "x2^2"])
    assert ideal_colon(I, Polynomial.one(R2)) == I


def test_colon_error_on_zero():
    I = Ideal.from_strings(R2, ["x1"])
    with pytest.raises(ValueError):
        ideal_colon(I, Polynomial.zero(R2))


def test_colon_power_sum_block():
    # (p_2, p_3, z) : e_2 = (p_1, p_2, z)
    z = Polynomial.variable(R2Z, "z")
    p = lambda i: symmetric_generator("p", 2, i).extend(R2Z)
    e2 = symmetric_generator("e_signed", 2, 2).extend(R2Z)
    J = Ideal(R2Z, [p(2), p(3), z])
    expected = Ideal(R2Z, [p(1), p(2), z])
    assert ideal_equal(ideal_colon(J, e2), expected)


def test_colon_by_variable_power_examples():
    I = Ideal.from_strings(R1Z, ["x1 + z", "x1^2 + z^2"])
    assert ideal_equal(colon_by_variable_power(I, 1), Ideal.from_strings(R1Z, ["x1", "z"]))
    assert colon_by_variable_power(I, 0) == I
    gens = tilde_generators(2, 2, 3)
    J = Ideal(R2Z, gens)
    assert colon_by_variable_power(J, 6).is_unit()


def test_colon_by_non_last_variable():
    I = Ideal.from_strings(R2, ["x1^2", "x1*x2", "x2^3"])
    assert ideal_equal(ideal_colon(I, P("x1", R2)), Ideal.from_strings(R2, ["x1", "x2"]))


def test_colon_rejects_non_artinian():
    I = Ideal.from_strings(R2, ["x1^2", "x1*x2"])
    with pytest.raises(NotArtinian):
        ideal_colon(I, P("x1", R2))
    # the cheapest variable needs no Artinian quotient
    assert ideal_equal(colon_by_variable_power(I, 2), Ideal.from_strings(R2, ["x1"]))


def test_certify_regular_sequence_examples():
    p2 = symmetric_generator("p", 2, 2)
    p3 = symmetric_generator("p", 2, 3)
    assert certify_regular_sequence([p2, p3])
    assert quotient_dimension(Ideal(R2, [p2, p3])) == 6

    tildes = tilde_generators(2, 2, 3)
    assert certify_regular_sequence(tildes)
    assert quotient_dimension(Ideal(R2Z, tildes)) == 24

    x1, x2 = (Polynomial.variable(R2, v) for v in range(2))
    assert not certify_regular_sequence([x1, x1 * x1])
    with pytest.raises(ValueError):
        certify_regular_sequence([x1])
    with pytest.raises(ValueError):
        certify_regular_sequence([x1, x2, x1 * x2])
    # a zero, constant or non-homogeneous generator is no regular sequence
    assert not certify_regular_sequence([x1, Polynomial.zero(R2)])
    assert not certify_regular_sequence([x1, Polynomial.one(R2)])
    assert not certify_regular_sequence([x1, x2 * x2 + x1])
    assert certify_regular_sequence([x1, x2 * x2])


def test_homogeneity_required():
    with pytest.raises(ValueError):
        Ideal.from_strings(R2, ["x1 + x1^2"])


# --- oracle cross-checks -----------------------------------------------------------


def test_membership_against_oracle():
    gens = [P("x1^2 - x2*z", R2Z), P("x2^2", R2Z)]
    I = Ideal(R2Z, gens)
    probes = [
        P("x1^2*x2 - x2^2*z", R2Z),
        P("x1^3", R2Z),
        P("x2^2*z", R2Z),
        P("x1*x2*z", R2Z),
        P("x1^4 - 2*x1^2*x2*z + x2^2*z^2", R2Z),
    ]
    for probe in probes:
        assert normal_form(probe, I).is_zero() == oracle_member(probe, gens)


def test_oracle_member_zero_ideal():
    assert not oracle_member(P("z^2", R2Z), [])
    assert oracle_member(Polynomial.zero(R2Z), [])


def test_hilbert_against_oracle():
    e_gens = [symmetric_generator("e_signed", 3, i) for i in (1, 2, 3)]
    I = Ideal(RingSpec(3), e_gens)
    basis = require_artinian(I)
    engine_hf = [len(b) for b in basis]
    assert engine_hf == [1, 2, 2, 1]
    assert oracle_hilbert(e_gens, RingSpec(3), 4) == [1, 2, 2, 1, 0]


# --- property tests ------------------------------------------------------------------

small_coeff = st.integers(min_value=-3, max_value=3)


def homogeneous_polys(ring, degree):
    monos = standard_monomials_of_degree([], ring.total_vars, degree)
    return st.lists(small_coeff, min_size=len(monos), max_size=len(monos)).map(
        lambda cs: Polynomial(ring, dict(zip(monos, cs)))
    )


@st.composite
def small_ideals(draw, ring=R2Z):
    count = draw(st.integers(min_value=1, max_value=3))
    gens = []
    for _ in range(count):
        d = draw(st.integers(min_value=1, max_value=3))
        gens.append(draw(homogeneous_polys(ring, d)))
    return Ideal(ring, gens)


@st.composite
def artinian_ideals(draw):
    """A small R2Z ideal made Artinian by x1^k, x2^k and z^k; returns (I, k)."""
    I = draw(small_ideals())
    k = draw(st.integers(min_value=2, max_value=3))
    powers = [Polynomial.variable(R2Z, v) ** k for v in range(3)]
    return Ideal(R2Z, list(I.generators) + powers), k


@st.composite
def monomial_ideals(draw):
    """A monomial ideal of K[x1..xn] or K[x1..xn, z], n = 1..3, with
    generators of degree 1..12 and a pure power of each variable drawn or
    not; returns (ideal, generator exponents)."""
    ring = RingSpec(draw(st.integers(min_value=1, max_value=3)), draw(st.booleans()))
    width = ring.total_vars
    exps = draw(st.lists(st.lists(st.integers(min_value=0, max_value=3),
                                  min_size=width, max_size=width).filter(any), max_size=4))
    for v in range(width):
        k = draw(st.one_of(st.none(), st.integers(min_value=1, max_value=3)))
        if k is not None:
            exps.append([k if u == v else 0 for u in range(width)])
    exps = [tuple(e) for e in exps]
    return Ideal(ring, [Polynomial.monomial(ring, e) for e in exps]), exps


@settings(max_examples=60, deadline=None)
@given(monomial_ideals())
def test_artinian_verdict_against_brute_force(case):
    # Artinian exactly when every variable has a pure power among the
    # generators; then the standard monomials are the monomials below those
    # powers that no generator divides
    I, exps = case
    width = I.ring.total_vars
    caps = [min((e[v] for e in exps if e[v] == sum(e)), default=None) for v in range(width)]
    lifted = None if I.ring.has_z else extend_with_last_variable(I, RingSpec(I.ring.nvars, True))
    if None in caps:
        with pytest.raises(NotArtinian):
            quotient_dimension(I)
        with pytest.raises(NotArtinian) as err:
            hf_of(I)
        assert err.value.variable == I.ring.var_names[caps.index(None)]
    else:
        outside = [m for m in product(*(range(c) for c in caps))
                   if not any(all(x >= y for x, y in zip(m, e)) for e in exps)]
        assert sorted(m for monos in require_artinian(I) for m in monos) == sorted(outside)
        top = max(sum(m) for m in outside)
        assert hf_of(I) == tuple(sum(1 for m in outside if sum(m) == d) for d in range(top + 1))
    if lifted is not None:
        # the verdict carries over one variable up, as computed afresh
        fresh = Ideal(lifted.ring, lifted.generators)
        if None in caps:
            for J in (lifted, fresh):
                with pytest.raises(NotArtinian):
                    require_artinian(J)
                with pytest.raises(NotArtinian):
                    hf_of(J)
        else:
            assert require_artinian(lifted) == require_artinian(fresh)
            # the Hilbert function the lift carries, against a fresh count
            assert hf_of(lifted) == hf_of(fresh)


@settings(max_examples=25, deadline=None)
@given(small_ideals(), homogeneous_polys(R2Z, 2))
def test_normal_form_idempotent(I, p):
    once = normal_form(p, I)
    assert normal_form(once, I) == once


@settings(max_examples=20, deadline=None)
@given(small_ideals(), homogeneous_polys(R2Z, 2))
def test_membership_oracle_property(I, probe):
    assert normal_form(probe, I).is_zero() == oracle_member(probe, list(I.generators))


@settings(max_examples=25, deadline=None)
@given(artinian_ideals(), homogeneous_polys(R2Z, 1), homogeneous_polys(R2Z, 2))
def test_colon_membership_characterization(Ik, f, g):
    I, _ = Ik
    if f.is_zero():
        return
    C = ideal_colon(I, f)
    assert normal_form(g, C).is_zero() == normal_form(g * f, I).is_zero()


@settings(max_examples=20, deadline=None)
@given(small_ideals())
def test_colon_chain_monotone(I):
    prev = ideal_sum(I, Ideal.from_strings(R2Z, ["z"]))
    cur = I
    for _ in range(3):
        cur = colon_by_variable_power(cur, 1)
        step = ideal_sum(cur, Ideal.from_strings(R2Z, ["z"]))
        assert step.contains_ideal(prev)
        prev = step


@settings(max_examples=20, deadline=None)
@given(artinian_ideals())
def test_colon_by_last_variable_against_oracle(Ik):
    # both colon routes, for the one divisor they share
    I, k = Ik
    z = Polynomial.variable(R2Z, "z")
    gens = list(I.generators)
    assert_colon_matches_oracle(colon_by_variable_power(I, 1), gens, z, 3 * k - 2)
    assert_colon_matches_oracle(ideal_colon(I, z), gens, z, 3 * k - 2)
    assert_colon_matches_oracle(_colon_artinian(I, z), gens, z, 3 * k - 2)


@settings(max_examples=15, deadline=None)
@given(artinian_ideals(), st.integers(min_value=1, max_value=2).flatmap(
    lambda d: homogeneous_polys(R2Z, d)))
def test_colon_artinian_against_oracle(Ik, f):
    I, k = Ik
    if f.is_zero():
        return
    assert_colon_matches_oracle(_colon_artinian(I, f), list(I.generators), f, 3 * k - 2)


@settings(max_examples=40, deadline=None)
@given(artinian_ideals().filter(lambda Ik: any(len(g.terms) > 1 for g in Ik[0].generators)))
def test_colon_chain_matches_the_jordan_type_of_z(Ik):
    # the kernel of x z^d on A_i is (I : z^d)_i / I_i, so its rank from
    # the Lefschetz layer is HF(R/(I : z^d))_i from the colon chain, for
    # every d = 1..c+1 and i = 0..c, the maps into zero degrees of rank 0
    I, _ = Ik
    A = quotient.build_quotient(I)
    c = A.socle_degree
    z = Polynomial.variable(R2Z, "z")
    for d in range(1, c + 2):
        hf = hf_of(colon_by_variable_power(I, d))
        for i in range(c + 1):
            rank = linalg.rank(quotient.mult_map_matrix(A, z ** d, i).entries) if i + d <= c else 0
            assert rank == (hf[i] if i < len(hf) else 0), (str(I), d, i)


CRITERION_EXAMPLE = [P("x1^2 + x2*z", R2Z), P("x1*x2 - z^2", R2Z), P("x2^3", R2Z)]


@settings(max_examples=25, deadline=None)
@given(artinian_ideals())
@example((Ideal(R2Z, CRITERION_EXAMPLE), 0))
def test_buchberger_criterion_on_output(Ik):
    # Buchberger prunes pairs only by the Gebauer-Moeller criteria: every
    # S-polynomial of the reduced basis reduces to zero, the generators
    # reduce to zero, and every basis element lies in I by the oracle
    from citree.ideals import _reduce_to_primitive, _spoly

    I, _ = Ik
    elems = I._gb_elems()
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            assert not _reduce_to_primitive(_spoly(elems[i], elems[j]), elems)
    assert all(normal_form(g, I).is_zero() for g in I.generators)
    assert all(oracle_member(g, list(I.generators)) for g in I.groebner_basis())


# --- reduction against the merge-based oracle ------------------------------------


def oracle_reduce_core(p, basis):
    """Full division remainder by re-merging the whole unprocessed remainder
    at every step (a dict sum, sorted again): the same reducer choice, the
    same fraction-free scaling and the same content reduction every 16
    steps as ideals._reduce_core, at the cost of the remainder's length per
    step."""
    out = []
    work = list(p)
    start = 0
    scale = Fraction(1)
    steps = 0
    while start < len(work):
        klead, clead = work[start]
        elead = ideals._decode(klead)
        hit = next((be for be in basis if mono_divides(be.lm_exps, elead)), None)
        if hit is None:
            out.append((klead, clead / scale))
            start += 1
            continue
        shift = mono_div(klead, hit.lm_key)
        g = gcd(clead, hit.lc)
        a = hit.lc // g
        b = clead // g
        merged = {k: a * c for k, c in work[start + 1:]}
        for k, c in hit.terms[1:]:
            k = mono_mul(k, shift)
            merged[k] = merged.get(k, 0) - b * c
        work = sorted((kc for kc in merged.items() if kc[1]), reverse=True)
        start = 0
        scale *= a
        steps += 1
        if steps % 16 == 0 and work:
            cont = 0
            for _, c in work:
                cont = gcd(cont, c)
            if cont > 1:
                work = [(k, c // cont) for k, c in work]
                scale /= cont
    return out


@st.composite
def core_polys(draw, width, degrees, min_size=0):
    """A core polynomial: distinct monomials of the given degrees with
    nonzero integer coefficients, as (grevlex key, int) pairs, descending."""
    monos = [m for d in degrees for m in standard_monomials_of_degree([], width, d)]
    chosen = draw(st.lists(st.sampled_from(monos), unique=True, min_size=min_size, max_size=6))
    coeffs = st.integers(min_value=-6, max_value=6).filter(bool)
    return sorted(((grevlex_key(m), draw(coeffs)) for m in chosen), reverse=True)


@st.composite
def reduction_cases(draw):
    """(p, basis) in 1-3 variables: a basis of up to four arbitrary
    elements, not a Groebner basis in general, with any nonzero leading
    coefficient, and p of degree at most 4."""
    width = draw(st.integers(min_value=1, max_value=3))
    basis = draw(st.lists(core_polys(width, range(1, 4), min_size=1), max_size=4))
    p = draw(core_polys(width, range(5)))
    return p, [ideals._BasisElem(terms) for terms in basis]


def assert_reduction_matches_oracle(p, basis):
    rem = ideals._reduce_core(p, basis)
    assert rem == oracle_reduce_core(p, basis)
    assert all(type(c) is Fraction for _, c in rem)


@settings(max_examples=300, deadline=None)
@given(reduction_cases())
def test_reduce_core_matches_merge_oracle(case):
    assert_reduction_matches_oracle(*case)


@st.composite
def spoly_cases(draw):
    """Two primitive cores with positive leading coefficients, as basis
    elements of a ring in 1-3 variables."""
    width = draw(st.integers(min_value=1, max_value=3))
    f, g = (draw(core_polys(width, range(1, 4), min_size=1)) for _ in range(2))
    return RingSpec(width), ideals._BasisElem(ideals._normalize(f)), \
        ideals._BasisElem(ideals._normalize(g))


@settings(max_examples=100, deadline=None)
@given(spoly_cases())
def test_spoly_matches_polynomial_arithmetic(case):
    # (lc g/d)*(L/lm f)*F - (lc f/d)*(L/lm g)*G with d = gcd(lc f, lc g)
    # and L = lcm(lm f, lm g), by Polynomial arithmetic: the heads cancel,
    # and the rest is _spoly's core
    ring, f, g = case
    F, G = (Polynomial(ring, {ideals._decode(k): c for k, c in e.terms}) for e in (f, g))
    L = mono_lcm(f.lm_exps, g.lm_exps)
    d = gcd(f.lc, g.lc)
    S = (Polynomial.monomial(ring, mono_div(L, f.lm_exps), g.lc // d) * F
         - Polynomial.monomial(ring, mono_div(L, g.lm_exps), f.lc // d) * G)
    assert all(m != L for m, _ in S.terms)
    expected = sorted(((grevlex_key(m), int(c)) for m, c in S.terms), reverse=True)
    assert ideals._spoly(f, g) == expected


def test_reduce_core_scales_and_divides_content():
    # leading coefficients 2 and 3 scale the remainder at most steps, and a
    # sixth power of a trinomial takes more than 16 steps to reduce, so the
    # content is divided out along the way
    basis = [ideals._BasisElem(ideals._poly_to_core(P(t, R2Z)))
             for t in ("2*x1 - 3*x2 + z", "3*x2^2 + 5*x2*z - 4*z^2")]
    p = ideals._poly_to_core(P("(x1 + 2*x2 - 3*z)^6", R2Z))
    assert_reduction_matches_oracle(p, basis)
    assert_reduction_matches_oracle(p, basis[::-1])


def test_reduce_core_empty_inputs():
    basis = [ideals._BasisElem(ideals._poly_to_core(P("x1^2 - 2*x2*z", R2Z)))]
    assert ideals._reduce_core([], basis) == []
    assert ideals._reduce_core([], []) == []
    p = ideals._poly_to_core(P("3*x1^2 + x2*z - 5*z^2", R2Z))
    assert ideals._reduce_core(p, []) == [(k, Fraction(c)) for k, c in p]


def test_reduced_basis_canonical_with_redundant_generators():
    # A_4(7,3) plus redundant generators, interleaved: the seeds and S-pairs
    # differ, and x1*p7 + p8 leads with coefficient 2, so partial bases hold
    # a leading coefficient other than 1; the reduced basis must not change
    ring = RingSpec(4)
    p7, p8, p9, e4 = member_generators(4, 7, 3)
    x1, x2, x3, x4 = (Polynomial.variable(ring, v) for v in range(4))
    redundant = [x1 * p7 + p8, x4 ** 5 * e4 - 2 * x2 ** 2 * p7, 3 * x3 * p8 + x1 ** 5 * e4]
    plain = Ideal(ring, [p7, p8, p9, e4])
    padded = Ideal(ring, [redundant[0], p7, redundant[1], p8, p9, redundant[2], e4])
    assert padded.groebner_basis() == plain.groebner_basis()
    assert padded.leading_exponents() == plain.leading_exponents()


def sum_by_buchberger(I):
    """I + (v), v the cheapest variable, through ideal_sum and Buchberger."""
    v = Polynomial.variable(I.ring, I.ring.cheapest)
    return ideal_sum(I, Ideal(I.ring, [v]))


def assert_rewrite_matches_sum(I):
    ring = I.ring
    by_sum = sum_by_buchberger(I).groebner_basis()
    assert add_last_variable(I).groebner_basis() == by_sum
    if ring.total_vars >= 2:
        small = ring.below()
        # terms are sorted descending, so terms[0][0] is the leading monomial;
        # the kept elements do not involve v, whose exponent comes last
        kept = [g for g in by_sum if g.terms[0][0][-1] == 0]
        assert all(m[-1] == 0 for g in kept for m, _ in g.terms)
        contracted = Ideal(small, [Polynomial(small, {m[:-1]: c for m, c in g.terms})
                                   for g in kept])
        assert contract_modulo_last(I).groebner_basis() == contracted.groebner_basis()


@settings(max_examples=40, deadline=None)
@given(st.one_of(small_ideals(), artinian_ideals().map(lambda Ik: Ik[0])))
def test_add_last_variable_matches_sum(I):
    # the rewritten basis is Buchberger's basis of I + (v), element by element
    assert_rewrite_matches_sum(I)


@pytest.mark.parametrize("ring, gens", [
    (R2, ["x1^2 + x1*x2", "x2^3 - x1^2*x2"]),  # v = x2
    (R2Z, ["x1 + z", "1"]),  # the unit ideal
    (R2Z, ["x1^2 - x2*z", "z", "x2^2 + 2*x1*z"]),  # v already in I
    (R1Z, ["2*x1^2 + 6*x1*z", "z^3"]),  # dropping v-terms leaves content 2
    (RingSpec(1), ["x1^2"]),  # a single variable
])
def test_add_last_variable_examples(ring, gens):
    assert_rewrite_matches_sum(Ideal.from_strings(ring, gens))


def test_gb_cache_drops_its_oldest_entries(monkeypatch):
    # five distinct ideals through a cache bounded at two: at most two
    # entries stay, and every basis is the one an unbounded cache gives
    gens = [["x1^2", "x2^2"], ["x1^2", "x2^3"], ["x1*x2", "x1^2 + x2^2"],
            ["x1^3", "x2^2 - x1*x2"], ["x1^2 - x2^2", "x1*x2^2"]]
    monkeypatch.setattr(ideals, "_GB_CACHE", {})
    expected = [Ideal.from_strings(R2, g).groebner_basis() for g in gens]
    monkeypatch.setattr(ideals, "_GB_CACHE", {})
    monkeypatch.setattr(ideals, "GB_CACHE_SIZE", 2)
    assert [Ideal.from_strings(R2, g).groebner_basis() for g in gens] == expected
    assert len(ideals._GB_CACHE) <= 2
    assert [Ideal.from_strings(R2, g).groebner_basis() for g in gens] == expected
    assert len(ideals._GB_CACHE) <= 2


def test_gb_cache_keyed_by_integer_cores(monkeypatch):
    # generator lists equal up to a positive rational factor per generator
    # have the same integer cores, the one input of Buchberger, so they
    # share one entry; a key holds the ring and ints, no polynomial
    monkeypatch.setattr(ideals, "_GB_CACHE", {})
    fresh = Ideal.from_strings(R2, ["x1", "x2^2"]).groebner_basis()
    monkeypatch.setattr(ideals, "_GB_CACHE", {})
    assert Ideal.from_strings(R2, ["1/2*x1", "x2^2"]).groebner_basis() == fresh
    assert Ideal.from_strings(R2, ["x1", "x2^2"]).groebner_basis() == fresh
    assert len(ideals._GB_CACHE) == 1
    Ideal.from_strings(R2, ["x1^2 - 3/4*x1*x2", "x2^3"]).groebner_basis()
    for ring, flat in ideals._GB_CACHE:
        assert type(ring) is RingSpec
        assert type(flat) is tuple and all(type(x) is int for x in flat)


def test_hilbert_function_counted_once_listings_kept_by_none(monkeypatch):
    # hf_of lists once per ideal and keeps the count; require_artinian
    # lists on every call and hands out new lists
    calls = []
    original = ideals.standard_monomials_of_degree

    def counting(lms, width, d):
        calls.append(d)
        return original(lms, width, d)

    monkeypatch.setattr(ideals, "standard_monomials_of_degree", counting)
    I = Ideal.from_strings(R2, ["x1^2", "x2^3"])
    assert hf_of(I) == (1, 2, 2, 1)
    assert calls == [0, 1, 2, 3, 4]
    calls.clear()
    assert hf_of(I) == (1, 2, 2, 1)
    assert quotient_dimension(I) == 6
    assert calls == []
    first, second = require_artinian(I), require_artinian(I)
    assert calls == [0, 1, 2, 3, 4] * 2
    assert first == second
    assert first is not second and all(a is not b for a, b in zip(first, second))


def test_quotient_listing_gives_the_ideal_its_hilbert_function(monkeypatch):
    # build_quotient's listing counts the Hilbert function once, so a
    # later hf_of on the same ideal lists nothing
    calls = []
    original = ideals.standard_monomials_of_degree

    def counting(lms, width, d):
        calls.append(d)
        return original(lms, width, d)

    monkeypatch.setattr(ideals, "standard_monomials_of_degree", counting)
    I = Ideal.from_strings(R2, ["x1^2 + x2^2", "x1*x2^2"])
    A = quotient.build_quotient(I)
    calls.clear()
    listed = tuple(map(len, A.basis_by_degree))
    assert hf_of(I) == listed
    assert quotient_dimension(I) == sum(listed)
    assert calls == []


def test_rewrites_run_no_buchberger(monkeypatch):
    from citree.tree import children, contract_modulo_last, exact_sequence_check

    monkeypatch.setattr(ideals, "_GB_CACHE", {})
    I = Ideal(R2Z, tilde_generators(2, 2, 3))
    I.groebner_basis()
    calls = []
    monkeypatch.setattr(ideals, "_buchberger", lambda *a, **k: calls.append(a))
    add_last_variable(I).groebner_basis()
    contract_modulo_last(I).groebner_basis()
    children(I)[1].groebner_basis()
    exact_sequence_check(I)
    assert calls == []


def test_extend_with_last_variable_matches_buchberger(monkeypatch):
    # JR + (v) by the basis rewrite, for every thm53 member J read in both
    # rings one variable up, against Buchberger on the same generators
    from citree.tree import family_members

    monkeypatch.setattr(ideals, "_GB_CACHE", {})
    n_max, a_max = cli.thm53_bounds()
    cases = [(member.ideal, ring) for n in range(1, n_max + 1)
             for member in family_members(n, a_max)
             for ring in (RingSpec(n + 1), RingSpec(n, True))]
    cases.append((Ideal(RingSpec(1), [Polynomial.one(RingSpec(1))]), R1Z))  # the unit ideal
    for J, ring in cases:
        J.groebner_basis()
        calls = []
        with monkeypatch.context() as patch:
            patch.setattr(ideals, "_buchberger", lambda *a, **k: calls.append(a))
            lifted = extend_with_last_variable(J, ring)
            basis = lifted.groebner_basis()
            monos = require_artinian(lifted)
        assert calls == []
        v = Polynomial.variable(ring, ring.cheapest)
        reference = Ideal(ring, [g.extend(ring) for g in J.generators] + [v])
        assert lifted.generators == reference.generators
        assert basis == reference.groebner_basis()
        assert monos == require_artinian(reference)


def test_lift_and_contraction_rings_follow_below():
    # J = (x1^2, z^3) in K[x1, z] is not in the ring below K[x1, x2, z]:
    # read there it would move z's slot, so the lift refuses it
    J = Ideal.from_strings(R1Z, ["x1^2", "z^3"])
    with pytest.raises(RingMismatch):
        extend_with_last_variable(J, RingSpec(2, True))
    for bad in (RingSpec(1), RingSpec(3)):
        with pytest.raises(RingMismatch):
            extend_with_last_variable(Ideal.from_strings(RingSpec(1), ["x1^2"]), bad)
    assert [r.below() for r in (R1Z, R2, R2Z, RingSpec(3))] == \
        [RingSpec(1), RingSpec(1), R2, R2]
    with pytest.raises(ValueError):
        RingSpec(1).below()
    I = Ideal.from_strings(R2Z, ["x1^2 - x2*z", "x2^2 + z^2", "z^3"])
    assert contract_modulo_last(I).ring == R2


def monic_basis(I):
    """The reduced basis made monic, each element a sorted list of
    (exponents, coefficient) pairs."""
    return sorted((sorted((m, c / g.terms[0][1]) for m, c in g.terms)
                   for g in I.groebner_basis()))


def sympy_expr(p):
    """An R2Z polynomial as a sympy expression in x1, x2, z."""
    sympy = pytest.importorskip("sympy")
    x1, x2, z = sympy.symbols("x1 x2 z")
    return sum((sympy.Rational(c.numerator, c.denominator) * x1**m[0] * x2**m[1] * z**m[2]
                for m, c in p.terms), sympy.Integer(0))


def sympy_basis(I):
    """The reduced grevlex basis of an R2Z ideal by sympy, an independent
    implementation, as Polys in x1, x2, z."""
    sympy = pytest.importorskip("sympy")
    exprs = [sympy_expr(g) for g in I.generators]
    return (sympy.groebner(exprs, *sympy.symbols("x1 x2 z"), order="grevlex", domain="QQ").polys
            if exprs else [])


@settings(max_examples=30, deadline=None)
@given(st.one_of(small_ideals(), artinian_ideals().map(lambda Ik: Ik[0])))
def test_groebner_basis_against_sympy(I):
    theirs = sorted(sorted((m, Fraction(int(c.numerator), int(c.denominator)))
                           for m, c in poly.as_dict().items())
                    for poly in sympy_basis(I))
    assert monic_basis(I) == theirs


@settings(max_examples=30, deadline=None)
@given(artinian_ideals())
def test_hilbert_function_against_sympy(Ik):
    # count, degree by degree, the monomials outside sympy's initial ideal;
    # x1^k, x2^k, z^k lie in I, so degree 3(k-1) + 1 is past the socle
    I, k = Ik
    lms = [poly.monoms(order="grevlex")[0] for poly in sympy_basis(I)]
    counts = [sum(1 for m in product(range(d + 1), repeat=3) if sum(m) == d
                  and not any(all(a >= b for a, b in zip(m, lm)) for lm in lms))
              for d in range(3 * (k - 1) + 2)]
    while counts and not counts[-1]:
        counts.pop()
    assert ideals.hf_of(I) == tuple(counts)


@settings(max_examples=20, deadline=None)
@given(artinian_ideals(), st.integers(min_value=1, max_value=2).flatmap(
    lambda d: homogeneous_polys(R2Z, d)))
@example((Ideal.from_strings(R2Z, ["x1^2", "x2^3", "z^2"]), 3), P("z", R2Z))
def test_ideal_colon_against_sympy(Ik, f):
    # f*(I : f) reduces to 0 modulo sympy's basis of I, and R/(I : f) has
    # the Hilbert function of the exact sequence, so the colon is all of (I : f)
    I, _ = Ik
    if f.is_zero():
        return
    sympy = pytest.importorskip("sympy")
    C = ideal_colon(I, f)
    basis = sympy_basis(I)
    for h in C.generators:
        _, rem = sympy.reduced(sympy_expr(f * h), basis, *sympy.symbols("x1 x2 z"),
                               order="grevlex")
        assert rem == 0
    dims = hf_difference(hf_of(I), hf_of(ideal_sum(I, Ideal(R2Z, [f]))))
    assert shifted_hf_matches(dims, hf_of(C), f.degree())


def test_regular_sequence_permutation_invariant():
    gens = [symmetric_generator("p", 2, 2), symmetric_generator("p", 2, 3)]
    assert certify_regular_sequence(gens) == certify_regular_sequence(gens[::-1])


def count_certificate(gens):
    """The reference certificate: n forms of positive degree in n variables
    are a regular sequence exactly when dim R/I is the product of their
    degrees (False when R/I is not Artinian)."""
    if any(g.is_zero() or not g.is_homogeneous() or g.degree() < 1 for g in gens):
        return False
    try:
        return quotient_dimension(Ideal(gens[0].ring, gens)) == prod(g.degree() for g in gens)
    except NotArtinian:
        return False


def test_regular_sequence_certificate_matches_count_on_members():
    # every member A_n(a, m) with n <= 4 and a <= 5 is a complete intersection
    for n in range(1, 5):
        for a in range(1, 6):
            for m in range(n + 1):
                gens = member_generators(n, a, m)
                assert certify_regular_sequence(gens) and count_certificate(gens), (n, a, m)


@pytest.mark.parametrize("ring, texts", [
    (R2, ["x1^2", "x1*x2"]),
    (RingSpec(3), ["x1*x2", "x1*x3", "x2*x3"]),
    (R2, ["x1 + x2", "(x1 + x2)^2"]),
    (R2Z, ["x1^2", "x2^2", "x1*z"]),
    (R2Z, ["x1 + x2 + z", "x1^2 + x2^2 + z^2", "(x1 + x2 + z)^3"]),
])
def test_square_systems_that_are_not_regular_sequences(ring, texts):
    gens = [P(t, ring) for t in texts]
    assert not certify_regular_sequence(gens)
    assert not count_certificate(gens)
    assert not certify_regular_sequence(Ideal(ring, gens))


sparse_coeff = st.sampled_from((0, 0, 0, 1, -1, 2))


@st.composite
def square_systems(draw):
    """n low-degree forms in n = 2 or 3 variables, sparse enough that many
    are not regular sequences."""
    ring = draw(st.sampled_from((R2, RingSpec(3), R2Z)))
    top = 3 if ring.total_vars == 2 else 2
    gens = []
    for _ in range(ring.total_vars):
        monos = standard_monomials_of_degree([], ring.total_vars,
                                             draw(st.integers(min_value=1, max_value=top)))
        cs = draw(st.lists(sparse_coeff, min_size=len(monos), max_size=len(monos)))
        gens.append(Polynomial(ring, dict(zip(monos, cs))))
    return gens


@settings(max_examples=150, deadline=None)
@given(square_systems())
def test_regular_sequence_certificate_matches_count(gens):
    assert certify_regular_sequence(gens) == count_certificate(gens)


# --- colon certification ----------------------------------------------------------

divisors = st.integers(min_value=1, max_value=2).flatmap(lambda d: homogeneous_polys(R2Z, d))


def certify(I, f, J):
    """The module certificate of (I + (f))/I against the prediction J of
    (I : f): None when it proves (I : f) = J, else the condition that fails."""
    report = cyclic_presentation(ideal_sum(I, Ideal(I.ring, [f])), I, f, J)
    assert report["presentation_ok"]
    return report.get("failed_condition")


@settings(max_examples=15, deadline=None)
@given(artinian_ideals(), divisors)
def test_certify_colon_accepts_derived_colon(Ik, f):
    I, _ = Ik
    if f.is_zero():
        return
    assert certify(I, f, _colon_artinian(I, f)) is None


@settings(max_examples=15, deadline=None)
@given(artinian_ideals(), divisors, st.data())
def test_certify_colon_rejects_extra_generator(Ik, f, data):
    I, _ = Ik
    if f.is_zero():
        return
    C = _colon_artinian(I, f)
    outside = [m for monos in require_artinian(C) for m in monos]
    if not outside:  # (I : f) is the unit ideal
        return
    extra = Polynomial.monomial(R2Z, data.draw(st.sampled_from(outside)))
    assert certify(I, f, ideal_sum(C, Ideal(R2Z, [extra]))) == "hilbert_function"


@settings(max_examples=15, deadline=None)
@given(artinian_ideals(), divisors)
def test_certify_colon_rejects_the_ideal_itself(Ik, f):
    # f*I lies in I, so only the Hilbert functions tell I from (I : f)
    I, _ = Ik
    if f.is_zero():
        return
    expected = None if ideal_equal(_colon_artinian(I, f), I) else "hilbert_function"
    assert certify(I, f, I) == expected


@settings(max_examples=15, deadline=None)
@given(artinian_ideals(), divisors)
def test_certify_colon_rejects_initial_ideal(Ik, f):
    # in(I : f) has the Hilbert function of (I : f), so only containment
    # tells them apart
    I, _ = Ik
    if f.is_zero():
        return
    C = _colon_artinian(I, f)
    init = _leading_monomial_ideal(C)
    assert certify(I, f, init) == (None if ideal_equal(init, C) else "containment")


def test_certify_colon_examples():
    # (p_2, p_3, z) : e_2 = (p_1, p_2, z), and two wrong candidates: one with
    # the right Hilbert function but not inside the colon, one inside the
    # colon with the wrong Hilbert function
    z = Polynomial.variable(R2Z, "z")
    p = lambda i: symmetric_generator("p", 2, i).extend(R2Z)
    e2 = symmetric_generator("e_signed", 2, 2).extend(R2Z)
    J = Ideal(R2Z, [p(2), p(3), z])
    colon = Ideal(R2Z, [p(1), p(2), z])
    assert certify(J, e2, colon) is None
    assert certify(J, e2, _leading_monomial_ideal(colon)) == "containment"
    assert certify(J, e2, J) == "hilbert_function"
    # a non-Artinian I proves nothing, so the certificate refuses it
    I = Ideal.from_strings(R2, ["x1^2", "x1*x2"])
    with pytest.raises(NotArtinian):
        certify(I, P("x1", R2), Ideal.from_strings(R2, ["x1", "x2"]))


def _monomials(basis):
    return {k for g in basis for k, _ in g.terms} | {g.lm_exps for g in basis}


def test_cached_bases_share_monomial_tuples(monkeypatch):
    # equal monomials of two cached bases are one tuple, the table's
    monkeypatch.setattr(ideals, "_GB_CACHE", {})
    monkeypatch.setattr(ideals, "_MONOMIALS", {})
    first = Ideal.from_strings(R2, ["x1^2 - x1*x2", "x2^3"])._gb_elems()
    second = Ideal.from_strings(R2, ["x1^2 + x2^2", "x1*x2"])._gb_elems()
    keys = {k: k for g in first for k, _ in g.terms}
    shared = [k for g in second for k, _ in g.terms if k in keys]
    assert shared
    assert all(k is keys[k] is ideals._MONOMIALS[k] for k in shared)
    for g in first + second:
        assert g.lm_key is g.terms[0][0]
        assert g.lm_exps is ideals._MONOMIALS[g.lm_exps]


def test_monomial_table_holds_only_cached_bases(monkeypatch):
    # with room for two bases, the table never holds more than the
    # monomials of the (at most two) bases in the cache
    gens = [["x1^2", "x2^2"], ["x1^2", "x2^3"], ["x1*x2", "x1^2 + x2^2"],
            ["x1^3", "x2^2 - x1*x2"], ["x1^2 - x2^2", "x1*x2^2"]]
    monkeypatch.setattr(ideals, "_GB_CACHE", {})
    monkeypatch.setattr(ideals, "_MONOMIALS", {})
    monkeypatch.setattr(ideals, "GB_CACHE_SIZE", 2)
    for g in gens + gens:
        Ideal.from_strings(R2, g).groebner_basis()
        assert len(ideals._GB_CACHE) <= 2
        held = set().union(*map(_monomials, ideals._GB_CACHE.values()))
        assert set(ideals._MONOMIALS) == held
        assert all(k is v for k, v in ideals._MONOMIALS.items())


def test_shared_monomials_keep_every_member_basis(monkeypatch):
    # the thm53 default members and the depth-five roots, built one after
    # another through one table, against a cold Buchberger run each
    def parts(basis):
        return [(g.terms, g.lm_key, g.lm_exps, g.lc) for g in basis]

    n_max, a_max = cli.thm53_bounds()
    members = [(n, 1, n) for n in range(1, n_max + 1)]
    members += [(n, a, m) for n in range(1, n_max + 1) for a in range(2, a_max + 1)
                for m in range(1, n + 1)]
    members += [(5, 3, 3), (5, 8, 3)]
    monkeypatch.setattr(ideals, "_GB_CACHE", {})
    monkeypatch.setattr(ideals, "_MONOMIALS", {})
    for n, a, m in members:
        gens = member_generators(n, a, 0 if a == 1 else m)
        cold = ideals._buchberger([ideals._poly_to_core(g) for g in gens])
        assert parts(Ideal(RingSpec(n), gens)._gb_elems()) == parts(cold), (n, a, m)
    assert len(ideals._GB_CACHE) == len(members)
