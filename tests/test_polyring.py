"""Ring arithmetic, monomial order, parsing, the library's records and
what `import citree` loads."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from citree.parse import ParseError, parse_polynomial
from citree.polyring import (
    Polynomial,
    RingMismatch,
    RingSpec,
    format_polynomial,
    grevlex_key,
    mono_degree,
    mono_mul,
)
from citree.quotient import RationalMatrix
from citree.tree import family_member

R2Z = RingSpec(2, has_z=True)
R2 = RingSpec(2)


def partial_derivative(f, var):
    """The formal partial derivative of f by the variable named var."""
    i = f.ring.var_index(var)
    return Polynomial(f.ring, {m[:i] + (m[i] - 1,) + m[i + 1:]: c * m[i]
                               for m, c in f.terms if m[i]})


def P(text, ring=R2Z):
    return parse_polynomial(text, ring)


# --- spec examples -----------------------------------------------------------


def test_add_inverse():
    assert (P("x1") + P("-x1")).is_zero()


def test_add_disjoint_supports():
    assert P("x1^2 + x2^2") + P("z^2") == P("x1^2 + x2^2 + z^2")


def test_add_rational_coefficients():
    assert P("1/2*x1") + P("1/3*x1") == P("5/6*x1")


def test_mul_defining_expansion():
    left = P("z - x1") * P("z - x2")
    assert left == P("z^2 - x1*z - x2*z + x1*x2")


def test_mul_identity():
    p = P("3/2*x1^2*z - x2")
    assert p * Polynomial.one(R2Z) == p


def test_mul_square():
    assert P("x1 + x2") ** 2 == P("x1^2 + 2*x1*x2 + x2^2")


def test_partial_derivative_z():
    f0 = P("z^2 - x1*z - x2*z + x1*x2")
    assert partial_derivative(f0, "z") == P("2*z - x1 - x2")


def test_partial_derivative_no_z():
    assert partial_derivative(P("x1^3"), "z").is_zero()


def test_partial_derivative_power():
    assert partial_derivative(P("z^3"), "z") == P("3*z^2")


# --- canonical form, formatting, parsing -----------------------------------------


def test_format_round_trip_example():
    text = "3/2*x1^2*z - x2"
    assert format_polynomial(P(text)) == text


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        P("x1 + ")
    assert err.value.position == 6


def test_parse_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_polynomial("x3", R2)
    with pytest.raises(ParseError, match="unknown variable"):
        parse_polynomial("z", R2)


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        parse_polynomial("x1", R2) + P("x1")


def test_extend_reads_one_variable_up():
    # the one lift: from ring.below() into ring, v's exponent 0 appended
    p = parse_polynomial("x1*x2 - 2*x2^2", R2)
    q = p.extend(R2Z)
    assert q.ring == R2Z and q == P("x1*x2 - 2*x2^2")
    assert [m for m, _ in q.terms] == [m + (0,) for m, _ in p.terms]
    assert p.extend(RingSpec(3)) == parse_polynomial("x1*x2 - 2*x2^2", RingSpec(3))
    # any other ring is refused: the same ring, two steps up, one variable,
    # and K[x1, x2, z] for K[x1, z], where z would move to x2's slot
    for ring in (R2, RingSpec(3, True), RingSpec(4)):
        with pytest.raises(RingMismatch):
            p.extend(ring)
    with pytest.raises(RingMismatch):
        parse_polynomial("x1", RingSpec(1)).extend(RingSpec(1))
    with pytest.raises(RingMismatch):
        parse_polynomial("x1 + z", RingSpec(1, True)).extend(R2Z)


def test_zero_polynomial_degree():
    assert Polynomial.zero(R2).degree() == -1
    assert Polynomial.one(R2).degree() == 0


def test_polynomials_are_immutable():
    p = P("x1 + z")
    with pytest.raises(AttributeError):
        p.ring = R2
    with pytest.raises(AttributeError):
        p.terms = ()


# --- records and import footprint -------------------------------------------------


def test_ring_spec_value_semantics():
    assert RingSpec(2, True) == R2Z and RingSpec(2) == R2 and R2 != R2Z
    assert RingSpec(3) != RingSpec(2) and R2 != "K[x1, x2]"
    assert hash(RingSpec(2, has_z=True)) == hash(R2Z)
    assert {RingSpec(2): "a"}[RingSpec(2, False)] == "a"
    assert str(R2Z) == "K[x1, x2, z]"
    # the cheapest variable and the ring without it
    assert (R2Z.cheapest, R2.cheapest, RingSpec(1).cheapest) == (2, 1, 0)
    assert (R2Z.below(), R2.below(), RingSpec(1, True).below()) == (R2, RingSpec(1), RingSpec(1))
    with pytest.raises(ValueError, match="at least one x-variable"):
        RingSpec(0)


@pytest.mark.parametrize("record, field", [
    (R2, "nvars"),
    (RationalMatrix(1, 1, ((Fraction(1),),)), "entries"),
    (family_member(2, 2, 1), "ideal"),
])
def test_frozen_records_refuse_assignment(record, field):
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        record.extra = None
    assert getattr(record, field) is before


def _loaded_after(module, names):
    """Which of names are in sys.modules after importing module alone; -S:
    no site, which on some interpreters loads typing itself."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import {module}; "
            f"print(' '.join(m for m in {names!r} if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


# the modules the verifiers load
VERIFICATION = tuple(f"citree.{m}" for m in ("polyring", "linalg", "ideals", "symfun",
                                             "quotient", "lefschetz", "csm", "tree"))
# and the text layers: parse reads polynomials, draw renders diagrams
LIBRARY = VERIFICATION + ("citree.parse", "citree.draw", "citree.cli")


def test_import_loads_no_introspection_modules():
    # citree.draw loads every verification module, so with citree.parse the
    # check covers the whole library but cli
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "typing")
    assert _loaded_after("citree.draw, citree.parse", LIBRARY + heavy) == list(LIBRARY[:-1])


@pytest.mark.parametrize("module, loaded", [
    ("citree", []),  # a plain package: it imports none of its modules
    ("citree.polyring", ["citree.polyring"]),
    ("citree.parse", ["citree.polyring", "citree.parse"]),
    # the verifiers load no parser, no renderer and no command line
    ("citree.tree", list(VERIFICATION)),
])
def test_import_loads_only_what_it_names(module, loaded):
    assert _loaded_after(module, LIBRARY) == loaded


# --- hypothesis strategies --------------------------------------------------------

coeffs = st.builds(
    Fraction, st.integers(min_value=-6, max_value=6), st.integers(min_value=1, max_value=4)
)


def polys(ring):
    monos = st.tuples(*[st.integers(min_value=0, max_value=3)] * ring.total_vars)
    term = st.tuples(monos, coeffs)
    return st.lists(term, max_size=5).map(lambda items: Polynomial(ring, items))


def monomials(ring):
    return st.tuples(*[st.integers(min_value=0, max_value=4)] * ring.total_vars)


@settings(max_examples=60, deadline=None)
@given(polys(R2Z), polys(R2Z), polys(R2Z))
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polys(R2Z), polys(R2Z))
def test_leibniz_rule(p, q):
    lhs = partial_derivative(p * q, "z")
    rhs = p * partial_derivative(q, "z") + q * partial_derivative(p, "z")
    assert lhs == rhs


@settings(max_examples=80, deadline=None)
@given(monomials(R2Z), monomials(R2Z), monomials(R2Z))
def test_grevlex_total_order_and_mult_compat(m1, m2, m):
    k1, k2 = grevlex_key(m1), grevlex_key(m2)
    assert (k1 < k2) or (k1 > k2) or m1 == m2
    if k1 < k2:
        assert grevlex_key(mono_mul(m1, m)) < grevlex_key(mono_mul(m2, m))


@settings(max_examples=60, deadline=None)
@given(polys(R2Z), polys(R2Z))
def test_homogeneous_degree_additivity(p, q):
    def top(poly):
        d = poly.degree()
        return Polynomial(poly.ring, {m: c for m, c in poly.terms if mono_degree(m) == d})

    p, q = top(p), top(q)
    if p.is_zero() or q.is_zero():
        return
    assert (p * q).degree() == p.degree() + q.degree()
    assert (p * q).is_homogeneous()


@settings(max_examples=60, deadline=None)
@given(polys(R2Z))
def test_format_parse_round_trip(p):
    assert parse_polynomial(format_polynomial(p), R2Z) == p


@settings(max_examples=40, deadline=None)
@given(polys(R2Z))
def test_terms_sorted_descending(p):
    keys = [grevlex_key(m) for m, _ in p.terms]
    assert keys == sorted(keys, reverse=True)
    assert all(c != 0 for _, c in p.terms)
