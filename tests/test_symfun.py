"""Symmetric generator families and their identities."""

import pytest
from hypothesis import given, settings, strategies as st

from citree import cli, symfun
from citree.parse import parse_polynomial
from citree.polyring import Polynomial, RingSpec
from citree.symfun import (
    boundary_polynomial,
    derivative_identity_check,
    derivative_vector,
    member_generators,
    newton_check,
    symmetric_generator,
    tilde_generators,
    vanishing_sum_residual,
)
from test_polyring import partial_derivative


def test_e_signed_small():
    assert symmetric_generator("e_signed", 2, 1) == parse_polynomial("-x1 - x2", RingSpec(2))
    assert symmetric_generator("e_signed", 2, 2) == parse_polynomial("x1*x2", RingSpec(2))
    assert symmetric_generator("e_signed", 2, 0) == Polynomial.one(RingSpec(2))


def test_e_signed_beyond_range_is_zero():
    assert symmetric_generator("e_signed", 2, 3).is_zero()
    assert symmetric_generator("e_signed", 3, 7).is_zero()


def test_p_tilde():
    # p~_i = p_i + z^i is the power sum p_i of the n+1 variables x1..xn, z,
    # renamed; tilde_generators(n, i, 1) reads it first
    assert tilde_generators(2, 2, 1)[0] == parse_polynomial("x1^2 + x2^2 + z^2", RingSpec(2, True))
    for n in range(1, 5):
        ring = RingSpec(n, True)
        z = Polynomial.variable(ring, "z")
        for i in range(7):
            renamed = Polynomial(ring, symmetric_generator("p", n + 1, i).terms)
            assert renamed == symmetric_generator("p", n, i).extend(ring) + z ** i
            if i:
                assert tilde_generators(n, i, 1)[0] == renamed
        # p_0 is the variable count, so p~_0 = n + 1
        p0 = Polynomial(ring, symmetric_generator("p", n + 1, 0).terms)
        assert p0 == Polynomial.constant(ring, n + 1)


def _e_tilde(n, i):
    # e~_i: the signed e_i of the n+1 variables x1..xn, z, as the mixed
    # families spell it (x_(n+1) read as z)
    ring = RingSpec(n, True)
    return Polynomial(ring, symmetric_generator("e_signed", n + 1, i).terms)


def test_e_tilde_values():
    ring = RingSpec(2, True)
    assert _e_tilde(2, 3) == parse_polynomial("-x1*x2*z", ring)
    assert _e_tilde(2, 0) == Polynomial.one(ring)


def test_e_tilde_recurrence():
    # e~_i = e_i - z e_(i-1) for 1 <= i <= n, and e~_(n+1) = -z e_n
    for n in (1, 2, 3, 4):
        ring = RingSpec(n, True)
        z = Polynomial.variable(ring, "z")
        for i in range(1, n + 1):
            e_i = symmetric_generator("e_signed", n, i).extend(ring)
            e_prev = symmetric_generator("e_signed", n, i - 1).extend(ring)
            assert _e_tilde(n, i) == e_i - z * e_prev
        e_n = symmetric_generator("e_signed", n, n).extend(ring)
        assert _e_tilde(n, n + 1) == -(z * e_n)


def test_defining_product_identity():
    # sum_i e_i z^(n-i) equals prod (z - x_j)
    for n in range(1, 6):
        ring = RingSpec(n, True)
        z = Polynomial.variable(ring, "z")
        acc = Polynomial.zero(ring)
        for i in range(n + 1):
            acc = acc + symmetric_generator("e_signed", n, i).extend(ring) * z ** (n - i)
        prod = Polynomial.one(ring)
        for j in range(n):
            prod = prod * (z - Polynomial.variable(ring, j))
        assert acc == prod


def test_tilde_product_substituted_at_z_vanishes():
    # expanding prod over all n+1 variables and substituting the extra one
    # for z kills the polynomial: sum_i e~_i z^(n+1-i) = 0
    for n in (1, 2, 3):
        ring = RingSpec(n, True)
        z = Polynomial.variable(ring, "z")
        acc = Polynomial.zero(ring)
        for i in range(n + 2):
            acc = acc + _e_tilde(n, i) * z ** (n + 1 - i)
        assert acc.is_zero()


def test_member_generators():
    p = [symmetric_generator("p", 3, i) for i in range(7)]
    e = [symmetric_generator("e_signed", 3, i) for i in range(4)]
    assert member_generators(3, 2, 1) == [p[2], e[2], e[3]]
    assert member_generators(3, 4, 3) == [p[4], p[5], p[6]]
    assert member_generators(3, 5, 0) == [e[1], e[2], e[3]]
    for bad in [(3, 2, 4), (3, 2, -1), (3, 0, 1)]:
        with pytest.raises(ValueError):
            member_generators(*bad)


def test_newton_examples():
    ok, _ = newton_check(2, 1)
    assert ok
    ok, _ = newton_check(2, 2)
    assert ok
    ok, _ = newton_check(3, 5)
    assert ok


def test_newton_grid():
    for n, kmax in cli.newton_grid():
        for k in range(1, kmax + 1):
            ok, residual = newton_check(n, k)
            assert ok, f"n={n} k={k}: residual {residual}"


def test_vanishing_sum_grid():
    for n, _ in cli.newton_grid():
        for m in range(n, 2 * n + 1):
            assert vanishing_sum_residual(n, m).is_zero()


def test_boundary_f_examples():
    # kind f is the boundary polynomial of degree top = n
    ring = RingSpec(2, True)
    f0 = boundary_polynomial(2, 2, 0)
    assert f0 == parse_polynomial("z^2 - x1*z - x2*z + x1*x2", ring)
    f2 = boundary_polynomial(2, 2, 2)
    assert f2 == Polynomial.constant(ring, 2)


def test_boundary_g_example():
    # kind g is the boundary polynomial of degree top = b
    ring = RingSpec(3, True)
    g0 = boundary_polynomial(3, 1, 0)
    assert g0 == parse_polynomial("z - x1 - x2 - x3", ring)


def test_boundary_matches_iterated_derivative():
    # construction from the derivative vector u^(k) vs repeated formal
    # differentiation, for kind f (top = n) and kind g (top = b < n)
    for n in (2, 3, 4):
        for top in range(n + 1):
            expect = boundary_polynomial(n, top, 0)
            for k in range(0, top + 1):
                assert boundary_polynomial(n, top, k) == expect
                expect = partial_derivative(expect, "z")


def test_boundary_range_errors():
    with pytest.raises(ValueError):
        boundary_polynomial(2, 2, 3)
    with pytest.raises(ValueError):
        boundary_polynomial(2, 3, 0)
    with pytest.raises(ValueError):
        boundary_polynomial(3, 1, 2)


def test_derivative_identity_examples():
    assert derivative_identity_check(4, 4, 2)
    assert derivative_identity_check(5, 5, 3)
    assert derivative_identity_check(5, 4, 2)


def test_derivative_identity_check_can_fail(monkeypatch):
    # F^(k) in place of F^(k+1) on the right-hand side breaks every identity
    real = symfun.boundary_polynomial
    monkeypatch.setattr(symfun, "boundary_polynomial", lambda n, top, k: real(n, top, k - 1))
    assert not derivative_identity_check(4, 4, 2)
    assert not derivative_identity_check(5, 4, 2)


def test_derivative_identity_range_errors():
    with pytest.raises(ValueError):
        derivative_identity_check(3, 3, 3)
    with pytest.raises(ValueError):
        derivative_identity_check(4, 3, 3)
    with pytest.raises(ValueError):
        derivative_identity_check(3, 4, 2)


def test_derivative_vector_entries():
    ring = RingSpec(3, True)
    z = Polynomial.variable(ring, "z")
    vec = derivative_vector(3, 3, 1)
    assert vec[0].is_zero()
    assert vec[1] == Polynomial.one(ring)
    assert vec[2] == 2 * z
    # entry j is j (j-1) .. (j-k+1) z^(j-k), zero below k
    assert derivative_vector(3, 5, 2) == [Polynomial.zero(ring)] * 2 + [
        Polynomial.constant(ring, 2), 6 * z, 12 * z ** 2]


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=8))
def test_newton_property(n, k):
    ok, _ = newton_check(n, k)
    assert ok
