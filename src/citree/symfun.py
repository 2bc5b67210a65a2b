"""Symmetric polynomial generators and their derivative identities.

The power family is the mixed family at b = n: both are read from one
member list (tilde_generators), p~_i = p_i + z^i being the power sum p_i
of the n+1 variables x1..xn, z.  The boundary polynomials f^(k) and
g^(k) are the z-derivatives of one truncation of sum_i e_i z^(n-i), of
degree top = n (kind f) or top = b (kind g); below the verifiers only top
is passed.  Both they and the derivative identity e.Z.u^(k) =
F^(k+1)/(k+1) are sums over one column, derivative_vector's u^(k) of k-th
z-derivatives of 1, z, z^2, ..., with e_i read in K[x1..xn, z] by sym_e.

Conventions, fixed once for the whole package:

* e_i is ALWAYS the signed elementary symmetric polynomial, so that
  prod(z - x_j) = sum_i e_i z^(n-i).  The unsigned version is never
  exposed; every formula here uses the signed one.
* e_i = 0 for i > n.
* p_0 is the constant n (the number of x-variables).  This convention is
  load-bearing: it makes sum_{i=0}^n e_i p_(m-i) vanish identically for
  every m >= n, including m = n where the e_n p_0 term appears.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import perm

from .polyring import InvalidInput, Polynomial, RingSpec

# Polynomials kept by symmetric_generator and by boundary_polynomial, each;
# the full verification makes 79 and 38.
GENERATOR_CACHE_SIZE = 512


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def symmetric_generator(kind: str, n: int, i: int) -> Polynomial:
    """The generators e_i and p_i of K[x1..xn]; e_i = 0 for i > n."""
    if n < 1:
        raise ValueError("need n >= 1")
    if i < 0:
        raise ValueError("need i >= 0")
    ring = RingSpec(n)
    if kind == "e_signed":
        return Polynomial(ring, {tuple(int(j in combo) for j in range(n)): (-1) ** i
                                 for combo in combinations(range(n), i)})
    if kind == "p":
        # sum_j x_j^i, added term by term, so p_0 = n
        return Polynomial(ring, ((tuple(i if k == j else 0 for k in range(n)), 1)
                                 for j in range(n)))
    raise ValueError(f"unknown generator kind {kind!r}")


def member_generators(n: int, a: int, m: int):
    """Generators of the family member A_n(a, m) = (p_a..p_(a+m-1),
    e_(m+1)..e_n) in K[x1..xn], for 0 <= m <= n: the m power sums of
    consecutive degrees from a, then the elementary symmetric polynomials."""
    if not 0 <= m <= n or (m and a < 1):
        raise ValueError(f"invalid member A_{n}({a}, {m})")
    return ([symmetric_generator("p", n, a + t) for t in range(m)]
            + [symmetric_generator("e_signed", n, i) for i in range(m + 1, n + 1)])


def tilde_generators(n: int, a: int, m: int):
    """member_generators(n + 1, a, m) read in K[x1..xn, z], x_(n+1) as z:
    p~_a..p~_(a+m-1), then e~_(m+1)..e~_(n+1)."""
    ring = RingSpec(n, has_z=True)
    return [Polynomial(ring, g.terms) for g in member_generators(n + 1, a, m)]


def sym_e(ring: RingSpec, i: int) -> Polynomial:
    """Signed e_i of the leading variables (all but the cheapest one) read
    in ring: e_i of x1..xn in K[x1..xn, z]."""
    return symmetric_generator("e_signed", ring.cheapest, i).extend(ring)


def derivative_vector(n: int, size: int, k: int):
    """u^(k) in K[x1..xn, z]: the column of k-th z-derivatives of 1, z, ...,
    z^(size-1), entry j being perm(j, k) z^(j-k), zero for j < k."""
    ring = RingSpec(n, has_z=True)
    z = Polynomial.variable(ring, "z")
    return [z ** (j - k) * perm(j, k) if j >= k else Polynomial.zero(ring) for j in range(size)]


@lru_cache(maxsize=GENERATOR_CACHE_SIZE)
def boundary_polynomial(n: int, top: int, k: int) -> Polynomial:
    """The k-th z-derivative of sum_{i<=top} e_i z^(top-i) in K[x1..xn, z],
    sum_i e_i u^(k)[top-i]: f^(k) at top = n, g^(k) at top = b; needs
    0 <= k <= top <= n."""
    if not 0 <= k <= top <= n:
        raise ValueError(f"need 0 <= k <= top <= n, not k={k}, top={top}, n={n}")
    ring = RingSpec(n, has_z=True)
    u = derivative_vector(n, top + 1, k)
    acc = Polynomial.zero(ring)
    for i in range(top + 1):
        acc = acc + sym_e(ring, i) * u[top - i]
    return acc


def newton_sum(n: int, m: int, terms: int) -> Polynomial:
    """sum_{i<terms} e_i p_(m-i) in K[x1..xn], for terms <= m + 1: the one
    Newton sum, one product per term."""
    acc = Polynomial.zero(RingSpec(n))
    for i in range(terms):
        acc = acc + symmetric_generator("e_signed", n, i) * symmetric_generator("p", n, m - i)
    return acc


def newton_check(n: int, k: int):
    """Whether k e_k + sum_{i=0}^{k-1} e_i p_{k-i} vanishes identically.

    Returns (ok, residual); the residual polynomial is zero exactly when
    the identity holds.
    """
    if k < 1:
        raise InvalidInput("need k >= 1")
    residual = symmetric_generator("e_signed", n, k) * k + newton_sum(n, k, k)
    return residual.is_zero(), residual


def vanishing_sum_residual(n: int, m: int) -> Polynomial:
    """sum_{i=0}^{n} e_i p_{m-i}; identically zero for every m >= n."""
    if m < n:
        raise InvalidInput("need m >= n")
    return newton_sum(n, m, n + 1)


def derivative_identity_check(n: int, top: int, k: int) -> bool:
    """Check e . Z . u^(k) = F^(k+1)/(k+1), F the boundary polynomial of
    degree top (f at top = n, g at top = b), e = [e_(top-1), .., e_0] and
    Z the unipotent matrix of z^(i-j), i >= j, both of size top, as an
    exact polynomial identity: the sum of e_(top-1-i) z^(i-j) u^(k)[j]
    over j <= i < top."""
    if not 2 <= k <= top - 1 or top > n:
        raise InvalidInput(f"need 2 <= k <= top-1 and top <= n, not k={k}, top={top}, n={n}")
    ring = RingSpec(n, has_z=True)
    z = Polynomial.variable(ring, "z")
    u = derivative_vector(n, top, k)
    lhs = Polynomial.zero(ring)
    for i in range(top):
        for j in range(i + 1):
            lhs = lhs + sym_e(ring, top - 1 - i) * z ** (i - j) * u[j]
    return lhs == boundary_polynomial(n, top, k + 1) * Fraction(1, k + 1)
