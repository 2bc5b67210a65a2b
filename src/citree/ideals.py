"""Groebner-basis engine and ideal calculus over the rationals.

Ideals carry homogeneous generators and a lazily computed reduced Groebner
basis under the ring's grevlex order; the reduced basis is canonical
(primitive integer coefficients, positive leading coefficient, sorted), so
two ideals are equal exactly when their reduced bases coincide.
Buchberger's algorithm prunes S-pairs by the Gebauer-Moeller criteria only.
Division keeps its remainder as a sparse accumulator, a dict of
coefficients with its keys in one sorted list, so a reduction step costs
the reducer's length, not the remainder's.  An S-polynomial is summed on
the same kind of dict and sorted once, so the engine combines sparse
polynomials in one way.

Both children of the ring's cheapest variable v are rewrites of the
reduced basis, with no Buchberger run: (I : v) divides v out of the
elements whose leading monomial it divides, and I + (v) keeps v and drops
the v-terms of the other elements, because in grevlex with v cheapest
in(I + (v)) = in(I) + (v) (Bayer-Stillman).  The way back up,
extend_with_last_variable, is a rewrite too: JR + (v) from J's basis.
The ring states v and the ring without it (RingSpec.cheapest and
RingSpec.below), for both directions.

Every colon a verifier needs is predicted, and one certificate,
csm.cyclic_presentation, settles each prediction J of (I : f).  It reads
two helpers here: the exact sequence
0 -> R/(I : f)(-deg f) -> R/I -> R/(I + (f)) -> 0 gives the Hilbert
function of R/(I : f) without the colon (hf_difference), and
shifted_hf_matches compares it with HF(R/J) moved up by deg f.  A colon
is derived only on request: by the basis rewrite when f is v, which
works for any I, and otherwise by ideal_colon lifting kernels of
multiplication on standard monomials, which needs R/I to be Artinian
(the only setting the paper uses).  No verifier calls ideal_colon; it is
public API and the test suite's reference for the certificate.  The test
suite checks both derivations against a brute-force linear-algebra
oracle, the certificate against the kernel-lifting colon, and the
reduced basis against sympy.

R/I is Artinian exactly when every variable has a pure power among the
leading monomials of the reduced basis (the monomials outside in(I) are
a basis of R/I, Macaulay), so artinian_caps decides it with no listing.
An ideal keeps no standard monomial.  What it keeps is the Hilbert
function of R/I: hf_of counts it once per ideal, degree by degree, and
caches it, and quotient_dimension sums it.  extend_with_last_variable
hands the lift the Hilbert function of the ideal below, so a lift lists
nothing.  require_artinian lists the monomials themselves anew on each
call, for the readers that index them: build_quotient and
_colon_artinian; when the ideal has no Hilbert function yet, the counts
of that listing become it, so hf_of never lists a quotient that was
built.  Both hf_of and require_artinian refuse a quotient that
is not Artinian with NotArtinian; the lift of one carries no Hilbert
function.  The same decision certifies a regular sequence: n homogeneous
forms of positive degree in the Cohen-Macaulay ring K[x1..xn] form one
exactly when R/I is Artinian (certify_regular_sequence).

Reduced bases are cached in _GB_CACHE, keyed by the ring and one flat
tuple of ints: for each generator its term count, then each term's grevlex
key and coefficient in the integer core den * g that Buchberger reads.  So
a key holds no Polynomial or Fraction, and two generator lists share an
entry only when they give Buchberger the same input, which needs them to
agree up to a positive rational factor per generator.  Cached bases share
one tuple per monomial: each term key and leading exponent vector of a
basis entering the cache goes through one table, _MONOMIALS, that maps a
tuple to itself.  A full cache is emptied together with the table, one
generation at a time, so both hold the monomials of at most GB_CACHE_SIZE
bases.
"""

from __future__ import annotations

import heapq
from bisect import insort
from fractions import Fraction
from itertools import islice
from math import gcd
from operator import add

from . import linalg
from .polyring import (
    InvalidInput,
    Polynomial,
    RingMismatch,
    RingSpec,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_lcm,
)


class NotArtinian(InvalidInput):
    """An operation needs R/I to be Artinian and it is not."""

    def __init__(self, ideal, variable):
        super().__init__(
            f"quotient by {ideal} is not Artinian: no pure power of {variable} "
            "among the leading terms"
        )
        self.variable = variable


# --- encoded monomials ------------------------------------------------------
# The engine stores a monomial as its grevlex_key, a tuple comparing like
# the monomial; multiplication of monomials is componentwise addition of keys.


def _decode(key):
    """The exponent vector whose grevlex_key is key."""
    return tuple(-e for e in reversed(key[1:]))


def _coprime(a, b):
    return all(x == 0 or y == 0 for x, y in zip(a, b))


class _BasisElem:
    __slots__ = ("terms", "lm_key", "lm_exps", "lc")

    def __init__(self, terms):
        self.terms = terms
        self.lm_key = terms[0][0]
        self.lm_exps = _decode(self.lm_key)
        self.lc = terms[0][1]


# --- core polynomial arithmetic ---------------------------------------------
# A core polynomial is a list of (key, int coefficient) pairs sorted
# descending by key.


def _content(coeffs):
    g = 0
    for c in coeffs:
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def _normalize(terms):
    """Primitive with positive leading coefficient."""
    if not terms:
        return terms
    g = _content(c for _, c in terms)
    if terms[0][1] < 0:
        g = -g
    if g != 1:
        terms = [(k, c // g) for k, c in terms]
    return terms


def _reduce_core(p, basis):
    """Full division remainder of a core polynomial by the basis.

    Returns a list of (key, Fraction) pairs, descending: the true normal
    form of (integer core) p, linear in p.  The unprocessed remainder is a
    dict key -> int with its keys in an ascending list, so the lead is the
    last key and a reduction step touches only the reducer's terms.  The
    reducer is the first basis element, in list order, whose leading
    monomial divides the lead.  Reduction is fraction-free: the remainder
    is scaled only when the reducer's leading coefficient does not divide
    the lead's, its content is divided out every 16 steps, and the running
    scale is divided out on emission.
    """
    out = []
    rem = dict(p)
    keys = [k for k, _ in reversed(p)]
    scale = Fraction(1)
    steps = 0
    while keys:
        klead = keys.pop()
        clead = rem.pop(klead)
        if not clead:  # cancelled after its key went in
            continue
        elead = _decode(klead)
        for hit in basis:
            if mono_divides(hit.lm_exps, elead):
                break
        else:
            out.append((klead, clead / scale))
            continue
        shift = mono_div(klead, hit.lm_key)
        g = gcd(clead, hit.lc)
        a = hit.lc // g
        b = clead // g
        if a != 1:
            rem = {k: a * c for k, c in rem.items()}
            scale *= a
        for k, c in islice(hit.terms, 1, None):
            k = tuple(map(add, k, shift))
            old = rem.get(k)
            if old is None:
                rem[k] = -b * c
                insort(keys, k)
            else:
                rem[k] = old - b * c
        steps += 1
        if steps % 16 == 0:
            cont = _content(rem.values())
            if cont > 1:
                rem = {k: c // cont for k, c in rem.items()}
                scale /= cont
    return out


def _fractions_to_primitive(frac_terms):
    """Scale a descending (key, Fraction) list to primitive positive ints."""
    if not frac_terms:
        return []
    den = 1
    for _, c in frac_terms:
        den = den * c.denominator // gcd(den, c.denominator)
    terms = [(k, int(c * den)) for k, c in frac_terms]
    return _normalize(terms)


def _reduce_to_primitive(p, basis):
    return _fractions_to_primitive(_reduce_core(p, basis))


def _spoly(f, g):
    """a*x^sf*f - b*x^sg*g with the heads cancelled, descending: the tails
    summed on a dict key -> int, as _reduce_core keeps its remainder."""
    lk = grevlex_key(mono_lcm(f.lm_exps, g.lm_exps))
    sf = mono_div(lk, f.lm_key)
    sg = mono_div(lk, g.lm_key)
    d = gcd(f.lc, g.lc)
    a = g.lc // d
    b = f.lc // d
    acc = {tuple(map(add, k, sf)): a * c for k, c in islice(f.terms, 1, None)}
    for k, c in islice(g.terms, 1, None):
        k = tuple(map(add, k, sg))
        acc[k] = acc.get(k, 0) - b * c
    return sorted((kc for kc in acc.items() if kc[1]), reverse=True)


# --- standard monomials ------------------------------------------------------


def _pure_power_caps(lm_exps_list, width):
    """Per-variable pure-power exponents of a proper monomial ideal, or None."""
    caps = [None] * width
    for lm in lm_exps_list:
        nz = [v for v in range(width) if lm[v]]
        if len(nz) == 1:
            v = nz[0]
            if caps[v] is None or lm[v] < caps[v]:
                caps[v] = lm[v]
    return caps


def _standard_monomials_into(out, width, pos, remaining, prefix, alive):
    """Append to out each monomial prefix + (e_pos, ..) of degree
    sum(prefix) + remaining that no exponent vector in alive divides;
    alive holds those whose first pos exponents prefix reaches."""
    if pos == width - 1:
        if all(l[pos] > remaining for l in alive):
            out.append(prefix + (remaining,))
        return
    for e in range(remaining, -1, -1):
        _standard_monomials_into(out, width, pos + 1, remaining - e, prefix + (e,),
                                 [l for l in alive if l[pos] <= e])


def standard_monomials_of_degree(lms, width, d):
    """Degree-d monomials outside the monomial ideal, descending grevlex."""
    out = []
    _standard_monomials_into(out, width, 0, d, (), [l for l in lms if sum(l) <= d])
    out.sort(key=grevlex_key, reverse=True)
    return out


# --- Buchberger ---------------------------------------------------------------


# S-pair reductions after which _buchberger gives up with RuntimeError.
MAX_BUCHBERGER_STEPS = 500000


def _add_element(G, pairs, heap, terms):
    """Gebauer-Moeller pair update for one new basis element, appended to
    G: pairs maps each pending index pair (i, j) to its lcm, and heap
    holds (lcm key, j, i) for each, left in place once the pair leaves
    pairs (lazy deletion)."""
    h = _BasisElem(terms)
    t = len(G)
    lcms = {i: mono_lcm(G[i].lm_exps, h.lm_exps) for i in range(t)}

    remaining = sorted(range(t), key=lambda i: grevlex_key(lcms[i]))
    kept = []
    while remaining:
        i = remaining.pop(0)
        li = lcms[i]
        if _coprime(G[i].lm_exps, h.lm_exps) or not (
            any(mono_divides(lcms[j], li) for j in remaining)
            or any(mono_divides(lcms[j], li) for j in kept)
        ):
            kept.append(i)
    new_pairs = [i for i in kept if not _coprime(G[i].lm_exps, h.lm_exps)]

    # Buchberger's chain criterion against pending pairs
    hlm = h.lm_exps
    for (i, j), l in list(pairs.items()):
        if (
            mono_divides(hlm, l)
            and mono_lcm(G[i].lm_exps, hlm) != l
            and mono_lcm(G[j].lm_exps, hlm) != l
        ):
            del pairs[(i, j)]

    G.append(h)
    for i in new_pairs:
        pairs[(i, t)] = lcms[i]
        heapq.heappush(heap, (grevlex_key(lcms[i]), t, i))


def _buchberger(cores):
    G, pairs, heap = [], {}, []
    seeds = [c for c in cores if c]
    seeds.sort(key=lambda c: c[0][0])
    for core in seeds:
        r = _reduce_to_primitive(core, G)
        if r:
            _add_element(G, pairs, heap, r)

    steps = 0
    while heap:
        _, j, i = heapq.heappop(heap)
        if pairs.pop((i, j), None) is None:
            continue
        r = _reduce_to_primitive(_spoly(G[i], G[j]), G)
        if r:
            _add_element(G, pairs, heap, r)
        steps += 1
        if steps > MAX_BUCHBERGER_STEPS:
            raise RuntimeError("Groebner computation exceeded the step budget")
    return _interreduce(G)


def _interreduce(G):
    """Minimal generators, fully tail-reduced: the reduced Groebner basis."""
    keep = []
    for g in sorted(G, key=lambda g: g.lm_key):
        if not any(mono_divides(k.lm_exps, g.lm_exps) for k in keep):
            keep.append(g)
    out = []
    for idx, g in enumerate(keep):
        others = keep[:idx] + keep[idx + 1:]
        r = _reduce_to_primitive(g.terms, others)
        out.append(_BasisElem(r))
    return out


# --- public Ideal ------------------------------------------------------------

# Reduced bases by (ring, generators' integer cores), and their shared monomial
# tuples.  The full verification caches 301 bases, 6 924 terms over 648
# distinct monomials; _MONOMIALS then holds 984 tuples (the keys and the
# leading exponents).
GB_CACHE_SIZE = 1024
_GB_CACHE: dict = {}
_MONOMIALS: dict = {}


def _poly_to_core_den(poly: Polynomial):
    """Clear denominators and encode.

    Returns (terms, den) with terms = den * poly in core form.
    """
    den = 1
    for _, c in poly.terms:
        den = den * c.denominator // gcd(den, c.denominator)
    terms = [(grevlex_key(m), int(c * den)) for m, c in poly.terms]
    terms.sort(reverse=True)
    return terms, den


def _poly_to_core(poly: Polynomial):
    return _poly_to_core_den(poly)[0]


def _core_to_poly(terms, ring: RingSpec):
    return Polynomial(ring, {_decode(k): Fraction(c) for k, c in terms})


class Ideal:
    """A homogeneous ideal with cached reduced Groebner basis and, once
    hf_of has counted it, the Hilbert function of R/I in _hf."""

    __slots__ = ("ring", "generators", "_elems", "_gb_polys", "_hf")

    def __init__(self, ring: RingSpec, generators):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("generators must be Polynomial values")
            if g.ring != ring:
                raise RingMismatch(f"generator ring {g.ring} differs from {ring}")
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise InvalidInput(f"generator {g} is not homogeneous")
            gens.append(g)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "generators", tuple(gens))
        object.__setattr__(self, "_elems", None)
        object.__setattr__(self, "_gb_polys", None)
        object.__setattr__(self, "_hf", None)

    def __setattr__(self, *a):
        raise AttributeError("Ideal is immutable")

    @classmethod
    def _from_reduced_basis(cls, ring: RingSpec, generators, elems, hf=None) -> "Ideal":
        """Ideal(ring, generators) with its reduced basis elems and, when
        known, the Hilbert function hf of its quotient set without a count."""
        out = cls(ring, generators)
        object.__setattr__(out, "_elems", elems)
        object.__setattr__(out, "_hf", hf)
        return out

    @classmethod
    def from_strings(cls, ring: RingSpec, texts):
        from .parse import parse_polynomial

        return cls(ring, [parse_polynomial(t, ring) for t in texts])

    def _gb_elems(self):
        if self._elems is None:
            cores = [_poly_to_core(g) for g in self.generators]
            flat = []
            for core in cores:
                flat.append(len(core))
                for k, c in core:
                    flat.extend(k)
                    flat.append(c)
            cache_key = (self.ring, tuple(flat))
            hit = _GB_CACHE.get(cache_key)
            if hit is None:
                hit = _buchberger(cores)
                if len(_GB_CACHE) >= GB_CACHE_SIZE:
                    _GB_CACHE.clear()
                    _MONOMIALS.clear()
                share = _MONOMIALS.setdefault
                for g in hit:
                    g.terms = [(share(k, k), c) for k, c in g.terms]
                    g.lm_key = g.terms[0][0]
                    g.lm_exps = share(g.lm_exps, g.lm_exps)
                _GB_CACHE[cache_key] = hit
            object.__setattr__(self, "_elems", hit)
        return self._elems

    def groebner_basis(self):
        """The reduced Groebner basis, canonical for the ideal."""
        if self._gb_polys is None:
            polys = tuple(_core_to_poly(g.terms, self.ring) for g in self._gb_elems())
            object.__setattr__(self, "_gb_polys", polys)
        return self._gb_polys

    def leading_exponents(self):
        return [g.lm_exps for g in self._gb_elems()]

    def is_unit(self) -> bool:
        elems = self._gb_elems()
        return bool(elems) and all(e == 0 for e in elems[0].lm_exps)

    def contains(self, p: Polynomial) -> bool:
        return normal_form(p, self).is_zero()

    def contains_ideal(self, other: "Ideal") -> bool:
        return all(self.contains(g) for g in other.generators)

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        return self.ring == other.ring and self.groebner_basis() == other.groebner_basis()

    def __hash__(self):
        return hash((self.ring, self.groebner_basis()))

    def __str__(self):
        inside = ", ".join(str(g) for g in self.generators) or "0"
        return f"({inside})"

    def canonical_str(self) -> str:
        """Render through the reduced basis, identical for equal ideals."""
        inside = ", ".join(str(g) for g in self.groebner_basis()) or "0"
        return f"({inside})"

    def __repr__(self):
        return f"Ideal({self.ring}, {self})"


def normal_form(p: Polynomial, I: Ideal) -> Polynomial:
    """Remainder of p modulo the reduced basis; zero exactly on members."""
    if p.ring != I.ring:
        raise RingMismatch(f"{p.ring} vs {I.ring}")
    core, den = _poly_to_core_den(p)
    rem = _reduce_core(core, I._gb_elems())
    acc = {_decode(k): c / den for k, c in rem}
    return Polynomial(I.ring, acc)


def ideal_equal(I: Ideal, J: Ideal) -> bool:
    if I.ring != J.ring:
        raise RingMismatch(f"{I.ring} vs {J.ring}")
    return I == J


def ideal_sum(I: Ideal, J: Ideal) -> Ideal:
    if I.ring != J.ring:
        raise RingMismatch(f"{I.ring} vs {J.ring}")
    return Ideal(I.ring, I.generators + J.generators)


def _v_exps(ring: RingSpec):
    """The exponent vector of ring's cheapest variable v."""
    return (0,) * ring.cheapest + (1,)


def _from_basis(ring: RingSpec, elems) -> Ideal:
    """The ideal whose reduced Groebner basis is elems, generated by it."""
    return Ideal._from_reduced_basis(ring, [_core_to_poly(g.terms, ring) for g in elems], elems)


def _rest_modulo_last(I: Ideal):
    """The elements of I's reduced basis whose leading monomial the
    cheapest variable v does not divide, their v-terms dropped and made
    primitive."""
    slot = I.ring.cheapest
    return [_BasisElem(_normalize([(k, c) for k, c in g.terms if not k[1]]))
            for g in I._gb_elems() if not g.lm_exps[slot]]


def add_last_variable(I: Ideal) -> Ideal:
    """I + (v) for the cheapest variable v, by rewriting the reduced basis.

    For a homogeneous ideal in grevlex with v cheapest, in(I + (v)) =
    in(I) + (v) (Bayer-Stillman), so v together with _rest_modulo_last(I)
    is the reduced Groebner basis of I + (v).
    """
    if I.is_unit():
        return I
    return _from_basis(I.ring, [_BasisElem([(grevlex_key(_v_exps(I.ring)), 1)])]
                       + _rest_modulo_last(I))


def contract_modulo_last(I: Ideal) -> Ideal:
    """The contraction of I + (v) to I.ring.below(), the ring without
    the cheapest variable v, by rewriting the reduced basis: the right
    child of I in the paper's tree.

    Apart from v no element of the reduced basis of I + (v) involves v
    (add_last_variable), and dropping component 1 of a grevlex key (v's
    exponent) gives the key in I.ring.below(), so the contraction is
    _rest_modulo_last(I) read there.
    """
    return _from_basis(I.ring.below(), [_BasisElem([(k[:1] + k[2:], c) for k, c in g.terms])
                                            for g in _rest_modulo_last(I)])


def extend_with_last_variable(J: Ideal, ring: RingSpec) -> Ideal:
    """JR + (v) for J in ring.below(), v the cheapest variable of ring,
    by rewriting J's reduced basis (the inverse of contract_modulo_last
    on ideals that contain v); any other ring of J is refused with
    RingMismatch, as Polynomial.extend refuses it.

    A zero v-exponent inserted at component 1 of a grevlex key gives the
    key in ring, and every S-pair with v has coprime leading monomials, so
    J's reduced basis plus v is the reduced basis of JR + (v).  The
    generators are J's, each read one variable up (Polynomial.extend),
    then v.  R/(JR + (v)) is ring.below()/J, so the lift carries
    hf_of(J), counted here if J has none yet, and never lists.  When J is
    not Artinian, neither is JR + (v), for the same variable, and the lift
    carries no Hilbert function.
    """
    if ring.total_vars < 2 or ring.below() != J.ring:
        raise RingMismatch(f"{J.ring} is not {ring} without its cheapest variable")
    v = Polynomial.monomial(ring, _v_exps(ring))
    elems = [_BasisElem([(k[:1] + (0,) + k[1:], c) for k, c in g.terms])
             for g in J._gb_elems()]
    if not J.is_unit():
        elems = sorted(elems + [_BasisElem(_poly_to_core(v))], key=lambda g: g.lm_key)
    try:
        hf = hf_of(J)
    except NotArtinian:
        hf = None
    return Ideal._from_reduced_basis(ring, [g.extend(ring) for g in J.generators] + [v],
                                     elems, hf)


def _colon_artinian(I: Ideal, f: Polynomial) -> Ideal:
    """(I : f) for Artinian quotients by lifting kernels of multiplication.

    In each degree d the kernel of x(f): (R/I)_d -> (R/I)_(d+e) lifts to
    the degree-d piece of the colon ideal modulo I, so I plus all the
    lifted kernels generates (I : f).
    """
    basis_by_degree = require_artinian(I)
    elems = I._gb_elems()
    ring = I.ring
    e = f.degree()
    gens = list(I.generators)
    for d, monos in enumerate(basis_by_degree):
        if d + e >= len(basis_by_degree):
            # f * R_d lands beyond the socle, hence inside I
            gens.extend(Polynomial.monomial(ring, m) for m in monos)
            continue
        target = basis_by_degree[d + e]
        index = {m: i for i, m in enumerate(target)}
        rows = [[Fraction(0)] * len(monos) for _ in range(len(target))]
        for col, m in enumerate(monos):
            prod = f * Polynomial.monomial(ring, m)
            rem = _reduce_core(_poly_to_core(prod), elems)
            for k, c in rem:
                rows[index[_decode(k)]][col] = c
        for vec in linalg.kernel_basis(rows, ncols=len(monos)):
            acc = {m: c for m, c in zip(monos, vec) if c}
            gens.append(Polynomial(ring, acc))
    return Ideal(ring, gens)


def ideal_colon(I: Ideal, f: Polynomial) -> Ideal:
    """The colon ideal (I : f) = {g : g*f in I}.

    Raises NotArtinian when R/I is not Artinian, unless f is the cheapest
    variable.
    """
    if f.ring != I.ring:
        raise RingMismatch(f"{f.ring} vs {I.ring}")
    if f.is_zero():
        raise ValueError("colon by the zero polynomial")
    if not f.is_homogeneous():
        raise ValueError("colon divisor must be homogeneous")
    if f.degree() == 0:
        return I
    if len(f.terms) == 1 and f.terms[0][0] == _v_exps(I.ring):
        return colon_by_variable_power(I, 1)
    return _colon_artinian(I, f)


def hf_of(I: Ideal):
    """HF of R/I in degrees 0..socle (empty for the unit ideal), counted
    once and cached on the ideal; raises NotArtinian when R/I is not
    Artinian."""
    if I._hf is None:
        object.__setattr__(I, "_hf", tuple(map(len, _standard_monomials_by_degree(I))))
    return I._hf


def hf_difference(den_hf, num_hf):
    """Graded dimensions of num/den from HF(R/den) and HF(R/num)."""
    width = max(len(den_hf), len(num_hf))
    return tuple(
        (den_hf[d] if d < len(den_hf) else 0) - (num_hf[d] if d < len(num_hf) else 0)
        for d in range(width)
    )


def shifted_hf_matches(dims, hf, shift: int) -> bool:
    """Whether dims equals hf moved up by shift degrees, zero-padded."""
    shifted = (0,) * shift + tuple(hf)
    padded = max(len(dims), len(shifted))
    return tuple(dims) + (0,) * (padded - len(dims)) == shifted + (0,) * (padded - len(shifted))


def colon_by_variable_power(I: Ideal, i: int) -> Ideal:
    """(I : v^i) for the cheapest variable v, by i rewrites of the reduced
    basis; (I : v^0) = I.

    For a homogeneous ideal in grevlex with v cheapest, v | lm(g) forces
    v | g, and {g/v : v | lm g} + {g : otherwise} is a Groebner basis of
    (I : v).
    """
    slot = I.ring.cheapest
    vkey = grevlex_key(_v_exps(I.ring))
    for _ in range(i):
        elems = []
        for g in I._gb_elems():
            if g.lm_exps[slot] > 0:
                shifted = [(mono_div(k, vkey), c) for k, c in g.terms]
                if any(min(_decode(k)) < 0 for k, _ in shifted):
                    raise AssertionError("division by the cheapest variable failed")
                elems.append(_BasisElem(shifted))
            else:
                elems.append(g)
        I = _from_basis(I.ring, _interreduce(elems))
    return I


def artinian_caps(I: Ideal):
    """The per-variable pure-power exponents of in(I), [] for the unit
    ideal: the one Artinian decision, read from the reduced basis with no
    listing.  R/I is Artinian exactly when every variable has a pure
    power among the leading monomials; otherwise raises NotArtinian,
    naming the first variable without one.  Every standard monomial x^e
    has e_j < c_j, so the socle degree is at most sum(c_j - 1).
    """
    lms = I.leading_exponents()
    if lms and not any(lms[0]):
        return []  # the unit ideal: R/(1) = 0
    caps = _pure_power_caps(lms, I.ring.total_vars)
    if None in caps:
        raise NotArtinian(I, I.ring.var_names[caps.index(None)])
    return caps


def _standard_monomials_by_degree(I: Ideal):
    """The standard monomials of an Artinian R/I, one non-empty list per
    degree 0..socle, listed as they are read; NotArtinian (artinian_caps)
    otherwise."""
    caps = artinian_caps(I)
    lms = I.leading_exponents()
    width = I.ring.total_vars
    for d in range(sum(c - 1 for c in caps) + 2 if caps else 0):
        monos = standard_monomials_of_degree(lms, width, d)
        if not monos:
            return
        yield monos


def require_artinian(I: Ideal):
    """Standard monomials per degree 0..socle of an Artinian R/I, listed
    anew on every call and kept by no cache; every entry is non-empty.
    The listing gives I its Hilbert function (hf_of) when it has none yet,
    so a later hf_of lists nothing.  Refuses a quotient that is not
    Artinian with NotArtinian, as hf_of does (artinian_caps).
    """
    monos = list(_standard_monomials_by_degree(I))
    if I._hf is None:
        object.__setattr__(I, "_hf", tuple(map(len, monos)))
    return monos


def quotient_dimension(I: Ideal) -> int:
    """dim_K of R/I; raises NotArtinian when R/I is not Artinian."""
    return sum(hf_of(I))


def certify_regular_sequence(gens) -> bool:
    """Whether n forms in n variables are a regular sequence: each is
    homogeneous of positive degree and R/I is Artinian (artinian_caps).

    R = K[x1..xn] is Cohen-Macaulay, so n homogeneous forms of positive
    degree form a regular sequence exactly when I has height n, that is
    when R/I is Artinian (Bruns-Herzog, Cohen-Macaulay Rings, 2.1); the
    Hilbert series then gives dim R/I = the product of their degrees.
    The reduced basis decides it, with no standard monomial listed.

    gens is a list of forms or an Ideal; an Ideal is certified in place,
    so its reduced basis stays cached.
    """
    ideal = gens if isinstance(gens, Ideal) else None
    gens = list(ideal.generators if ideal is not None else gens)
    if not gens:
        raise ValueError("empty generator list")
    ring = gens[0].ring
    if len(gens) != ring.total_vars:
        raise ValueError(
            f"need exactly {ring.total_vars} generators in {ring}, got {len(gens)}"
        )
    for g in gens:
        if g.ring != ring:
            raise RingMismatch("generators live in different rings")
        if g.is_zero() or not g.is_homogeneous() or g.degree() < 1:
            return False
    if ideal is None:
        ideal = Ideal(ring, gens)
    try:
        artinian_caps(ideal)
    except NotArtinian:
        return False
    return True
