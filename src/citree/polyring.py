"""Sparse multivariate polynomials over the rationals.

Rings are K[x1..xn] or K[x1..xn, z] with the graded reverse lexicographic
order on monomials, variable order x1 > x2 > ... > xn > z.  All coefficients
are exact `fractions.Fraction` values; there is no floating point anywhere
in this package.  Polynomials print in the text grammar (format_polynomial);
reading that text back is citree.parse, which no verifier imports.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction

Coeff = int | Fraction


class RingMismatch(ValueError):
    """Operands live in incompatible polynomial rings."""


class InvalidInput(ValueError):
    """Input the verifier rejects: a malformed ideal file or polynomial, a
    parameter out of range, or an ideal a command cannot take."""


class RingSpec:
    """A polynomial ring K[x1..xn] or K[x1..xn, z].

    The monomial order is graded reverse lexicographic with the variable
    order x1 > x2 > ... > xn > z; z, when present, is always cheapest.
    The paper's tree moves across the cheapest variable v one step at a
    time: `cheapest` is v's index, below() the ring without v, and
    Polynomial.extend reads a polynomial of below() in this ring.
    Immutable, with value equality and hashing.
    """

    __slots__ = ("nvars", "has_z")

    def __init__(self, nvars: int, has_z: bool = False):
        if nvars < 1:
            raise ValueError("ring needs at least one x-variable")
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "has_z", has_z)

    def __setattr__(self, *a):
        raise AttributeError("RingSpec is immutable")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.nvars, self.has_z) == (other.nvars, other.has_z)
        return NotImplemented

    def __hash__(self):
        return hash((self.nvars, self.has_z))

    @property
    def total_vars(self) -> int:
        return self.nvars + (1 if self.has_z else 0)

    @property
    def var_names(self) -> tuple:
        names = tuple(f"x{i + 1}" for i in range(self.nvars))
        return names + ("z",) if self.has_z else names

    def var_index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r} in {self}") from None

    @property
    def cheapest(self) -> int:
        """The index of the cheapest variable v: z when present, else xn."""
        return self.total_vars - 1

    def below(self) -> "RingSpec":
        """The ring without v: K[x1..xn] below K[x1..xn, z], K[x1..x(n-1)]
        below K[x1..xn], and none (ValueError) below one variable."""
        if self.has_z:
            return RingSpec(self.nvars)
        if self.nvars < 2:
            raise ValueError("no smaller ring below one variable")
        return RingSpec(self.nvars - 1)

    def __str__(self):
        return "K[" + ", ".join(self.var_names) + "]"


# --- monomials ------------------------------------------------------------
# A monomial is a tuple of non-negative exponents, one per ring variable.

def mono_degree(exps) -> int:
    return sum(exps)


def mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def mono_divides(a, b) -> bool:
    """Whether a | b, i.e. the exponents of a are bounded by those of b."""
    return all(x <= y for x, y in zip(a, b))


def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def grevlex_key(exps):
    """Sort key realizing grevlex: key(m1) > key(m2) iff m1 > m2."""
    return (sum(exps),) + tuple(-e for e in reversed(exps))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    Terms are stored sorted descending in the grevlex order, so equality
    and hashing are structural on the canonical form.
    """

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring: RingSpec, coeffs: Mapping[tuple, Coeff] | Iterable = ()):
        items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
        merged: dict = {}
        width = ring.total_vars
        for exps, c in items:
            exps = tuple(exps)
            if len(exps) != width:
                raise ValueError(f"exponent vector {exps} has wrong arity for {ring}")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            c = Fraction(c)
            if c:
                acc = merged.get(exps, 0) + c
                if acc:
                    merged[exps] = acc
                else:
                    del merged[exps]
        object.__setattr__(self, "ring", ring)
        object.__setattr__(
            self,
            "terms",
            tuple(sorted(merged.items(), key=lambda t: grevlex_key(t[0]), reverse=True)),
        )
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------------
    @classmethod
    def zero(cls, ring: RingSpec) -> "Polynomial":
        return cls(ring)

    @classmethod
    def one(cls, ring: RingSpec) -> "Polynomial":
        return cls.constant(ring, 1)

    @classmethod
    def constant(cls, ring: RingSpec, c: Coeff) -> "Polynomial":
        return cls(ring, {(0,) * ring.total_vars: Fraction(c)})

    @classmethod
    def variable(cls, ring: RingSpec, var: int | str) -> "Polynomial":
        i = ring.var_index(var) if isinstance(var, str) else var
        if not 0 <= i < ring.total_vars:
            raise ValueError(f"variable index {i} out of range for {ring}")
        exps = tuple(1 if j == i else 0 for j in range(ring.total_vars))
        return cls(ring, {exps: 1})

    @classmethod
    def monomial(cls, ring: RingSpec, exps, c: Coeff = 1) -> "Polynomial":
        return cls(ring, {tuple(exps): Fraction(c)})

    # -- queries ------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(mono_degree(m) for m, _ in self.terms)

    def is_homogeneous(self) -> bool:
        if not self.terms:
            return True
        degs = {mono_degree(m) for m, _ in self.terms}
        return len(degs) == 1

    # -- arithmetic ----------------------------------------------------------
    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        self._check_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            acc[m] = acc.get(m, Fraction(0)) + c
        return Polynomial(self.ring, acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.ring, other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Polynomial.zero(self.ring)
            return Polynomial(self.ring, {m: c * other for m, c in self.terms})
        self._check_ring(other)
        acc: dict = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = mono_mul(m1, m2)
                acc[m] = acc.get(m, Fraction(0)) + c1 * c2
        return Polynomial(self.ring, acc)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = Polynomial.one(self.ring)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    def extend(self, ring: RingSpec) -> "Polynomial":
        """Read in ring, one variable up: ring.below() must be this
        polynomial's ring, and v's exponent 0 is appended to every term.
        Any other ring raises RingMismatch."""
        if ring.total_vars < 2 or ring.below() != self.ring:
            raise RingMismatch(f"{self.ring} is not {ring} without its cheapest variable")
        return Polynomial(ring, {m + (0,): c for m, c in self.terms})

    # -- canonical form ------------------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.ring, self.terms)))
        return self._hash

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({self.ring}, {format_polynomial(self)})"


# --- text format -----------------------------------------------------------
# The output side only; citree.parse reads the same grammar back.

def _format_monomial(names, exps) -> str:
    parts = []
    for name, e in zip(names, exps):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def format_polynomial(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    names = p.ring.var_names
    pieces = []
    for pos, (m, c) in enumerate(p.terms):
        mono = _format_monomial(names, m)
        mag = abs(c)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if pos == 0:
            pieces.append(body if c > 0 else f"-{body}")
        else:
            pieces.append(f"{' + ' if c > 0 else ' - '}{body}")
    return "".join(pieces)
