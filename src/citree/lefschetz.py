"""Strong Lefschetz checks for Artinian algebras and graded modules.

A linear form y is a strong Lefschetz element of A = R/I, with socle
degree c, when every power map x y^d: A_i -> A_(i+d) has full rank for
d >= 1 and i >= 0 (Harima et al., The Lefschetz Properties, LNM 2080,
2013).  A_i is zero outside 0 <= i <= c, so the range checked is
1 <= d <= c and 0 <= i <= c-d, the top pairing d = c included.  A cyclic
module g * (R/den) is, through r -> g*r, the algebra R/(den : g) moved up
by deg g (Harima-Watanabe).  The caller supplies the annihilator
(den : g), certified, so this module computes no colon: a module check is
the algebra check of that quotient, and both run one rank loop.  For each
source degree i the map of y^d is one exact product per (d, i), so every
rank is exact: the degree-1 matrix from degree i+d-1 times the map of
y^(d-1) from degree i (inner dimension h_(i+d-1)), or the map of y^(d-1)
from degree i+1 times the degree-1 matrix from degree i (inner dimension
h_(i+1)), whichever inner dimension is smaller.  Splitting y^d through
A_k, i < k < i+d, costs h_(i+d) * h_k * h_i products; when h is unimodal,
as for every family member, its least value on [i+1, i+d-1] lies at an
end, so one of the two is the cheapest split.  The degree-1 matrices of
y come from quotient.mult_map_matrix, which sums the maps of the
variables cached on the algebra: a search reduces x_v * m once per
algebra, not y * m once per candidate.
"""

from __future__ import annotations

import random
from itertools import chain

from . import linalg
from .ideals import Ideal
from .polyring import InvalidInput, Polynomial
from .quotient import QuotientAlgebra, build_quotient, mult_map_matrix


class LefschetzReport:
    __slots__ = ("subject", "linear_form", "holds", "witnesses", "hilbert", "seed", "tries")

    def __init__(self, subject: str, linear_form: str, holds: bool, witnesses: list,
                 hilbert: tuple, seed: int | None = None, tries: int | None = None):
        self.subject = subject
        self.linear_form = linear_form
        self.holds = holds
        self.witnesses = witnesses  # (d, i, rank, expected) for every failing pair
        self.hilbert = hilbert
        self.seed = seed
        self.tries = tries

    def to_json(self):
        return {
            "subject": self.subject,
            "linear_form": self.linear_form,
            "holds": self.holds,
            "witnesses": [
                {"d": d, "i": i, "rank": r, "expected": e}
                for (d, i, r, e) in self.witnesses
            ],
            "hilbert": list(self.hilbert),
            "seed": self.seed,
            "tries": self.tries,
        }


def _require_linear(A: QuotientAlgebra, y: Polynomial):
    if y.ring != A.ring:
        raise InvalidInput(f"linear form lives in {y.ring}, algebra in {A.ring}")
    if y.degree() != 1 or not y.is_homogeneous():
        raise InvalidInput(f"{y} is not a linear form")


def slp_check_algebra(A: QuotientAlgebra, y: Polynomial) -> LefschetzReport:
    """Exact full-rank check of every power map x y^d: A_i -> A_(i+d)
    for 1 <= d <= c, 0 <= i <= c-d: the one rank loop."""
    _require_linear(A, y)
    c = A.socle_degree
    hf = A.hilbert_function()
    witnesses = []
    mats = [mult_map_matrix(A, y, i) for i in range(c)]
    powers = mats  # powers[i]: multiplication by y^d from degree i
    for d in range(1, c + 1):
        if d > 1:
            # y after y^(d-1) through A_(i+d-1), or y^(d-1) after y
            # through A_(i+1): whichever inner dimension is smaller
            powers = [mats[i + d - 1] * powers[i] if hf[i + d - 1] <= hf[i + 1]
                      else powers[i + 1] * mats[i]
                      for i in range(c - d + 1)]
        for i in range(0, c - d + 1):
            expected = min(hf[i], hf[i + d])
            r = linalg.rank(powers[i].entries)
            if r < expected:
                witnesses.append((d, i, r, expected))
    return LefschetzReport(
        subject=str(A.ideal),
        linear_form=str(y),
        holds=not witnesses,
        witnesses=witnesses,
        hilbert=hf,
    )


class GradedModuleView:
    """A cyclic graded submodule g * (R/den) of its ambient quotient R/den,
    held as the algebra R/(den : g) moved up by deg g: r -> g*r maps one
    onto the other degree by degree."""

    __slots__ = ("ambient", "generator", "algebra", "shift")

    def __init__(self, ambient: QuotientAlgebra, generator: Polynomial,
                 algebra: QuotientAlgebra, shift: int):
        self.ambient = ambient
        self.generator = generator
        self.algebra = algebra  # R/(den : g)
        self.shift = shift  # deg g

    @property
    def degree_range(self):
        return self.shift, self.shift + self.algebra.socle_degree

    def dims(self):
        return self.algebra.hilbert_function()


def module_view(ambient: QuotientAlgebra, generator: Polynomial,
                annihilator: Ideal) -> GradedModuleView:
    """The submodule generated by one element, through its annihilator
    (ambient.ideal : generator), which the caller has certified."""
    if generator.ring != ambient.ring or annihilator.ring != ambient.ring:
        raise ValueError("generator and annihilator must live in the ambient ring")
    if not generator.is_homogeneous() or generator.is_zero():
        raise ValueError("generator must be homogeneous and nonzero")
    if annihilator.is_unit():
        raise ValueError(f"module generated by {generator} is zero")
    return GradedModuleView(ambient, generator, build_quotient(annihilator),
                            generator.degree())


def slp_check_module(V: GradedModuleView, y: Polynomial) -> LefschetzReport:
    """Full-rank check of x y^d: V_i -> V_(i+d) for 1 <= d <= b-a,
    a <= i <= b-d: the algebra check of R/(den : g), witnesses moved up by
    deg g into the degrees of V."""
    report = slp_check_algebra(V.algebra, y)
    report.subject = f"{V.generator} * {V.ambient.ring}/{V.ambient.ideal}"
    report.witnesses = [(d, i + V.shift, r, e) for d, i, r, e in report.witnesses]
    return report


# candidates a search tries unless told otherwise (citree slp --max-tries)
MAX_TRIES = 24


def lefschetz_candidates(ring, seed: int, max_tries: int):
    """Deterministic candidate stream, each form built only when it is
    asked for: all-ones, single variables, then seeded small random
    combinations, until max_tries forms are yielded, every one of the
    5^width - 1 nonzero coefficient vectors in 0..4 is, or 50 * max_tries
    draws are spent.  It holds the forms yielded so far and no others."""
    width = ring.total_vars
    wanted = min(max_tries, 5 ** width - 1)
    units = [tuple(1 if j == i else 0 for j in range(width)) for i in range(width)]
    rng = random.Random(seed)
    draws = ([rng.randint(0, 4) for _ in units] for _ in range(50 * max_tries))
    forms = chain([dict.fromkeys(units, 1)], ({u: 1} for u in units),
                  ({u: c for u, c in zip(units, coeffs) if c} for coeffs in draws if any(coeffs)))
    seen = set()
    for terms in forms:
        if len(seen) >= wanted:
            return
        p = Polynomial(ring, terms)
        if p not in seen:
            seen.add(p)
            yield p


def _search(ring, check, max_tries: int, seed: int):
    """(y, report) for the first candidate y (lefschetz_candidates) whose
    report check(y) holds, with its seed and tries recorded.  After the
    last candidate, (None, report): the last report with no linear form,
    holds False, no witnesses, and tries the number of candidates tried,
    which may be fewer than max_tries."""
    if max_tries < 1:
        raise InvalidInput(f"a search needs max_tries >= 1, not {max_tries}")
    for tries, y in enumerate(lefschetz_candidates(ring, seed, max_tries), start=1):
        report = check(y)
        report.seed, report.tries = seed, tries
        if report.holds:
            return y, report
    report.linear_form, report.witnesses = None, []
    return None, report


def find_lefschetz_element(A: QuotientAlgebra, max_tries: int = MAX_TRIES, seed: int = 0):
    """(y, report) for the first linear form y in the deterministic
    candidate stream for which the algebra check holds, or (None, report)
    with holds False after the last candidate (_search).  Every candidate
    reuses the monomial maps that the earlier ones cached on A."""
    return _search(A.ring, lambda y: slp_check_algebra(A, y), max_tries, seed)


def module_slp_search(V: GradedModuleView, max_tries: int = MAX_TRIES, seed: int = 0):
    """find_lefschetz_element for a graded module view."""
    return _search(V.ambient.ring, lambda y: slp_check_module(V, y), max_tries, seed)
