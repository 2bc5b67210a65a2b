"""Strong Lefschetz checks for Artinian algebras and graded modules.

The algebra check follows the classical range d = 1..c-1 (c the socle
degree); the top pairing d = c is available behind a flag.  Power maps are
built by repeated multiplication with the degree-1 matrices, so every rank
is exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from . import linalg
from .polyring import Polynomial
from .quotient import QuotientAlgebra, mult_map_matrix


@dataclass
class LefschetzReport:
    subject: str
    linear_form: str
    holds: bool
    witnesses: list  # (d, i, rank, expected) for every failing pair
    hilbert: tuple
    seed: int | None = None
    tries: int | None = None
    top_degree_checked: bool = False

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
            "top_degree_checked": self.top_degree_checked,
        }


def _require_linear(A: QuotientAlgebra, y: Polynomial):
    if y.ring != A.ring:
        raise ValueError(f"linear form lives in {y.ring}, algebra in {A.ring}")
    if y.is_zero() or y.degree() != 1:
        raise ValueError(f"{y} is not a linear form")


def _degree_one_matrices(A: QuotientAlgebra, y: Polynomial):
    return [mult_map_matrix(A, y, i) for i in range(A.socle_degree)]


def _power_matrix(mats, i, d):
    """Matrix of multiplication by y^d from degree i, as a product of
    degree-1 matrices."""
    out = mats[i]
    for j in range(i + 1, i + d):
        out = mats[j] * out
    return out


def slp_check_algebra(
    A: QuotientAlgebra,
    y: Polynomial,
    check_top_degree: bool = False,
) -> LefschetzReport:
    """Exact full-rank check of every power map x y^d: A_i -> A_(i+d)
    for 1 <= d <= c-1 (and d = c when asked), 0 <= i <= c-d."""
    _require_linear(A, y)
    c = A.socle_degree
    hf = A.hilbert_function()
    witnesses = []
    if c >= 1:
        mats = _degree_one_matrices(A, y)
        dmax = c if check_top_degree else c - 1
        for d in range(1, dmax + 1):
            for i in range(0, c - d + 1):
                expected = min(hf[i], hf[i + d])
                r = linalg.rank(_power_matrix(mats, i, d).entries)
                if r < expected:
                    witnesses.append((d, i, r, expected))
    witnesses.sort()
    return LefschetzReport(
        subject=str(A.ideal),
        linear_form=str(y),
        holds=not witnesses,
        witnesses=witnesses,
        hilbert=hf,
        top_degree_checked=check_top_degree,
    )


@dataclass
class GradedModuleView:
    """A cyclic graded submodule g * (R/den) viewed inside its ambient
    quotient algebra, with a per-degree coordinate basis."""

    ambient: QuotientAlgebra
    generator: Polynomial
    degree_range: tuple
    bases: dict  # degree -> list of coordinate tuples in the ambient piece

    def dims(self):
        a, b = self.degree_range
        return tuple(len(self.bases.get(d, ())) for d in range(a, b + 1))


def module_view(ambient: QuotientAlgebra, generator: Polynomial) -> GradedModuleView:
    """Build the graded pieces of the submodule generated by one element."""
    if generator.ring != ambient.ring:
        raise ValueError("generator must live in the ambient ring")
    if not generator.is_homogeneous() or generator.is_zero():
        raise ValueError("generator must be homogeneous and nonzero")
    gdeg = generator.degree()
    bases = {}
    ring = ambient.ring
    for d in range(gdeg, ambient.socle_degree + 1):
        vectors = []
        for m in ambient.graded_piece(d - gdeg):
            vec = ambient.coordinates(generator * Polynomial.monomial(ring, m), d)
            if any(vec):
                vectors.append(vec)
        if vectors:
            reduced, _ = linalg.rref(vectors)
            if reduced:
                bases[d] = [tuple(r) for r in reduced]
    if not bases:
        raise ValueError(f"module generated by {generator} is zero")
    degrees = sorted(bases)
    return GradedModuleView(ambient, generator, (degrees[0], degrees[-1]), bases)


def slp_check_module(V: GradedModuleView, y: Polynomial) -> LefschetzReport:
    """Full-rank check of x y^d: V_i -> V_(i+d) for 1 <= d <= b-a,
    a <= i <= b-d, ranks taken exactly."""
    A = V.ambient
    _require_linear(A, y)
    a, b = V.degree_range
    witnesses = []
    if b > a:
        mats = _degree_one_matrices(A, y)
        for d in range(1, b - a + 1):
            for i in range(a, b - d + 1):
                vi = V.bases.get(i, [])
                vt = V.bases.get(i + d, [])
                expected = min(len(vi), len(vt))
                if expected == 0:
                    continue
                power = _power_matrix(mats, i, d)
                image = [power.apply(v) for v in vi]
                r = linalg.rank(image)
                if r < expected:
                    witnesses.append((d, i, r, expected))
    witnesses.sort()
    hf = tuple(len(V.bases.get(d, ())) for d in range(a, b + 1))
    return LefschetzReport(
        subject=f"{V.generator} * {A.ring}/{A.ideal}",
        linear_form=str(y),
        holds=not witnesses,
        witnesses=witnesses,
        hilbert=hf,
    )


def lefschetz_candidates(ring, seed: int, max_tries: int):
    """Deterministic candidate stream: all-ones, single variables, then
    seeded small random combinations."""
    width = ring.total_vars
    ones = Polynomial(ring, {tuple(1 if j == i else 0 for j in range(width)): 1 for i in range(width)})
    seen = set()
    out = []

    def push(p):
        if p not in seen and not p.is_zero():
            seen.add(p)
            out.append(p)

    push(ones)
    for i in range(width):
        push(Polynomial.variable(ring, i))
    rng = random.Random(seed)
    attempts = 0
    while len(out) < max_tries and attempts < 50 * max_tries:
        attempts += 1
        coeffs = [rng.randint(0, 4) for _ in range(width)]
        if not any(coeffs):
            continue
        push(Polynomial(ring, {
            tuple(1 if j == i else 0 for j in range(width)): c
            for i, c in enumerate(coeffs) if c
        }))
    return out[:max_tries]


def find_lefschetz_element(
    A: QuotientAlgebra,
    max_tries: int = 24,
    seed: int = 0,
    check_top_degree: bool = False,
):
    """First linear form in the deterministic candidate list for which the
    algebra check holds; None after max_tries failures."""
    for tries, y in enumerate(lefschetz_candidates(A.ring, seed, max_tries), start=1):
        report = slp_check_algebra(A, y, check_top_degree)
        if report.holds:
            report.seed = seed
            report.tries = tries
            return y, report
    return None


def module_slp_search(V: GradedModuleView, max_tries: int = 24, seed: int = 0):
    """find_lefschetz_element for a graded module view."""
    for tries, y in enumerate(lefschetz_candidates(V.ambient.ring, seed, max_tries), start=1):
        report = slp_check_module(V, y)
        if report.holds:
            report.seed = seed
            report.tries = tries
            return y, report
    return None
