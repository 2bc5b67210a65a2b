"""Central simple module decompositions and the instance verifiers.

For an Artinian quotient of K[x1..xm, v] (v the cheapest variable, playing
the distinguished linear form), the chain (I : v^i) + (v) is computed
exactly, deduplicated into blocks, and each successive quotient gets the
one module certificate, cyclic_presentation, which the tree's arrows use
too: numerator = denominator + (e_{j-1}), and the predicted annihilator
(denominator : e_{j-1}) settled by the exact-sequence certificate in ideals
(certify_annihilator).  One bounded table, member_ideal, builds and
certifies each member A_n(a, m) once, for the tree's members and arrow
targets and for every predicted chain block, annihilator and side of a
colon identity, which are members one level down lifted by v
(member_block, a basis rewrite).  The power and mixed families are
A_(m+1)(a, b+1) with x_(m+1) read as v, and one chain_blocks predicts
both chains.  No verifier derives a colon: a failed certificate (or
certify_colon, for a colon identity) is reported with the prediction and
the condition that failed.

Every verifier returns a structured report; a failing sub-check is recorded
rather than raised, so a whole grid can run to completion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

from .ideals import (
    Ideal,
    add_last_variable,
    certify_annihilator,
    certify_colon,
    certify_regular_sequence,
    colon_by_variable_power,
    extend_with_last_variable,
    hf_difference,
    hf_of,
    ideal_equal,
    ideal_sum,
    normal_form,
    quotient_dimension,
    shifted_hf_matches,  # re-exported: the certificate's helpers stay importable here
)
from .polyring import InvalidInput, Polynomial, RingSpec
from .symfun import boundary_polynomial, member_generators, symmetric_generator


# --- symmetric generators relative to the distinguished variable ------------


def xpart(ring: RingSpec) -> int:
    """Number of leading variables (everything except the cheapest one)."""
    return ring.total_vars - 1


def sym_e(ring: RingSpec, i: int) -> Polynomial:
    """Signed elementary symmetric e_i in the leading variables, inside ring."""
    m = xpart(ring)
    return symmetric_generator("e_signed", m, i).extend(ring)


def mixed_family_ideal(n: int, a: int, b: int) -> Ideal:
    """(p~_a..p~_(a+b), e~_(b+2)..e~_(n+1)) in K[x1..xn, z], with e~_i the
    signed e_i of x1..xn, z: the member A_(n+1)(a, b+1) with x_(n+1) read
    as z."""
    ring = RingSpec(n, has_z=True)
    return Ideal(ring, [Polynomial(ring, g.terms) for g in member_generators(n + 1, a, b + 1)])


def power_family_ideal(n: int, a: int) -> Ideal:
    """(p~_a, ..., p~_(a+n)) in K[x1..xn, z]: the mixed family at b = n."""
    return mixed_family_ideal(n, a, n)


# Members kept by member_ideal; the full verification builds 56.
MEMBER_TABLE_SIZE = 256


@lru_cache(maxsize=MEMBER_TABLE_SIZE)
def member_ideal(n: int, a: int, m: int) -> Ideal:
    """A_n(a, m) in K[x1..xn], built once and certified in place by
    certify_regular_sequence, so its standard monomials stay on it and a
    caller re-reads the verdict for free.  A_n(1, m) and A_n(a, 0) are the
    coinvariant ideal (e_1..e_n): they return the A_n(1, 0) entry itself."""
    gens = member_generators(n, a, m)
    if (a == 1 or m == 0) and (a, m) != (1, 0):
        return member_ideal(n, 1, 0)
    ideal = Ideal(RingSpec(n), gens)
    certify_regular_sequence(ideal)
    return ideal


def member_block(ring: RingSpec, a: int, m: int) -> Ideal:
    """A_n(a, m)R + (v): the family member in the leading variables of
    ring, extended to ring, plus the cheapest variable v: the member's
    reduced basis and standard monomials, rewritten."""
    return extend_with_last_variable(member_ideal(xpart(ring), a, m), ring)


def chain_blocks(ring: RingSpec, a: int, b: int):
    """Expected deduplicated chain (ideal, lo, hi) of mixed_family_ideal(n,
    a, b): A_n(a, b+1) + (v) on 0..n-b-1 (no such block when b = n), then
    A_n(a, b+1-k) + (v) from c_k = n-b+(k-1)a to c_(k+1)-1 for k = 1..b+1,
    then the unit ideal.  At b = n (the power family) the k-th block is
    A_n(a, n+1-k) + (v) on (k-1)a..ka-1; when a = 1 every A_n(1, m) is
    A_n(1, 0), one block on 0..n.

    With a >= 2 and 0 <= b <= n no block is empty, and adjacent blocks
    differ: their quotient dimensions are in the ratio (a+m-1)/m."""
    n = xpart(ring)
    unit = Ideal(ring, [Polynomial.one(ring)])
    if a == 1:
        return [(member_block(ring, 1, 0), 0, n), (unit, n + 1, n + 1)]

    def c_of(k):
        return n - b + (k - 1) * a

    blocks = [(member_block(ring, a, b + 1), 0, n - b - 1)] if b < n else []
    blocks += [(member_block(ring, a, b + 1 - k), c_of(k), c_of(k + 1) - 1)
               for k in range(1, b + 2)]
    return blocks + [(unit, c_of(b + 2), c_of(b + 2))]


def first_block_colon_holds(I: Ideal, a: int, b: int) -> bool:
    """I : v^(n-b) = (p~_a..p~_(a+b), e_(b+1)..e_n) for the mixed family I."""
    ring = I.ring
    n = xpart(ring)
    swap_target = Ideal(ring, [symmetric_generator("p_tilde", n, a + t) for t in range(b + 1)]
                        + [sym_e(ring, j) for j in range(b + 1, n + 1)])
    colon = colon_by_variable_power(I, n - b)
    return ideal_equal(colon, swap_target)


# --- the chain ----------------------------------------------------------------


@dataclass
class CsmChain:
    """Deduplicated chain (I : v^i) + (v), i = 0..p, p the nilpotency index.

    entries[t] = (ideal, lo, hi): the ideal attained exactly for the
    exponents lo..hi; the last entry is the unit ideal at (p, p).
    """

    p: int
    entries: list

    def ideal_at(self, i: int) -> Ideal:
        for ideal, lo, hi in self.entries:
            if lo <= i <= hi:
                return ideal
        raise IndexError(f"exponent {i} outside 0..{self.p}")

    def distinct_ideals(self):
        return [e[0] for e in self.entries]

    def to_json(self):
        return [{"ideal": J.canonical_str(), "exponents": [lo, hi]}
                for J, lo, hi in self.entries]

    def matches(self, expected_blocks) -> bool:
        """Whether the blocks equal the predicted (ideal, lo, hi) blocks."""
        return len(self.entries) == len(expected_blocks) and all(
            (lo, hi) == (elo, ehi) and ideal_equal(J, E)
            for (J, lo, hi), (E, elo, ehi) in zip(self.entries, expected_blocks))

    def filtration_summands(self):
        """dim R/((I : v^i) + (v)) for i = 0..p; the filtration identity
        says they sum to dim R/I."""
        summands = []
        for J, lo, hi in self.entries:
            summands.extend([quotient_dimension(J) or 0] * (hi - lo + 1))
        return summands


@dataclass
class CentralSimpleModule:
    """The j-th nonzero successive quotient numerator/denominator of the
    chain, with its graded dimensions and the least degree they occupy."""

    index: int
    numerator: Ideal
    denominator: Ideal
    graded_dims: tuple
    shift: int


def csm_chain(I: Ideal) -> CsmChain:
    """Compute and deduplicate (I : v^i) + (v) until the unit ideal."""
    dim = quotient_dimension(I)
    if dim is None:
        raise InvalidInput(f"{I} is not Artinian")
    entries = []
    cur = I
    i = 0
    while True:
        C = add_last_variable(cur)
        if entries and C == entries[-1][0]:
            entries[-1][2] = i
        else:
            entries.append([C, i, i])
        if C.is_unit():
            break
        if i > dim + 1:
            raise AssertionError("chain failed to terminate")
        cur = colon_by_variable_power(cur, 1)
        i += 1
    dims = [quotient_dimension(e[0]) for e in entries]
    for t in range(len(entries) - 1):
        small, big = entries[t][0], entries[t + 1][0]
        if not big.contains_ideal(small):
            raise AssertionError("chain is not increasing")
        if not dims[t] > dims[t + 1]:
            raise AssertionError("consecutive chain blocks are not strict")
    return CsmChain(p=i, entries=[tuple(e) for e in entries])


def central_simple_modules(I: Ideal, chain: CsmChain | None = None):
    """The nonzero successive quotients of the chain, top first."""
    if chain is None:
        chain = csm_chain(I)
    ideals = chain.distinct_ideals()
    hfs = [hf_of(J) for J in ideals]
    out = []
    m = len(ideals) - 1
    for j in range(1, m + 1):
        dims = hf_difference(hfs[m - j], hfs[m - j + 1])
        nonzero = [d for d, v in enumerate(dims) if v]
        out.append(
            CentralSimpleModule(
                index=j,
                numerator=ideals[m - j + 1],
                denominator=ideals[m - j],
                graded_dims=dims,
                shift=nonzero[0] if nonzero else 0,
            )
        )
    return out


def cyclic_presentation(num: Ideal, den: Ideal, g: Polynomial, annihilator: Ideal) -> dict:
    """The one module certificate: check num = den + (g) and certify the
    predicted annihilator (den : g) by certify_annihilator.

    annihilator_matches is the certificate's verdict; no colon is derived.
    A failing report names the prediction and the first condition that
    fails: "presentation", "hilbert_function" or "containment".
    """
    presentation_ok = ideal_equal(num, ideal_sum(den, Ideal(num.ring, [g])))
    dims = hf_difference(hf_of(den), hf_of(num))
    failed = certify_annihilator(den, g, dims, hf_of(annihilator), annihilator.generators)
    matches = presentation_ok and failed is None
    report = {
        "presentation_ok": presentation_ok,
        "dims_ok": failed != "hilbert_function",
        "annihilator_matches": matches,
        "passed": matches,
    }
    if matches:
        report["annihilator"] = annihilator.canonical_str()
    else:
        report["predicted_annihilator"] = annihilator.canonical_str()
        report["failed_condition"] = "presentation" if not presentation_ok else failed
    return report


# --- report plumbing -----------------------------------------------------------


def _check(checks, name, ok, **detail):
    entry = {"name": name, "passed": bool(ok)}
    if detail:
        entry.update(detail)
    checks.append(entry)
    return bool(ok)


def _finish(report, checks):
    report["checks"] = checks
    report["passed"] = all(c["passed"] for c in checks)
    return report


# --- family verifiers -----------------------------------------------------------


def _verify_family_common(report, checks, I, expected_blocks, a):
    """Chain blocks, CSM count, cyclic presentations and annihilators for a
    family whose j-th module is R/(A_n(a-1, j-1)R + (v)): one module per
    predicted block below the unit ideal."""
    ring = I.ring
    n = xpart(ring)
    dim = quotient_dimension(I)
    expected = prod(g.degree() for g in I.generators)
    _check(checks, "dimension_product", dim == expected, dim=dim, expected=expected)
    hf = hf_of(I)
    _check(checks, "hilbert_symmetric", hf == tuple(reversed(hf)))

    chain = csm_chain(I)
    report["chain"] = chain.to_json()
    _check(checks, "chain_blocks", chain.matches(expected_blocks),
           expected=[[lo, hi] for _, lo, hi in expected_blocks])
    total = sum(chain.filtration_summands())
    _check(checks, "filtration_dimension", total == dim, total=total, dim=dim)

    modules = central_simple_modules(I, chain)
    expected_count = len(expected_blocks) - 1
    _check(checks, "module_count", len(modules) == expected_count,
           count=len(modules), expected=expected_count)

    module_reports = []
    annihilators = []
    for mod in modules:
        j = mod.index
        g = sym_e(ring, j - 1)
        expected_ann = member_block(ring, a - 1, j - 1)
        sub = cyclic_presentation(mod.numerator, mod.denominator, g, expected_ann)
        sub["shift_ok"] = mod.shift == j - 1
        sub["index"] = j
        sub["passed"] = sub["passed"] and sub["shift_ok"]
        module_reports.append(sub)
        annihilators.append(expected_ann)
        _check(checks, f"module_{j}", sub["passed"],
               **{k: v for k, v in sub.items()
                  if k in ("annihilator", "predicted_annihilator", "failed_condition")})

    report["modules"] = module_reports

    # predicted annihilators form a decreasing chain of complete intersections
    _check(checks, "annihilator_chain", all(
        big.contains_ideal(small) for big, small in zip(annihilators, annihilators[1:])))
    ci_ok = all(certify_regular_sequence(member_ideal(n, a - 1, j))
                for j in range(len(annihilators)))
    _check(checks, "annihilators_regular", ci_ok)
    return chain, modules


def verify_power_family(n: int, a: int) -> dict:
    """Full instance check for the family (p~_a .. p~_(a+n)): chain blocks
    of length a, module count 1 (a = 1) or n+1, cyclic presentations,
    annihilator and shifted-Hilbert matches."""
    if n < 1 or a < 1:
        raise InvalidInput("need n >= 1 and a >= 1")
    I = power_family_ideal(n, a)
    report = {"verifier": "power-family", "params": {"n": n, "a": a},
              "ideal": str(I)}
    checks = []
    _verify_family_common(report, checks, I, chain_blocks(I.ring, a, n), a)
    return _finish(report, checks)


def verify_mixed_family(n: int, a: int, b: int) -> dict:
    """Full instance check for (p~_a..p~_(a+b), e~_(b+2)..e~_(n+1)):
    b+2 modules, block boundaries c_k = n - b + (k-1)a, and the single
    colon equality I : v^(n-b) = (p~_a..p~_(a+b), e_(b+1)..e_n)."""
    if n < 1 or a < 2 or not 0 <= b <= n - 1:
        raise InvalidInput("need n >= 1, a >= 2 and 0 <= b <= n-1")
    I = mixed_family_ideal(n, a, b)
    report = {"verifier": "mixed-family", "params": {"n": n, "a": a, "b": b},
              "ideal": str(I)}
    checks = []
    _verify_family_common(report, checks, I, chain_blocks(I.ring, a, b), a)
    _check(checks, "first_block_colon", first_block_colon_holds(I, a, b),
           exponent=n - b)
    return _finish(report, checks)


# --- generator swaps --------------------------------------------------------------


def _f_presentations(n: int, a: int, k: int):
    """The two generating sets of I_k for the pure family: with the last
    power sum, and with z^a f^(k) in its place."""
    ring = RingSpec(n, has_z=True)
    z = Polynomial.variable(ring, "z")
    ptilde = [symmetric_generator("p_tilde", n, a + t) for t in range(n - k + 1)]
    fs = [boundary_polynomial("f", n, None, t) for t in range(k - 1, -1, -1)]
    with_p = ptilde + fs
    za_fk = (z ** a) * boundary_polynomial("f", n, None, k)
    with_f = ptilde[:-1] + [za_fk] + fs
    return Ideal(ring, with_p), Ideal(ring, with_f)


def _g_presentations(n: int, a: int, b: int, k: int):
    """The two generating sets of I_k for the mixed family (k = 1..b+1)."""
    ring = RingSpec(n, has_z=True)
    z = Polynomial.variable(ring, "z")
    ptilde = [symmetric_generator("p_tilde", n, a + t) for t in range(b + 2 - k)]
    gs = [boundary_polynomial("g", n, b, t) for t in range(k - 2, -1, -1)]
    es = [sym_e(ring, j) for j in range(b + 1, n + 1)]
    with_p = ptilde + gs + es
    za_gk = (z ** a) * boundary_polynomial("g", n, b, k - 1)
    with_g = ptilde[:-1] + [za_gk] + gs + es
    return Ideal(ring, with_p), Ideal(ring, with_g)


def verify_generator_swap(kind: str, n: int, a: int, b: int | None = None) -> dict:
    """Equality of the two presentations of every I_k: replacing the last
    power sum by z^a f^(k) (kind f) or z^a g^(k-1) (kind g)."""
    if a < 2:
        raise InvalidInput("need a >= 2")
    report = {"verifier": "generator-swap", "params": {"kind": kind, "n": n, "a": a, "b": b}}
    checks = []
    if kind == "f":
        ks = range(0, n + 1)
        for k in ks:
            I1, I2 = _f_presentations(n, a, k)
            _check(checks, f"k_{k}", ideal_equal(I1, I2))
    elif kind == "g":
        if b is None or not 0 <= b < n:
            raise InvalidInput("kind g needs 0 <= b < n")
        for k in range(1, b + 2):
            I1, I2 = _g_presentations(n, a, b, k)
            _check(checks, f"k_{k}", ideal_equal(I1, I2))
    else:
        raise InvalidInput(f"unknown swap kind {kind!r}")
    return _finish(report, checks)


# --- colon identities ----------------------------------------------------------


def verify_colon_identity(n: int, a: int, s: int | None = None) -> dict:
    """Colon of a chain block by the next elementary symmetric polynomial:

      (A_n(a, s+1)R + (v)) : e_(s+1) = A_n(a-1, s+1)R + (v)

    for 0 <= s <= n-2, and without s for the top case s = n-1, where the
    divisor is e_n and neither side has an elementary symmetric generator.
    """
    if a < 2:
        raise InvalidInput("need a >= 2, the identities shift indices down by one")
    if s is not None and not 0 <= s <= n - 2:
        raise InvalidInput(f"s={s} out of range 0..{n - 2}")
    top = n - 1 if s is None else s
    ring = RingSpec(n, has_z=True)
    report = {"verifier": "colon-identity", "params": {"n": n, "a": a, "s": s}}
    checks = []
    J = member_block(ring, a, top + 1)
    expected = member_block(ring, a - 1, top + 1)
    divisor = sym_e(ring, top + 1)
    failed = certify_colon(J, divisor, expected)
    named = {"colon": expected.canonical_str()} if failed is None else {"failed_condition": failed}
    _check(checks, "colon_equality", failed is None, **named, expected=expected.canonical_str())

    # the combination sum_{i=0}^{top+1} e_i p_(a+top-i) lies in (e_(top+2)..e_n)
    m = xpart(ring)
    acc = Polynomial.zero(RingSpec(m))
    for i in range(top + 2):
        acc = acc + symmetric_generator("e_signed", m, i) * symmetric_generator("p", m, a + top - i)
    tail = Ideal(RingSpec(m), [symmetric_generator("e_signed", m, i) for i in range(top + 2, m + 1)])
    _check(checks, "newton_membership", normal_form(acc, tail).is_zero())
    return _finish(report, checks)


# --- chain block verifiers (standalone) ---------------------------------------


def verify_chain_blocks(kind: str, n: int, a: int, b: int | None = None) -> dict:
    """Exponent ranges of the deduplicated chain against the predictions:
    blocks of length a starting at ka (kind f), or the c_k = n-b+(k-1)a
    boundaries with a leading block of length n-b (kind g)."""
    if a < 2:
        raise InvalidInput("need a >= 2 for the block structure")
    report = {"verifier": "chain-blocks", "params": {"kind": kind, "n": n, "a": a, "b": b}}
    checks = []
    if kind not in ("f", "g"):
        raise InvalidInput(f"unknown chain kind {kind!r}")
    if kind == "g" and (b is None or not 0 <= b <= n - 1):
        raise InvalidInput("kind g needs 0 <= b <= n-1")
    family_b = n if kind == "f" else b
    I = mixed_family_ideal(n, a, family_b)
    expected = chain_blocks(I.ring, a, family_b)

    chain = csm_chain(I)
    report["chain"] = chain.to_json()
    _check(checks, "blocks", chain.matches(expected),
           expected=[[lo, hi] for _, lo, hi in expected])

    # strictness via strictly dropping quotient dimensions
    dims = [quotient_dimension(J) for J, _, _ in chain.entries]
    _check(checks, "strict_inclusions", all(x > y for x, y in zip(dims, dims[1:])),
           dims=dims)
    if kind == "g":
        _check(checks, "first_block_colon", first_block_colon_holds(I, a, b))
    return _finish(report, checks)


# --- terminal module (least exponent where the chain moves) --------------------


def verify_terminal_csm(I: Ideal, chain: CsmChain | None = None) -> dict:
    """Recompute q = min{i : (I : v^i) + (v) != I + (v)} directly and check
    it against the deduplicated chain (computed when not given); when
    (I : v^q) is everything there is exactly one module, the full quotient
    by the variable."""
    report = {"verifier": "terminal-csm", "ideal": str(I)}
    checks = []
    if chain is None:
        chain = csm_chain(I)
    base = chain.entries[0][0]
    q = None
    cur = I
    for i in range(1, chain.p + 1):
        cur = colon_by_variable_power(cur, 1)
        if not ideal_equal(add_last_variable(cur), base):
            q = i
            break
    _check(checks, "q_found", q is not None, q=q)
    if q is not None:
        _check(checks, "q_matches_chain", chain.entries[0][2] + 1 == q,
               chain_hi=chain.entries[0][2])
        modules = central_simple_modules(I, chain)
        last = modules[-1]
        _check(checks, "terminal_module",
               ideal_equal(last.numerator, chain.ideal_at(q))
               and ideal_equal(last.denominator, base))
        full = colon_by_variable_power(I, q)
        if full.is_unit():
            _check(checks, "single_module", len(modules) == 1)
            dims_match = last.graded_dims == hf_of(base)
            _check(checks, "module_is_quotient_by_variable", dims_match)
    return _finish(report, checks)


def filtration_check(I: Ideal, chain: CsmChain | None = None) -> dict:
    """Sum of dim R/((I : v^i) + (v)) over i equals dim R/I; the chain is
    computed when not given."""
    if chain is None:
        chain = csm_chain(I)
    summands = chain.filtration_summands()
    total = sum(summands)
    dim = quotient_dimension(I)
    return {
        "verifier": "filtration",
        "ideal": str(I),
        "summands": summands,
        "total": total,
        "dimension": dim,
        "passed": total == dim,
    }
