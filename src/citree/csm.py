"""Central simple module decompositions and the instance verifiers.

For an Artinian quotient of K[x1..xm, v] (v the cheapest variable, playing
the distinguished linear form), the chain (I : v^i) + (v) is computed
exactly, deduplicated into blocks, and the successive quotients are checked
against their predicted cyclic presentations: numerator = denominator +
(e_{j-1}) and annihilator (denominator : e_{j-1}) with a shifted Hilbert
function match.  Every predicted chain block, annihilator and side of a
colon identity is a family member A_n(a, m) extended by v (member_block).
Annihilators (certify_annihilator) and colon identities (certify_colon)
are certified; a colon is derived only when a prediction fails.

Every verifier returns a structured report; a failing sub-check is recorded
rather than raised, so a whole grid can run to completion.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ideals import (
    Ideal,
    add_last_variable,
    certify_colon,
    certify_regular_sequence,
    colon_by_variable_power,
    hf_of,
    ideal_colon,
    ideal_equal,
    ideal_sum,
    normal_form,
    quotient_dimension,
)
from .polyring import Polynomial, RingSpec
from .symfun import boundary_polynomial, member_generators, symmetric_generator


# --- symmetric generators relative to the distinguished variable ------------


def xpart(ring: RingSpec) -> int:
    """Number of leading variables (everything except the cheapest one)."""
    return ring.total_vars - 1


def sym_e(ring: RingSpec, i: int) -> Polynomial:
    """Signed elementary symmetric e_i in the leading variables, inside ring."""
    m = xpart(ring)
    return symmetric_generator("e_signed", m, i).extend(ring)


def last_variable(ring: RingSpec) -> Polynomial:
    return Polynomial.variable(ring, ring.total_vars - 1)


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


def certify_annihilator(den: Ideal, g: Polynomial, dims, hf, generators) -> bool:
    """Whether (den : g) = J, given num = den + (g) with num/den of graded
    dimensions dims, and J of Hilbert function hf generated by generators.

    Multiplication by g maps R/(den : g)(-deg g) onto num/den; g*J inside
    den gives J inside (den : g), and equal Hilbert functions force equality.
    """
    return (shifted_hf_matches(dims, hf, g.degree())
            and all(den.contains(g * h) for h in generators))


def power_family_ideal(n: int, a: int) -> Ideal:
    """(p~_a, ..., p~_(a+n)) in K[x1..xn, z]."""
    ring = RingSpec(n, has_z=True)
    return Ideal(ring, [symmetric_generator("p_tilde", n, a + t) for t in range(n + 1)])


def mixed_family_ideal(n: int, a: int, b: int) -> Ideal:
    """(p~_a..p~_(a+b), e~_(b+2)..e~_(n+1)) in K[x1..xn, z]."""
    ring = RingSpec(n, has_z=True)
    gens = [symmetric_generator("p_tilde", n, a + t) for t in range(b + 1)]
    gens += [symmetric_generator("e_tilde", n, j) for j in range(b + 2, n + 2)]
    return Ideal(ring, gens)


def member_block(ring: RingSpec, a: int, m: int) -> Ideal:
    """A_n(a, m)R + (v): the family member in the leading variables of
    ring, extended to ring, plus the cheapest variable v."""
    gens = [g.extend(ring) for g in member_generators(xpart(ring), a, m)]
    return Ideal(ring, gens + [last_variable(ring)])


def power_chain_blocks(ring: RingSpec, a: int):
    """Expected deduplicated chain (ideal, lo, hi) of the power family:
    A_n(a, n-k) + (v) on the exponents ka..(k+1)a-1 for k = 0..n, then the
    unit ideal; when a = 1, A_n(1, 0) + (v) on 0..n, then the unit ideal."""
    n = xpart(ring)
    unit = Ideal(ring, [Polynomial.one(ring)])
    if a == 1:
        return [(member_block(ring, 1, 0), 0, n), (unit, n + 1, n + 1)]
    blocks = [(member_block(ring, a, n - k), k * a, (k + 1) * a - 1) for k in range(n + 1)]
    return blocks + [(unit, (n + 1) * a, (n + 1) * a)]


def mixed_chain_blocks(ring: RingSpec, a: int, b: int):
    """Expected deduplicated chain (ideal, lo, hi) of the mixed family:
    A_n(a, b+1) + (v) on 0..n-b-1, then A_n(a, b+1-k) + (v) from
    c_k = n-b+(k-1)a to c_(k+1)-1 for k = 1..b+1, then the unit ideal.

    With a >= 2 and 0 <= b <= n-1 no block is empty, and adjacent blocks
    differ: their quotient dimensions are in the ratio (a+m-1)/m."""
    n = xpart(ring)

    def c_of(k):
        return n - b + (k - 1) * a

    blocks = [(member_block(ring, a, b + 1), 0, n - b - 1)]
    blocks += [(member_block(ring, a, b + 1 - k), c_of(k), c_of(k + 1) - 1)
               for k in range(1, b + 2)]
    blocks.append((Ideal(ring, [Polynomial.one(ring)]), c_of(b + 2), c_of(b + 2)))
    return blocks


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
    chain, with graded dimensions and an optional cyclic presentation."""

    index: int
    numerator: Ideal
    denominator: Ideal
    graded_dims: tuple
    shift: int
    cyclic_generator: Polynomial | None = None
    annihilator: Ideal | None = None


def nilpotency_index(A, y: Polynomial) -> int:
    """Least p with y^p = 0 in the quotient algebra."""
    power = Polynomial.one(A.ring)
    p = 0
    while True:
        if normal_form(power, A.ideal).is_zero():
            return p
        power = power * y
        p += 1
        if p > A.dimension() + 1:
            raise AssertionError("nilpotency index exceeded the dimension bound")


def csm_chain(I: Ideal) -> CsmChain:
    """Compute and deduplicate (I : v^i) + (v) until the unit ideal."""
    dim = quotient_dimension(I)
    if dim is None:
        raise ValueError(f"{I} is not Artinian")
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


def cyclic_presentation(num: Ideal, den: Ideal, g: Polynomial, annihilator: Ideal | None = None):
    """Check num = den + (g), find the annihilator (den : g) and compare the
    graded dimensions with its shifted Hilbert function; returns (module,
    report).

    A predicted annihilator is taken when the presentation holds and
    certify_annihilator proves it; otherwise the colon is derived by kernel
    lifting, so the report always names the true annihilator.
    """
    ring = num.ring
    presentation_ok = ideal_equal(num, ideal_sum(den, Ideal(ring, [g])))
    dims = hf_difference(hf_of(den), hf_of(num))
    if presentation_ok and annihilator is not None and certify_annihilator(
            den, g, dims, hf_of(annihilator), annihilator.generators):
        ann = annihilator
    else:
        ann = ideal_colon(den, g)
    dims_ok = shifted_hf_matches(dims, hf_of(ann), g.degree())
    nonzero = [d for d, v in enumerate(dims) if v]
    module = CentralSimpleModule(
        index=0,
        numerator=num,
        denominator=den,
        graded_dims=dims,
        shift=nonzero[0] if nonzero else 0,
        cyclic_generator=g,
        annihilator=ann,
    )
    report = {
        "presentation_ok": presentation_ok,
        "dims_ok": dims_ok,
        "annihilator": ann.canonical_str(),
        "passed": presentation_ok and dims_ok,
    }
    return module, report


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


def _verify_family_common(report, checks, I, expected_blocks, expected_count, a):
    """Chain blocks, CSM count, cyclic presentations and annihilators for a
    family whose j-th module is R/(A_n(a-1, j-1)R + (v))."""
    ring = I.ring
    n = xpart(ring)
    dim = quotient_dimension(I)
    degs = [g.degree() for g in I.generators]
    prod = 1
    for d in degs:
        prod *= d
    _check(checks, "dimension_product", dim == prod, dim=dim, expected=prod)
    hf = hf_of(I)
    _check(checks, "hilbert_symmetric", hf == tuple(reversed(hf)))

    chain = csm_chain(I)
    report["chain"] = chain.to_json()
    _check(checks, "chain_blocks", chain.matches(expected_blocks),
           expected=[[lo, hi] for _, lo, hi in expected_blocks])
    total = sum(chain.filtration_summands())
    _check(checks, "filtration_dimension", total == dim, total=total, dim=dim)

    modules = central_simple_modules(I, chain)
    _check(checks, "module_count", len(modules) == expected_count,
           count=len(modules), expected=expected_count)

    module_reports = []
    annihilators = []
    for mod in modules:
        j = mod.index
        g = sym_e(ring, j - 1)
        expected_ann = member_block(ring, a - 1, j - 1)
        checked, sub = cyclic_presentation(mod.numerator, mod.denominator, g, expected_ann)
        ann_ok = ideal_equal(checked.annihilator, expected_ann)
        sub["annihilator_matches"] = ann_ok
        sub["shift_ok"] = checked.shift == j - 1
        sub["index"] = j
        sub["passed"] = sub["passed"] and ann_ok and sub["shift_ok"]
        module_reports.append(sub)
        annihilators.append(expected_ann)
        _check(checks, f"module_{j}", sub["passed"],
               annihilator=checked.annihilator.canonical_str())

    report["modules"] = module_reports

    # predicted annihilators form a decreasing chain of complete intersections
    chain_ok = True
    for t in range(len(annihilators) - 1):
        bigger = annihilators[t]       # J_j has smaller index -> larger ideal
        smaller = annihilators[t + 1]
        if not bigger.contains_ideal(smaller):
            chain_ok = False
    _check(checks, "annihilator_chain", chain_ok)
    ci_ok = all(certify_regular_sequence(member_generators(n, a - 1, j))
                for j in range(len(annihilators)))
    _check(checks, "annihilators_regular", ci_ok)
    return chain, modules


def verify_power_family(n: int, a: int) -> dict:
    """Full instance check for the family (p~_a .. p~_(a+n)): chain blocks
    of length a, module count 1 (a = 1) or n+1, cyclic presentations,
    annihilator and shifted-Hilbert matches."""
    if n < 1 or a < 1:
        raise ValueError("need n >= 1 and a >= 1")
    I = power_family_ideal(n, a)
    report = {"verifier": "power-family", "params": {"n": n, "a": a},
              "ideal": str(I)}
    checks = []
    expected_blocks = power_chain_blocks(I.ring, a)
    expected_count = 1 if a == 1 else n + 1
    _verify_family_common(report, checks, I, expected_blocks, expected_count, a)
    return _finish(report, checks)


def verify_mixed_family(n: int, a: int, b: int) -> dict:
    """Full instance check for (p~_a..p~_(a+b), e~_(b+2)..e~_(n+1)):
    b+2 modules, block boundaries c_k = n - b + (k-1)a, and the single
    colon equality I : v^(n-b) = (p~_a..p~_(a+b), e_(b+1)..e_n)."""
    if n < 1 or a < 2 or not 0 <= b <= n - 1:
        raise ValueError("need n >= 1, a >= 2 and 0 <= b <= n-1")
    I = mixed_family_ideal(n, a, b)
    report = {"verifier": "mixed-family", "params": {"n": n, "a": a, "b": b},
              "ideal": str(I)}
    checks = []
    expected_blocks = mixed_chain_blocks(I.ring, a, b)
    _verify_family_common(report, checks, I, expected_blocks, b + 2, a)
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
        raise ValueError("need a >= 2")
    report = {"verifier": "generator-swap", "params": {"kind": kind, "n": n, "a": a, "b": b}}
    checks = []
    if kind == "f":
        ks = range(0, n + 1)
        for k in ks:
            I1, I2 = _f_presentations(n, a, k)
            _check(checks, f"k_{k}", ideal_equal(I1, I2))
    elif kind == "g":
        if b is None or not 0 <= b < n:
            raise ValueError("kind g needs 0 <= b < n")
        for k in range(1, b + 2):
            I1, I2 = _g_presentations(n, a, b, k)
            _check(checks, f"k_{k}", ideal_equal(I1, I2))
    else:
        raise ValueError(f"unknown swap kind {kind!r}")
    return _finish(report, checks)


# --- colon identities ----------------------------------------------------------


def verify_colon_identity(n: int, a: int, s: int | None = None) -> dict:
    """Colon of a chain block by the next elementary symmetric polynomial:

      (A_n(a, s+1)R + (v)) : e_(s+1) = A_n(a-1, s+1)R + (v)

    for 0 <= s <= n-2, and without s for the top case s = n-1, where the
    divisor is e_n and neither side has an elementary symmetric generator.
    """
    if a < 2:
        raise ValueError("need a >= 2, the identities shift indices down by one")
    if s is not None and not 0 <= s <= n - 2:
        raise ValueError(f"s={s} out of range 0..{n - 2}")
    top = n - 1 if s is None else s
    ring = RingSpec(n, has_z=True)
    report = {"verifier": "colon-identity", "params": {"n": n, "a": a, "s": s}}
    checks = []
    J = member_block(ring, a, top + 1)
    expected = member_block(ring, a - 1, top + 1)
    divisor = sym_e(ring, top + 1)
    colon = expected if certify_colon(J, divisor, expected) else ideal_colon(J, divisor)
    _check(checks, "colon_equality", ideal_equal(colon, expected),
           colon=colon.canonical_str(), expected=expected.canonical_str())

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
        raise ValueError("need a >= 2 for the block structure")
    report = {"verifier": "chain-blocks", "params": {"kind": kind, "n": n, "a": a, "b": b}}
    checks = []
    if kind == "f":
        I = power_family_ideal(n, a)
        expected = power_chain_blocks(I.ring, a)
    elif kind == "g":
        if b is None or not 0 <= b <= n - 1:
            raise ValueError("kind g needs 0 <= b <= n-1")
        I = mixed_family_ideal(n, a, b)
        expected = mixed_chain_blocks(I.ring, a, b)
    else:
        raise ValueError(f"unknown chain kind {kind!r}")

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
