"""Central simple module decompositions and the instance verifiers.

For an Artinian quotient of K[x1..xm, v] (v the cheapest variable, playing
the distinguished linear form), the chain (I : v^i) + (v) is computed
exactly and deduplicated into blocks.  The paper's module prediction is
written once, in predicted_member: module j is presented by e_(j-1), and
its annihilator is the member A_m(a-1, j-1) one level down, lifted by v
(member_block, a basis rewrite).  One module pass, certify_module,
certifies a module against it with cyclic_presentation, the one
certificate of a predicted colon: numerator = denominator + (e_(j-1)),
and the annihilator proved by the exact sequence of Hilbert functions and
a containment.  The family verifiers, the tree's arrows and the colon
identities (module s+2 of the power family) all render its results.  One
bounded table, member_ideal, builds and certifies each member A_n(a, m)
once under its member_key.  The power and mixed families are
A_(m+1)(a, b+1) with x_(m+1) read as v, and one chain_blocks predicts
both chains.  No verifier derives a colon: a failed certificate is
reported with the prediction and the condition that failed.

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
    artinian_caps,
    certify_regular_sequence,
    colon_by_variable_power,
    extend_with_last_variable,
    hf_difference,
    hf_of,
    ideal_equal,
    ideal_sum,
    normal_form,
    quotient_dimension,
    shifted_hf_matches,
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


# Members kept by member_ideal; the full verification builds 46.
MEMBER_TABLE_SIZE = 256


def member_key(n: int, a: int, m: int):
    """The member table's key (a, m) of A_n(a, m): (1, n), the coinvariant
    member (e_1..e_n), when a <= 1 or m = 0, since A_n(1, m) and A_n(a, 0)
    are that ideal by Newton's identities."""
    return (1, n) if a <= 1 or m == 0 else (a, m)


def predicted_member(k: int, a: int, s: int):
    """member_key of A_k(a-1, s), the member one level down that the paper
    predicts as the annihilator of module s+1 when the power sums start at
    degree a (Harima-Watanabe); None when s > k, where no member exists."""
    return None if s > k else member_key(k, a - 1, s)


@lru_cache(maxsize=MEMBER_TABLE_SIZE)
def member_ideal(n: int, a: int, m: int) -> Ideal:
    """A_n(a, m) in K[x1..xn], built once under its member_key and
    certified in place by certify_regular_sequence: its n generators have
    positive degrees and R/A_n(a, m) is Artinian, so they form a regular
    sequence (K[x1..xn] is Cohen-Macaulay) and the quotient has dimension
    the product of their degrees.  A member that fails raises
    AssertionError and never enters the table, so every reader of the
    table reads a certified complete intersection.  No standard monomial
    is listed until a reader needs one.  The coinvariant entry (1, n) is
    built from e_1..e_n, the generators of A_n(1, 0)."""
    key = member_key(n, a, m)
    if key != (a, m):
        return member_ideal(n, *key)
    ideal = Ideal(RingSpec(n), member_generators(n, a, 0 if a == 1 else m))
    if not certify_regular_sequence(ideal):
        raise AssertionError(f"family member ({n},{a},{m}) failed certification")
    return ideal


def member_block(ring: RingSpec, a: int, m: int) -> Ideal:
    """A_n(a, m)R + (v): the family member in the leading variables of
    ring, extended to ring, plus the cheapest variable v: the member's
    reduced basis and standard monomials, rewritten
    (extend_with_last_variable lists the member's once)."""
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
    """I : v^(n-b) = (p~_a..p~_(a+b), e_(b+1)..e_n), the generators of I_1
    (_swap_generators, kind g), for the mixed family I."""
    n = xpart(I.ring)
    ptilde, rest = _swap_generators("g", n, a, b, 0)
    return ideal_equal(colon_by_variable_power(I, n - b), Ideal(I.ring, ptilde + rest))


# --- the chain ----------------------------------------------------------------


@dataclass
class CsmChain:
    """Deduplicated chain (I : v^i) + (v), i = 0..p, p the nilpotency index.

    entries[t] = (ideal, lo, hi): the ideal attained exactly for the
    exponents lo..hi; the last entry is the unit ideal at (p, p).
    hilbert_functions[t] is HF(R/ideal) of entries[t], recorded by csm_chain.
    """

    p: int
    entries: list
    hilbert_functions: list

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

    def dimensions(self):
        """dim R/ideal for each entry."""
        return [sum(hf) for hf in self.hilbert_functions]

    def filtration_summands(self):
        """dim R/((I : v^i) + (v)) for i = 0..p; the filtration identity
        says they sum to dim R/I."""
        return [dim for dim, (_, lo, hi) in zip(self.dimensions(), self.entries)
                for _ in range(lo, hi + 1)]


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
    """Compute and deduplicate (I : v^i) + (v) until the unit ideal, with
    each block's Hilbert function; raises NotArtinian when R/I is not
    Artinian (artinian_caps), listing none of I's standard monomials.

    The chain reaches the unit ideal at p, the nilpotency index of v in
    R/I: (I : v^i) + (v) is homogeneous, so it is R exactly when v^i is in
    I.  v^(s+1) is in I for s the socle degree, and s <= sum(c_j - 1) for
    the pure-power caps c_j of in(I), which bounds the loop.
    """
    bound = sum(c - 1 for c in artinian_caps(I)) + 1
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
        if i >= bound:
            raise AssertionError("chain failed to terminate")
        cur = colon_by_variable_power(cur, 1)
        i += 1
    chain = CsmChain(p=i, entries=[tuple(e) for e in entries],
                     hilbert_functions=[hf_of(e[0]) for e in entries])
    dims = chain.dimensions()
    for t in range(len(entries) - 1):
        small, big = entries[t][0], entries[t + 1][0]
        if not big.contains_ideal(small):
            raise AssertionError("chain is not increasing")
        if not dims[t] > dims[t + 1]:
            raise AssertionError("consecutive chain blocks are not strict")
    return chain


def central_simple_modules(chain: CsmChain):
    """The nonzero successive quotients of the chain, top first."""
    ideals = chain.distinct_ideals()
    hfs = chain.hilbert_functions
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
    """The one certificate of a predicted colon: check num = den + (g) and
    prove (den : g) = J, J the predicted annihilator, with no colon derived.

    Given num = den + (g), the exact sequence
    0 -> R/(den : g)(-deg g) -> R/den -> R/num -> 0 gives the Hilbert
    function of R/(den : g) as HF(R/den) - HF(R/num) moved down by deg g;
    g*J inside den gives J inside (den : g), and equal Hilbert functions
    then force equality.  annihilator_matches is the verdict.  A failing
    report names the prediction and the first condition that fails:
    "presentation", "hilbert_function" or "containment".  Raises
    NotArtinian when a quotient is not Artinian.
    """
    presentation_ok = ideal_equal(num, ideal_sum(den, Ideal(num.ring, [g])))
    dims = hf_difference(hf_of(den), hf_of(num))
    if not shifted_hf_matches(dims, hf_of(annihilator), g.degree()):
        failed = "hilbert_function"
    elif not all(den.contains(g * h) for h in annihilator.generators):
        failed = "containment"
    else:
        failed = None
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


def certify_module(ring: RingSpec, a: int, j: int, num: Ideal, den: Ideal):
    """The one module pass: module j = num/den of an ideal of ring whose
    power sums start at degree a is presented by g = e_(j-1), and its
    annihilator is the predicted_member lifted by v (member_block),
    certified by cyclic_presentation.  Returns (key, annihilator, report);
    when j - 1 exceeds the level no member is predicted, key and
    annihilator are None and the report fails with "no_member"."""
    key = predicted_member(xpart(ring), a, j - 1)
    if key is None:
        return None, None, {"passed": False, "failed_condition": "no_member"}
    annihilator = member_block(ring, *key)
    return key, annihilator, cyclic_presentation(num, den, sym_e(ring, j - 1), annihilator)


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


def _family_chain(I: Ideal, a: int, b: int):
    """The chain of I = mixed_family_ideal(n, a, b) (b = n: the power
    family) against chain_blocks: (chain, the predicted exponent ranges,
    whether the blocks match, and first_block_colon_holds for the mixed
    kind b < n, None for the power family)."""
    expected = chain_blocks(I.ring, a, b)
    chain = csm_chain(I)
    colon_ok = first_block_colon_holds(I, a, b) if b < xpart(I.ring) else None
    return chain, [[lo, hi] for _, lo, hi in expected], chain.matches(expected), colon_ok


def _verify_family(report, I, a, b):
    """Chain blocks, CSM count and the module pass (certify_module) for
    I = mixed_family_ideal(n, a, b), whose j-th module is
    R/(A_n(a-1, j-1)R + (v)): one module per predicted block below the
    unit ideal."""
    checks = []
    n = xpart(I.ring)
    dim = quotient_dimension(I)
    expected = prod(g.degree() for g in I.generators)
    _check(checks, "dimension_product", dim == expected, dim=dim, expected=expected)
    hf = hf_of(I)
    _check(checks, "hilbert_symmetric", hf == tuple(reversed(hf)))

    chain, ranges, blocks_ok, colon_ok = _family_chain(I, a, b)
    report["chain"] = chain.to_json()
    _check(checks, "chain_blocks", blocks_ok, expected=ranges)
    total = sum(chain.filtration_summands())
    _check(checks, "filtration_dimension", total == dim, total=total, dim=dim)

    modules = central_simple_modules(chain)
    _check(checks, "module_count", len(modules) == len(ranges) - 1,
           count=len(modules), expected=len(ranges) - 1)

    report["modules"] = []
    annihilators = []
    for mod in modules:
        j = mod.index
        _, annihilator, sub = certify_module(I.ring, a, j, mod.numerator, mod.denominator)
        sub["shift_ok"] = mod.shift == j - 1
        sub["index"] = j
        sub["passed"] = sub["passed"] and sub["shift_ok"]
        report["modules"].append(sub)
        if annihilator is not None:
            annihilators.append(annihilator)
        _check(checks, f"module_{j}", sub["passed"],
               **{k: v for k, v in sub.items()
                  if k in ("annihilator", "predicted_annihilator", "failed_condition")})

    # predicted annihilators form a decreasing chain of complete intersections:
    # each is a lifted member_ideal entry, and the table holds only members
    # that certify_regular_sequence certified (member_ideal raises otherwise)
    _check(checks, "annihilator_chain", all(
        big.contains_ideal(small) for big, small in zip(annihilators, annihilators[1:])))
    _check(checks, "annihilators_regular", True)
    if colon_ok is not None:
        _check(checks, "first_block_colon", colon_ok, exponent=n - b)
    return _finish(report, checks)


def verify_power_family(n: int, a: int) -> dict:
    """Full instance check for the family (p~_a .. p~_(a+n)): chain blocks
    of length a, module count 1 (a = 1) or n+1, cyclic presentations,
    annihilator and shifted-Hilbert matches."""
    if n < 1 or a < 1:
        raise InvalidInput("need n >= 1 and a >= 1")
    I = power_family_ideal(n, a)
    return _verify_family({"verifier": "power-family", "params": {"n": n, "a": a},
                           "ideal": str(I)}, I, a, n)


def verify_mixed_family(n: int, a: int, b: int) -> dict:
    """Full instance check for (p~_a..p~_(a+b), e~_(b+2)..e~_(n+1)):
    b+2 modules, block boundaries c_k = n - b + (k-1)a, and the single
    colon equality I : v^(n-b) = (p~_a..p~_(a+b), e_(b+1)..e_n)."""
    if n < 1 or a < 2 or not 0 <= b <= n - 1:
        raise InvalidInput("need n >= 1, a >= 2 and 0 <= b <= n-1")
    I = mixed_family_ideal(n, a, b)
    return _verify_family({"verifier": "mixed-family", "params": {"n": n, "a": a, "b": b},
                           "ideal": str(I)}, I, a, b)


# --- generator swaps --------------------------------------------------------------


def _swap_generators(kind: str, n: int, a: int, b: int | None, r: int):
    """The generators of I_k, with top = n (kind f, r = k) or top = b
    (kind g, r = k-1): the power sums p~_a..p~_(a+top-r), then the rest,
    the boundary polynomials of orders r-1 down to 0 and e_(top+1)..e_n."""
    ring = RingSpec(n, has_z=True)
    top = n if kind == "f" else b
    return ([symmetric_generator("p_tilde", n, a + t) for t in range(top - r + 1)],
            [boundary_polynomial(kind, n, b, t) for t in range(r - 1, -1, -1)]
            + [sym_e(ring, j) for j in range(top + 1, n + 1)])


def verify_generator_swap(kind: str, n: int, a: int, b: int | None = None) -> dict:
    """Equality of the two presentations of every I_k (_swap_generators):
    replacing the last power sum by z^a f^(k) (kind f) or z^a g^(k-1)
    (kind g)."""
    if a < 2:
        raise InvalidInput("need a >= 2")
    report = {"verifier": "generator-swap", "params": {"kind": kind, "n": n, "a": a, "b": b}}
    checks = []
    if kind == "f":
        ks, offset = range(0, n + 1), 0
    elif kind == "g":
        if b is None or not 0 <= b < n:
            raise InvalidInput("kind g needs 0 <= b < n")
        ks, offset = range(1, b + 2), 1
    else:
        raise InvalidInput(f"unknown swap kind {kind!r}")
    ring = RingSpec(n, has_z=True)
    z = Polynomial.variable(ring, "z")
    for k in ks:
        ptilde, rest = _swap_generators(kind, n, a, b, k - offset)
        swapped = (z ** a) * boundary_polynomial(kind, n, b, k - offset)
        _check(checks, f"k_{k}", ideal_equal(Ideal(ring, ptilde + rest),
                                             Ideal(ring, ptilde[:-1] + [swapped] + rest)))
    return _finish(report, checks)


# --- colon identities ----------------------------------------------------------


def verify_colon_identity(n: int, a: int, s: int | None = None) -> dict:
    """Colon of a chain block by the next elementary symmetric polynomial:

      (A_n(a, s+1)R + (v)) : e_(s+1) = A_n(a-1, s+1)R + (v)

    for 0 <= s <= n-2, and without s for the top case s = n-1, where the
    divisor is e_n and neither side has an elementary symmetric generator.
    This is module s+2 of the power family from degree a, and the module
    pass (certify_module) certifies it: numerator A_n(a, s)R + (v),
    denominator the left side's block, generator e_(s+1), annihilator the
    right side, the predicted_member.
    """
    if a < 2:
        raise InvalidInput("need a >= 2, the identities shift indices down by one")
    if s is not None and not 0 <= s <= n - 2:
        raise InvalidInput(f"s={s} out of range 0..{n - 2}")
    top = n - 1 if s is None else s
    ring = RingSpec(n, has_z=True)
    report = {"verifier": "colon-identity", "params": {"n": n, "a": a, "s": s}}
    checks = []
    _, expected, sub = certify_module(ring, a, top + 2, member_block(ring, a, top),
                                      member_block(ring, a, top + 1))
    named = ({"colon": expected.canonical_str()} if sub["passed"]
             else {"failed_condition": sub["failed_condition"]})
    _check(checks, "colon_equality", sub["passed"], **named, expected=expected.canonical_str())

    # the combination sum_{i=0}^{top+1} e_i p_(a+top-i) lies in (e_(top+2)..e_n)
    acc = Polynomial.zero(RingSpec(n))
    for i in range(top + 2):
        acc = acc + symmetric_generator("e_signed", n, i) * symmetric_generator("p", n, a + top - i)
    tail = Ideal(RingSpec(n), [symmetric_generator("e_signed", n, i) for i in range(top + 2, n + 1)])
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
    chain, ranges, blocks_ok, colon_ok = _family_chain(I, a, family_b)
    report["chain"] = chain.to_json()
    _check(checks, "blocks", blocks_ok, expected=ranges)

    # strictness via strictly dropping quotient dimensions
    dims = chain.dimensions()
    _check(checks, "strict_inclusions", all(x > y for x, y in zip(dims, dims[1:])),
           dims=dims)
    if colon_ok is not None:
        _check(checks, "first_block_colon", colon_ok)
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
        modules = central_simple_modules(chain)
        last = modules[-1]
        _check(checks, "terminal_module",
               ideal_equal(last.numerator, chain.ideal_at(q))
               and ideal_equal(last.denominator, base))
        if cur.is_unit():  # cur = (I : v^q)
            _check(checks, "single_module", len(modules) == 1)
            dims_match = last.graded_dims == chain.hilbert_functions[0]
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
