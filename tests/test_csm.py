"""Central simple module chains, presentations, and the family verifiers."""

import pytest

from citree import cli, csm, ideals, linalg
from citree.csm import (
    central_simple_modules,
    chain_blocks,
    csm_chain,
    cyclic_presentation,
    filtration_check,
    member_block,
    mixed_family_ideal,
    power_family_ideal,
    sym_e,
    verify_chain_blocks,
    verify_colon_identity,
    verify_generator_swap,
    verify_mixed_family,
    verify_power_family,
    verify_terminal_csm,
)
from citree.ideals import Ideal, colon_by_variable_power, hf_of, ideal_equal, quotient_dimension
from citree.polyring import InvalidInput, Polynomial, RingSpec
from citree.quotient import build_quotient, mult_map_matrix
from citree.symfun import symmetric_generator
from citree.tree import family_member, family_members, member_csm_arrows

R2Z = RingSpec(2, True)


def _power_p(ring, i):
    return symmetric_generator("p", ring.cheapest, i).extend(ring)


# --- nilpotency -----------------------------------------------------------------
# the chain's p, the least p with v^p = 0 in R/I, is the index the csm
# subcommand reports


def test_nilpotency_small():
    R1Z = RingSpec(1, True)
    assert csm_chain(Ideal.from_strings(R1Z, ["x1 + z", "x1^2 + z^2"])).p == 2


def test_nilpotency_power_family():
    assert csm_chain(power_family_ideal(2, 2)).p == 6


def test_nilpotency_univariate():
    assert csm_chain(Ideal.from_strings(RingSpec(1), ["x1^3"])).p == 3


# --- chains ----------------------------------------------------------------------


def test_chain_power_family_2_2():
    I = power_family_ideal(2, 2)
    chain = csm_chain(I)
    assert chain.p == 6
    ring = I.ring
    z = Polynomial.variable(ring, "z")
    expected = [
        (Ideal(ring, [_power_p(ring, 2), _power_p(ring, 3), z]), 0, 1),
        (Ideal(ring, [_power_p(ring, 2), sym_e(ring, 2), z]), 2, 3),
        (Ideal(ring, [sym_e(ring, 1), sym_e(ring, 2), z]), 4, 5),
        (Ideal(ring, [Polynomial.one(ring)]), 6, 6),
    ]
    assert len(chain.entries) == len(expected)
    for (J, lo, hi), (E, elo, ehi) in zip(chain.entries, expected):
        assert (lo, hi) == (elo, ehi)
        assert ideal_equal(J, E)
    # the predicted blocks are these ideals, generators in the same order
    predicted = chain_blocks(ring, 2, 2)
    assert [(E.generators, lo, hi) for E, lo, hi in predicted] == [
        (E.generators, lo, hi) for E, lo, hi in expected]


@pytest.mark.parametrize("family", ["power", "mixed"])
def test_predicted_blocks_drop_strictly(family):
    # no predicted block is empty and adjacent blocks differ, so the
    # computed chain needs no merging of predicted blocks to match
    if family == "power":
        cases = [chain_blocks(RingSpec(n, True), a, n) for n, a in cli.power_grid()]
    else:
        cases = [chain_blocks(RingSpec(n, True), a, b) for n, a, b in cli.mixed_grid()]
    for blocks in cases:
        assert blocks[0][1] == 0 and all(lo <= hi for _, lo, hi in blocks)
        assert all(hi + 1 == lo for (_, _, hi), (_, lo, _) in zip(blocks, blocks[1:]))
        dims = [quotient_dimension(E) for E, _, _ in blocks]
        assert all(x > y for x, y in zip(dims, dims[1:])), dims
        assert dims[-1] == 0


def test_chain_power_family_a1():
    I = power_family_ideal(2, 1)
    chain = csm_chain(I)
    ring = I.ring
    z = Polynomial.variable(ring, "z")
    assert chain.p == 3
    assert len(chain.entries) == 2
    assert ideal_equal(chain.entries[0][0],
                       Ideal(ring, [sym_e(ring, 1), sym_e(ring, 2), z]))
    assert chain.entries[0][1:] == (0, 2)


def test_chain_monomial_example():
    R1Z = RingSpec(1, True)
    I = Ideal.from_strings(R1Z, ["x1^2", "z^2"])
    chain = csm_chain(I)
    assert chain.p == 2
    assert chain.entries[0][1:] == (0, 1)
    assert ideal_equal(chain.entries[0][0], Ideal.from_strings(R1Z, ["x1^2", "z"]))
    assert chain.entries[1][0].is_unit()


def test_mixed_family_spelling():
    # the mixed family is A_(n+1)(a, b+1) with z for x_(n+1); against its
    # generators written out: p~_a..p~_(a+b), then e~_i = e_i - z e_(i-1)
    # for i = b+2..n, and e~_(n+1) = -z e_n
    for n in (1, 2, 3):
        ring = RingSpec(n, True)
        z = Polynomial.variable(ring, "z")
        e = [sym_e(ring, i) for i in range(n + 1)]
        for a in range(1, 5):
            for b in range(n + 1):
                by_hand = [_power_p(ring, a + t) + z ** (a + t) for t in range(b + 1)]
                by_hand += [e[i] - z * e[i - 1] for i in range(b + 2, n + 1)]
                by_hand += [-(z * e[n])] if b < n else []
                assert list(mixed_family_ideal(n, a, b).generators) == by_hand


def test_module_counts():
    assert len(central_simple_modules(csm_chain(power_family_ideal(2, 2)))) == 3
    assert len(central_simple_modules(csm_chain(power_family_ideal(2, 1)))) == 1
    assert len(central_simple_modules(csm_chain(mixed_family_ideal(2, 2, 1)))) == 3


def test_module_graded_dims():
    mods = central_simple_modules(csm_chain(power_family_ideal(2, 2)))
    # U_1 is the coinvariant quotient: dims (1, 1) starting at degree 0
    assert mods[0].graded_dims[:2] == (1, 1)
    assert mods[0].shift == 0
    assert all(mod.shift == mod.index - 1 for mod in mods)


# --- cyclic presentations ----------------------------------------------------------


def test_cyclic_presentation_power_block():
    ring = R2Z
    z = Polynomial.variable(ring, "z")
    den = Ideal(ring, [_power_p(ring, 2), sym_e(ring, 2), z])        # middle block
    num = Ideal(ring, [sym_e(ring, 1), sym_e(ring, 2), z])           # next block
    expected_ann = Ideal(ring, [_power_p(ring, 1), sym_e(ring, 2), z])
    report = cyclic_presentation(num, den, sym_e(ring, 1), expected_ann)
    assert report["presentation_ok"] and report["dims_ok"]
    assert report["annihilator"] == expected_ann.canonical_str()


def test_cyclic_presentation_trivial_generator():
    ring = R2Z
    z = Polynomial.variable(ring, "z")
    den = Ideal(ring, [sym_e(ring, 1), sym_e(ring, 2), z])
    num = Ideal(ring, [Polynomial.one(ring)])
    report = cyclic_presentation(num, den, Polynomial.one(ring), den)
    assert report["passed"]
    assert report["annihilator"] == den.canonical_str()


def test_cyclic_presentation_bottom_block():
    ring = R2Z
    z = Polynomial.variable(ring, "z")
    den = Ideal(ring, [_power_p(ring, 2), _power_p(ring, 3), z])
    num = Ideal(ring, [_power_p(ring, 2), sym_e(ring, 2), z])
    expected_ann = Ideal(ring, [_power_p(ring, 1), _power_p(ring, 2), z])
    report = cyclic_presentation(num, den, sym_e(ring, 2), expected_ann)
    assert report["passed"]
    assert report["annihilator"] == expected_ann.canonical_str()


def test_cyclic_presentation_failure_reported():
    ring = R2Z
    z = Polynomial.variable(ring, "z")
    den = Ideal(ring, [_power_p(ring, 2), _power_p(ring, 3), z])
    num = Ideal(ring, [sym_e(ring, 1), sym_e(ring, 2), z])
    # (den : e_2) is (p_1, p_2, z), but num is not den + (e_2)
    colon = Ideal(ring, [_power_p(ring, 1), _power_p(ring, 2), z])
    report = cyclic_presentation(num, den, sym_e(ring, 2), colon)
    assert not report["presentation_ok"]
    assert not report["passed"]
    assert report["failed_condition"] == "presentation"


# --- family verifiers ----------------------------------------------------------------


def test_power_family_2_2():
    report = verify_power_family(2, 2)
    assert report["passed"], report
    anns = [m["annihilator"] for m in report["modules"]]
    ring = R2Z
    z = Polynomial.variable(ring, "z")
    expected = [
        Ideal(ring, [sym_e(ring, 1), sym_e(ring, 2), z]),
        Ideal(ring, [_power_p(ring, 1), sym_e(ring, 2), z]),
        Ideal(ring, [_power_p(ring, 1), _power_p(ring, 2), z]),
    ]
    assert anns == [e.canonical_str() for e in expected]


def test_power_family_1_1():
    report = verify_power_family(1, 1)
    assert report["passed"]
    assert len(report["modules"]) == 1


def test_power_family_2_3():
    report = verify_power_family(2, 3)
    assert report["passed"]
    ring = R2Z
    z = Polynomial.variable(ring, "z")
    u2 = Ideal(ring, [_power_p(ring, 2), sym_e(ring, 2), z])
    assert report["modules"][1]["annihilator"] == u2.canonical_str()


def test_mixed_family_2_2_1_matches_power_family():
    mixed = verify_mixed_family(2, 2, 1)
    power = verify_power_family(2, 2)
    assert mixed["passed"] and power["passed"]
    assert [m["annihilator"] for m in mixed["modules"]] == [
        m["annihilator"] for m in power["modules"]
    ]


def test_mixed_family_3_2_2_all_modules_coincide():
    report = verify_mixed_family(3, 2, 2)
    assert report["passed"]
    ring = RingSpec(3, True)
    z = Polynomial.variable(ring, "z")
    coinv = Ideal(ring, [sym_e(ring, 1), sym_e(ring, 2), sym_e(ring, 3), z])
    target = coinv.canonical_str()
    assert all(m["annihilator"] == target for m in report["modules"])


def test_mixed_family_2_3_0():
    report = verify_mixed_family(2, 3, 0)
    assert report["passed"]
    assert len(report["modules"]) == 2


def test_mixed_family_rejects_bad_params():
    with pytest.raises(ValueError):
        verify_mixed_family(2, 1, 0)
    with pytest.raises(ValueError):
        verify_mixed_family(2, 2, 2)


def test_power_family_a2_all_modules_are_coinvariants():
    # at a = 2 every module of the pure family is the coinvariant quotient
    report = verify_power_family(3, 2)
    assert report["passed"]
    ring = RingSpec(3, True)
    z = Polynomial.variable(ring, "z")
    coinv = Ideal(ring, [sym_e(ring, 1), sym_e(ring, 2), sym_e(ring, 3), z])
    target = coinv.canonical_str()
    assert all(m["annihilator"] == target for m in report["modules"])


def test_annihilator_contains_denominator():
    I = power_family_ideal(2, 3)
    chain = csm_chain(I)
    for mod in central_simple_modules(chain):
        g = sym_e(I.ring, mod.index - 1)
        predicted = member_block(I.ring, 2, mod.index - 1)
        report = cyclic_presentation(mod.numerator, mod.denominator, g, predicted)
        assert report["passed"]
        assert predicted.contains_ideal(mod.denominator)


def _counting_colon(monkeypatch):
    """Record every colon derived by kernel lifting."""
    calls = []
    lift = ideals._colon_artinian

    def counting(I, f):
        calls.append(f)
        return lift(I, f)

    monkeypatch.setattr(ideals, "_colon_artinian", counting)
    return calls


def _leading_monomial_ideal(I):
    return Ideal(I.ring, [Polynomial.monomial(I.ring, lm) for lm in I.leading_exponents()])


def _wrong_predictions(ring, a, m):
    """Two wrong predictions of A_n(a-1, m)R + (v), each with the condition
    that rejects it: A_n(a, m)R + (v) has the wrong Hilbert function, and
    the initial ideal of the true one is not inside the colon."""
    true = member_block(ring, a - 1, m)
    return [(member_block(ring, a, m), "hilbert_function"),
            (_leading_monomial_ideal(true), "containment")]


def test_cyclic_presentation_names_failed_condition(monkeypatch):
    calls = _counting_colon(monkeypatch)
    I = power_family_ideal(2, 3)
    mod = central_simple_modules(csm_chain(I))[1]
    g = sym_e(I.ring, mod.index - 1)
    for wrong, condition in _wrong_predictions(I.ring, 3, mod.index - 1):
        report = cyclic_presentation(mod.numerator, mod.denominator, g, wrong)
        assert report == {
            "presentation_ok": True,
            "dims_ok": condition == "containment",
            "annihilator_matches": False,
            "passed": False,
            "predicted_annihilator": wrong.canonical_str(),
            "failed_condition": condition,
        }
    assert calls == []


def test_colon_identity_names_failed_condition(monkeypatch):
    # (A_3(3, 1)R + (v)) : e_1 = A_3(2, 1)R + (v), predicted wrongly
    ring = RingSpec(3, True)
    build = csm.member_block
    for wrong, condition in _wrong_predictions(ring, 3, 1):
        monkeypatch.setattr(csm, "member_block",
                            lambda r, a, m, wrong=wrong: wrong if a == 2 else build(r, a, m))
        report = verify_colon_identity(3, 3, 0)
        assert not report["passed"]
        assert report["checks"][0] == {"name": "colon_equality", "passed": False,
                                       "failed_condition": condition,
                                       "expected": wrong.canonical_str()}


def test_colon_identity_names_failed_presentation(monkeypatch):
    # module 2 of the power family from degree 3 has numerator A_3(3, 0)R + (v);
    # its initial ideal has the same Hilbert function, so only the
    # presentation num = den + (e_1) rejects it
    ring = RingSpec(3, True)
    build = csm.member_block
    wrong = _leading_monomial_ideal(build(ring, 3, 0))
    monkeypatch.setattr(csm, "member_block",
                        lambda r, a, m: wrong if (a, m) == (3, 0) else build(r, a, m))
    report = verify_colon_identity(3, 3, 0)
    assert not report["passed"]
    assert report["checks"][0] == {"name": "colon_equality", "passed": False,
                                   "failed_condition": "presentation",
                                   "expected": build(ring, 2, 1).canonical_str()}


def test_family_and_identity_verifiers_derive_no_colon(monkeypatch):
    calls = _counting_colon(monkeypatch)
    assert verify_power_family(2, 3)["passed"]
    assert verify_mixed_family(3, 2, 1)["passed"]
    assert verify_chain_blocks("f", 2, 3)["passed"]
    assert verify_chain_blocks("g", 3, 2, 1)["passed"]
    assert verify_colon_identity(3, 2, 0)["passed"]
    assert verify_colon_identity(3, 3, None)["passed"]
    assert member_csm_arrows(family_member(3, 4, 3))[1]["passed"]
    assert calls == []


# --- generator swaps -------------------------------------------------------------------


def test_swap_f_2_2_and_3_2():
    assert verify_generator_swap("f", 2, 2)["passed"]
    assert verify_generator_swap("f", 3, 2)["passed"]


def test_swap_g_3_2_2():
    assert verify_generator_swap("g", 3, 2, 2)["passed"]


def test_swap_requires_a_at_least_two():
    with pytest.raises(ValueError):
        verify_generator_swap("f", 2, 1)


def test_kind_f_refuses_a_b():
    # kind f has no b, so the library refuses one as the command line does
    for verify in (verify_generator_swap, verify_chain_blocks):
        with pytest.raises(InvalidInput, match="kind f has no b parameter"):
            verify("f", 2, 2, 7)
    assert csm.boundary_top("f", 3, None) == 3


# --- colon identities -------------------------------------------------------------------


def test_colon_identity_top_case_2_2():
    report = verify_colon_identity(2, 2, None)
    assert report["passed"]


def test_colon_identity_s_cases():
    assert verify_colon_identity(3, 2, 0)["passed"]
    assert verify_colon_identity(3, 3, 1)["passed"]


def test_colon_identity_range():
    with pytest.raises(ValueError):
        verify_colon_identity(3, 2, 2)


# --- chain blocks ------------------------------------------------------------------------


def test_chain_blocks_f():
    report = verify_chain_blocks("f", 2, 2)
    assert report["passed"]
    assert [e["exponents"] for e in report["chain"]] == [[0, 1], [2, 3], [4, 5], [6, 6]]


def test_chain_blocks_f_univariate():
    report = verify_chain_blocks("f", 1, 3)
    assert report["passed"]
    assert [e["exponents"] for e in report["chain"]] == [[0, 2], [3, 5], [6, 6]]


def test_chain_blocks_g_2_2_1():
    report = verify_chain_blocks("g", 2, 2, 1)
    assert report["passed"]
    # b_0 attained only at exponent 0 since n - b - 1 = 0; then c_k = 1, 3, 5
    assert [e["exponents"] for e in report["chain"]] == [[0, 0], [1, 2], [3, 4], [5, 5]]


def test_chain_strictness_dims():
    report = verify_chain_blocks("f", 2, 3)
    dims = next(c for c in report["checks"] if c["name"] == "strict_inclusions")["dims"]
    assert dims == sorted(dims, reverse=True)
    assert len(set(dims)) == len(dims)


# --- terminal module and filtration ----------------------------------------------------


def test_terminal_csm_single_module_case():
    report = verify_terminal_csm(power_family_ideal(2, 1))
    assert report["passed"]
    names = [c["name"] for c in report["checks"]]
    assert "single_module" in names
    assert "module_is_quotient_by_variable" in names


def test_terminal_csm_monomial():
    R1Z = RingSpec(1, True)
    report = verify_terminal_csm(Ideal.from_strings(R1Z, ["x1^2", "z^2"]))
    assert report["passed"]


def test_terminal_csm_power_family():
    assert verify_terminal_csm(power_family_ideal(2, 2))["passed"]


def test_filtration_grid():
    for n, a in [(1, 2), (2, 2), (2, 3)]:
        report = filtration_check(power_family_ideal(n, a))
        assert report["passed"], report
    for n, a, b in [(2, 2, 0), (2, 2, 1), (3, 2, 1)]:
        report = filtration_check(mixed_family_ideal(n, a, b))
        assert report["passed"], report


def test_colon_chain_matches_the_jordan_type_of_the_last_variable():
    # the kernel of x v^d on A_i is (I : v^d)_i / I_i, so its rank is
    # HF(R/(I : v^d))_i: the colon chain read off the Jordan type of v,
    # on every thm53 default member, including the maps into zero degrees
    n_max, a_max = cli.thm53_bounds()
    for n in range(1, n_max + 1):
        for member in family_members(n, a_max):
            A = build_quotient(member.ideal)
            c = A.socle_degree
            v = Polynomial.variable(A.ring, n - 1)
            for d in range(1, c + 2):
                hf = hf_of(colon_by_variable_power(member.ideal, d))
                for i in range(c + 1):
                    rank = linalg.rank(mult_map_matrix(A, v ** d, i).entries) if i + d <= c else 0
                    assert rank == (hf[i] if i < len(hf) else 0), (member.label, d, i)
