"""Family constructors, children, tree conditions, arrows, export."""

import gc
import json
import re
from fractions import Fraction
from math import prod

import pytest

from citree import cli, csm, ideals, linalg, tree
from citree.csm import (
    central_simple_modules,
    csm_chain,
    cyclic_presentation,
    member_ideal,
    predicted_member,
    sym_e,
)
from citree.draw import csm_diagram, export_dot, export_json, tree_graph
from citree.ideals import (
    Ideal,
    NotArtinian,
    add_last_variable,
    colon_by_variable_power,
    extend_with_last_variable,
    hf_of,
    ideal_colon,
    ideal_equal,
    ideal_sum,
    normal_form,
    quotient_dimension,
    require_artinian,
    standard_monomials_of_degree,
)
from citree.lefschetz import LefschetzReport, module_slp_search, module_view, slp_check_module
from citree.parse import parse_polynomial
from citree.polyring import InvalidInput, Polynomial, RingSpec
from citree.quotient import build_quotient
from citree.symfun import symmetric_generator
from citree.tree import (
    certify_complete_intersection,
    children,
    colon_closure_family,
    contract_modulo_last,
    exact_sequence_check,
    family_member,
    family_members,
    member_csm_arrows,
    member_label,
    minimal_generator_degrees,
    resolve_member_label,
    verify_family_slp,
    verify_tree_conditions,
)

R1 = RingSpec(1)
R2 = RingSpec(2)
R3 = RingSpec(3)


# --- members -------------------------------------------------------------------


def test_member_examples():
    m = family_member(2, 1, 2)
    assert quotient_dimension(m.ideal) == 2
    m = family_member(3, 3, 3)
    assert quotient_dimension(m.ideal) == 60
    m = family_member(3, 2, 1)
    gens = [str(g) for g in m.ideal.generators]
    assert gens[0] == "x1^2 + x2^2 + x3^2"
    assert len(gens) == 3


def test_member_validation():
    with pytest.raises(ValueError):
        family_member(2, 1, 1)  # a = 1 forces m = n
    with pytest.raises(ValueError):
        family_member(2, 0, 2)
    with pytest.raises(ValueError):
        family_member(2, 2, 3)


def test_member_label_subscripts():
    assert member_label(5, 8, 3) == "₅8₃"
    assert member_label(3, 6, 2) == "₃6₂"


def test_family_members_count():
    # a = 1 member plus the (a, m) grid
    assert len(family_members(3, 4)) == 1 + 3 * 3
    assert len(family_members(1, 4)) == 1 + 3


# --- children -------------------------------------------------------------------


def test_children_squares():
    I = Ideal.from_strings(R2, ["x1^2", "x2^2"])
    left, right = children(I)
    assert ideal_equal(left, Ideal.from_strings(R2, ["x1^2", "x2"]))
    assert right.ring == R1
    assert ideal_equal(right, Ideal.from_strings(R1, ["x1^2"]))


def test_children_power_sums_right():
    gens = [symmetric_generator("p", 2, 2), symmetric_generator("p", 2, 3)]
    I = Ideal(R2, gens)
    _, right = children(I)
    assert ideal_equal(right, Ideal.from_strings(R1, ["x1^2"]))


def test_no_left_child_when_variable_inside():
    I = Ideal.from_strings(R2, ["x1^2", "x2"])
    left, right = children(I)
    assert left is None
    assert ideal_equal(right, Ideal.from_strings(R1, ["x1^2"]))


def test_right_child_literal_condition():
    # I + (xn) = (extended J) + (xn) for the contraction J
    gens = [symmetric_generator("p", 2, 2), symmetric_generator("p", 2, 3)]
    I = Ideal(R2, gens)
    _, J = children(I)
    xn = Polynomial.variable(R2, 1)
    lhs = ideal_sum(I, Ideal(R2, [xn]))
    rhs = ideal_sum(Ideal(R2, [g.extend(R2) for g in J.generators]), Ideal(R2, [xn]))
    assert ideal_equal(lhs, rhs)


def test_left_child_saturation_to_unit():
    # once xn lies in (I : xn^i) the next colon is everything
    I = Ideal.from_strings(R2, ["x1^2", "x2^2"])
    step = colon_by_variable_power(I, 1)
    assert normal_form(Polynomial.variable(R2, 1), step).is_zero()
    assert colon_by_variable_power(I, 2).is_unit()


# --- exact sequence ---------------------------------------------------------------


def child_hfs(I):
    """HF of R/(I : v) and R/(I + (v)), the two sides of the child split."""
    return hf_of(colon_by_variable_power(I, 1)), hf_of(add_last_variable(I))


def test_exact_sequence_squares():
    I = Ideal.from_strings(R2, ["x1^2", "x2^2"])
    assert exact_sequence_check(I) is True
    assert hf_of(I) == (1, 2, 1)
    assert child_hfs(I) == ((1, 1), (1, 1))


def test_exact_sequence_power_family():
    from citree.csm import power_family_ideal

    I = power_family_ideal(2, 2)
    assert exact_sequence_check(I) is True
    left, right = child_hfs(I)
    assert (sum(hf_of(I)), sum(left), sum(right)) == (24, 18, 6)


def test_exact_sequence_degenerate():
    I = Ideal.from_strings(R2, ["x1^2", "x2"])
    assert exact_sequence_check(I) is True
    assert child_hfs(I)[0] == ()  # colon is the unit ideal


# --- minimal generators and complete intersection certification ---------------------


def test_minimal_generator_degrees():
    I = Ideal.from_strings(R2, ["x1^2", "x2^3"])
    assert minimal_generator_degrees(I) == [2, 3]
    gens = [symmetric_generator("p", 2, 2), symmetric_generator("p", 2, 3)]
    assert minimal_generator_degrees(Ideal(R2, gens)) == [2, 3]


def _rank_generator_degrees(I):
    """Reference: the number of degree-d minimal generators is dim I_d minus
    the rank of the variables times a basis of I_(d-1), read from the
    normal form of every monomial of degree d."""
    basis = require_artinian(I)
    ring = I.ring
    width = ring.total_vars
    degs = []
    prev = []
    for d in range(len(basis) + 1):
        monos = standard_monomials_of_degree([], width, d)
        std = set(basis[d]) if d < len(basis) else set()
        index = {m: i for i, m in enumerate(monos)}
        cur = [Polynomial.monomial(ring, m) - normal_form(Polynomial.monomial(ring, m), I)
               for m in monos if m not in std]
        rows = []
        for f in prev:
            for v in range(width):
                row = [Fraction(0)] * len(monos)
                for mono, c in (f * Polynomial.variable(ring, v)).terms:
                    row[index[mono]] = c
                rows.append(row)
        degs.extend([d] * (len(cur) - (linalg.rank(rows) if rows else 0)))
        prev = cur
    return degs


def test_minimal_generator_degrees_match_rank_oracle():
    ideals_ = [e["ideal"] for n in (1, 2, 3) for e in tree.monomial_ci_family(n, 3)]
    ideals_ += [e["ideal"] for n in (1, 2) for e in colon_closure_family(n, 3)]
    ideals_ += [Ideal.from_strings(R2, ["x1^2", "x1*x2", "x2^2"]),
                Ideal.from_strings(RingSpec(1, True), ["x1^2 + z^2", "x1*z"])]
    for I in ideals_:
        assert minimal_generator_degrees(I) == _rank_generator_degrees(I), I
    assert minimal_generator_degrees(ideals_[-2]) == [2, 2, 2]
    open_ideal = Ideal.from_strings(R2, ["x1^2", "x1*x2"])
    with pytest.raises(InvalidInput, match=re.escape(f"{open_ideal} is not Artinian")):
        minimal_generator_degrees(open_ideal)


def test_minimal_generators_of_colon():
    gens = [symmetric_generator("p", 2, 2), symmetric_generator("p", 2, 3)]
    I = colon_by_variable_power(Ideal(R2, gens), 1)
    assert certify_complete_intersection(I)


def test_non_ci_detected():
    I = Ideal.from_strings(R2, ["x1^2", "x1*x2", "x2^2"])
    assert not certify_complete_intersection(I)
    # not Artinian: quotient_dimension refuses it, and the certificate says no
    assert not certify_complete_intersection(Ideal.from_strings(R2, ["x1^2"]))


# --- family enumerations and conditions ------------------------------------------------


def test_colon_closure_family_small():
    members = colon_closure_family(1, 2)
    # (x1^a) : x1^i for a <= 2, 0 <= i <= a-1
    dims = sorted(quotient_dimension(m["ideal"]) for m in members)
    assert dims == [1, 1, 2]


def test_colon_closure_family_contains_base_members():
    members = colon_closure_family(2, 2)
    base = Ideal(R2, [symmetric_generator("p", 2, 2), symmetric_generator("p", 2, 3)])
    assert any(m["i"] == 0 and ideal_equal(m["ideal"], base) for m in members)
    mixed = Ideal(R2, [symmetric_generator("p", 2, 2), symmetric_generator("e_signed", 2, 2)])
    assert any(m["kind"] == "mixed" and m["i"] == 0 and ideal_equal(m["ideal"], mixed)
               for m in members)


def test_verify_tree_conditions_monomial():
    report = verify_tree_conditions(*cli.tree_bounds("monomial"))
    assert report["passed"], report


def test_verify_tree_conditions_colon_closure():
    report = verify_tree_conditions(*cli.tree_bounds("colon-closure"))
    assert report["passed"], report


def test_left_child_of_colon_member_stays_in_family():
    base = Ideal(R2, [symmetric_generator("p", 2, 2), symmetric_generator("p", 2, 3)])
    first = colon_by_variable_power(base, 1)
    second = colon_by_variable_power(base, 2)
    left, _ = children(first)
    assert ideal_equal(left, second)
    pool = colon_closure_family(2, 2)
    assert any(ideal_equal(m["ideal"], left) for m in pool)


# --- arrows -----------------------------------------------------------------------------


def test_arrows_level_3():
    arrows, rep = member_csm_arrows(family_member(3, 6, 3))
    assert rep["passed"]
    assert [t.label for _, t in arrows] == ["₂1₂", "₂5₁", "₂5₂"]


def test_arrow_sets_coincide_for_adjacent_members():
    a3, _ = member_csm_arrows(family_member(3, 6, 3))
    a2, _ = member_csm_arrows(family_member(3, 6, 2))
    assert [t.label for _, t in a3] == [t.label for _, t in a2]


def test_arrows_a2_collapse():
    arrows, rep = member_csm_arrows(family_member(3, 2, 2))
    assert rep["passed"]
    assert set(t.label for _, t in arrows) == {"₂1₂"}
    assert len(arrows) == 3


def test_coinvariant_chain_arrows():
    arrows, rep = member_csm_arrows(family_member(3, 1, 3))
    assert rep["passed"]
    assert [t.label for _, t in arrows] == ["₂1₂"]


def test_certified_arrows_match_derived_colons():
    # the kernel-colon route: derive each annihilator, contract it below xn
    # and look it up by exact ideal equality
    for member in family_members(3, 4):
        arrows, rep = member_csm_arrows(member)
        assert rep["passed"]
        I = member.ideal
        expected = []
        for mod in central_simple_modules(csm_chain(I)):
            g = sym_e(I.ring, mod.index - 1)
            contracted = contract_modulo_last(ideal_colon(mod.denominator, g))
            target = resolve_member_label(contracted, 2, max(member.a, 2))
            expected.append((mod.index, target.label))
        assert [(j, t.label) for j, t in arrows] == expected


def _module_2_of_a3_4_3():
    """Module j = 2 of A_3(4, 3), its generator e_1 and J'R + (v) for a
    level-two member J'."""
    member = family_member(3, 4, 3)
    ring = member.ideal.ring
    mod = central_simple_modules(csm_chain(member.ideal))[1]

    def lifted(below):
        return extend_with_last_variable(below.ideal, ring)

    return mod, sym_e(ring, mod.index - 1), lifted


def _certify(mod, g, annihilator):
    return cyclic_presentation(mod.numerator, mod.denominator, g, annihilator)


def test_annihilator_certificate_needs_containment():
    # A_2(2, 2) has the Hilbert function of the true annihilator A_2(3, 1),
    # so only g*J inside den rejects it
    mod, g, lifted = _module_2_of_a3_4_3()
    right, wrong = family_member(2, 3, 1), family_member(2, 2, 2)
    assert hf_of(right.ideal) == hf_of(wrong.ideal) == (1, 2, 2, 1)
    assert _certify(mod, g, lifted(right))["passed"]
    report = _certify(mod, g, lifted(wrong))
    assert report["presentation_ok"] and report["dims_ok"]
    assert report["failed_condition"] == "containment"


def test_arrow_target_needs_the_module_hilbert_function():
    # A_2(4, 1) lies inside the true annihilator A_2(3, 1) (p_4 = e_1 p_3 -
    # e_2 p_2), so g*J inside den holds, and only the Hilbert-function
    # comparison rejects the target
    mod, g, lifted = _module_2_of_a3_4_3()
    smaller = lifted(family_member(2, 4, 1))
    assert lifted(family_member(2, 3, 1)).contains_ideal(smaller)
    assert all(mod.denominator.contains(g * h) for h in smaller.generators)
    report = _certify(mod, g, smaller)
    assert report["presentation_ok"] and not report["dims_ok"]
    assert report["failed_condition"] == "hilbert_function"


def test_no_predicted_target_beyond_the_level():
    # A_2(5, 3) does not exist, so a fourth module of A_3(6, 3) has no target
    assert predicted_member(2, 6, 3) is None
    assert predicted_member(2, 6, 2) == (5, 2)
    # below a = 3 and for module 1 the prediction is the coinvariant member
    assert predicted_member(2, 2, 2) == predicted_member(2, 6, 0) == (1, 2)


def test_module_beyond_the_level_has_no_member(monkeypatch):
    # a module the prediction cannot place gets no target and no presentation
    predicted = csm.predicted_member
    monkeypatch.setattr(csm, "predicted_member", lambda k, a, s:
                        None if s == 1 else predicted(k, a, s))
    arrows, rep = member_csm_arrows(family_member(3, 4, 3))
    assert not rep["passed"]
    assert rep["modules"][1] == {"j": 2, "target": None, "predicted": None,
                                 "failed_condition": "no_member"}
    assert [j for j, _ in arrows] == [1, 3]


def test_wrong_prediction_has_no_target(monkeypatch):
    predicted = csm.predicted_member
    monkeypatch.setattr(csm, "predicted_member", lambda k, a, s:
                        (2, 2) if s == 1 else predicted(k, a, s))
    arrows, rep = member_csm_arrows(family_member(3, 4, 3))
    assert not rep["passed"]
    assert [m["target"] for m in rep["modules"]] == [
        member_label(2, 1, 2), None, member_label(2, 3, 2)]
    assert rep["modules"][1]["predicted"] == member_label(2, 2, 2)
    assert [j for j, _ in arrows] == [1, 3]


def test_failed_presentation_names_the_prediction(monkeypatch):
    # with e_j in place of e_(j-1) no module is presented cyclically, and
    # each entry names the member it was predicted to land on
    monkeypatch.setattr(csm, "sym_e", lambda ring, i: sym_e(ring, i + 1))
    member = family_member(3, 4, 3)
    arrows, rep = member_csm_arrows(member)
    assert not rep["passed"] and arrows == []
    for entry in rep["modules"]:
        assert entry["target"] is None and not entry["presentation"]
        key = predicted_member(2, member.a, entry["j"] - 1)
        assert entry["predicted"] == member_label(2, *key)
        assert entry["failed_condition"] == "presentation"


def test_resolve_label():
    member = family_member(2, 5, 1)
    assert resolve_member_label(member.ideal, 2, 5).label == member.label
    assert resolve_member_label(Ideal.from_strings(R2, ["x1", "x2"]), 2, 3) is None


def test_resolve_label_every_level_three_member():
    for member in family_members(3, 5):
        assert resolve_member_label(member.ideal, 3, 5).label == member.label


def test_members_list_standard_monomials_only_for_readers(monkeypatch):
    # a member is certified from its leading monomials; its standard
    # monomials are listed once, by the first reader that needs them
    calls = []
    original = ideals.standard_monomials_of_degree

    def counting(lms, width, d):
        calls.append((tuple(lms), d))
        return original(lms, width, d)

    monkeypatch.setattr(ideals, "standard_monomials_of_degree", counting)
    member_ideal.cache_clear()
    member = family_member(3, 4, 2)
    assert calls == []
    own = tuple(member.ideal.leading_exponents())
    assert quotient_dimension(member.ideal) == 4 * 5 * 3
    socle = len(hf_of(member.ideal)) - 1
    # degrees 0..socle, then the empty degree socle + 1 that ends the listing
    assert calls == [(own, d) for d in range(socle + 2)]
    calls.clear()
    lifted = csm.member_block(RingSpec(3, True), 4, 2)
    assert hf_of(lifted) == hf_of(member.ideal)
    assert calls == []

    member_ideal.cache_clear()
    fresh = family_member(3, 4, 2).ideal
    assert fresh is not member.ideal
    calls.clear()
    csm.csm_chain(fresh)
    assert calls and all(lms != own for lms, _ in calls)
    # lifting an unlisted member lists the member's own degrees, once, and
    # the lift carries them
    calls.clear()
    assert hf_of(csm.member_block(RingSpec(3, True), 4, 2)) == hf_of(member.ideal)
    assert calls == [(own, d) for d in range(socle + 2)]

    flat = Ideal.from_strings(RingSpec(2), ["x1^2", "x1*x2"])
    calls.clear()
    with pytest.raises(NotArtinian) as chain_refusal:
        csm.csm_chain(flat)
    with pytest.raises(NotArtinian) as refusal:
        require_artinian(Ideal.from_strings(RingSpec(2), ["x1^2", "x1*x2"]))
    assert str(chain_refusal.value) == str(refusal.value)
    assert chain_refusal.value.variable == refusal.value.variable == "x2"
    assert calls == []


def test_enumerations_leave_no_reference_cycles():
    # a listing and the monomial CI family recurse through module-level
    # helpers, so with the cyclic collector off their output is freed by
    # reference counts alone
    gc.collect()
    gc.disable()
    try:
        assert standard_monomials_of_degree([(2, 0), (1, 2)], 2, 3) == [(0, 3)]
        assert gc.collect() == 0
        assert len(tree.monomial_ci_family(2, 3)) == 9
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_member_table_builds_each_member_once(monkeypatch):
    # a second run of the same grid reads every member from the table, and
    # the Groebner cache holds every other basis, so Buchberger never runs
    member_ideal.cache_clear()
    first = verify_family_slp(2, 3)
    misses = member_ideal.cache_info().misses
    runs = []
    build = ideals._buchberger
    monkeypatch.setattr(ideals, "_buchberger", lambda *a, **k: runs.append(a) or build(*a, **k))
    assert verify_family_slp(2, 3) == first
    assert member_ideal.cache_info().misses == misses
    assert runs == []


def test_member_table_refuses_a_failed_certificate(monkeypatch):
    # the table is the one member certificate: a member that fails it is
    # never returned, and family_member raises the same AssertionError
    monkeypatch.setattr(csm, "certify_regular_sequence", lambda ideal: False)
    member_ideal.cache_clear()
    try:
        with pytest.raises(AssertionError, match=re.escape("family member (2,3,1) failed")):
            member_ideal(2, 3, 1)
        with pytest.raises(AssertionError, match=re.escape("family member (2,1,2) failed")):
            family_member(2, 1, 2)
    finally:
        member_ideal.cache_clear()


def test_member_table_is_certified():
    # the dimension of every member is the product of its generator degrees
    member_ideal.cache_clear()
    for n in range(1, 4):
        for a in range(1, 6):
            for m in range(n + 1):
                ideal = member_ideal(n, a, m)
                assert quotient_dimension(ideal) == prod(g.degree() for g in ideal.generators)


def test_member_hilbert_functions_have_closed_form():
    # a complete intersection of degrees d_1..d_n has the Hilbert series
    # prod_i (1 + t + ... + t^(d_i - 1)), degree by degree, not only in sum
    for n in range(1, 4):
        for a in range(1, 6):
            for m in range(n + 1):
                ideal = member_ideal(n, a, m)
                series = [1]
                for g in ideal.generators:
                    d = g.degree()
                    series = [sum(series[j - k] for k in range(d) if 0 <= j - k < len(series))
                              for j in range(len(series) + d - 1)]
                assert hf_of(ideal) == tuple(series), (n, a, m)


def test_coinvariant_members_share_one_entry():
    # A_n(1, m) and A_n(a, 0) are (e_1..e_n) by Newton's identities
    for n in range(1, 4):
        coinvariant = member_ideal(n, 1, 0)
        assert [str(g) for g in coinvariant.generators] == [
            str(symmetric_generator("e_signed", n, i)) for i in range(1, n + 1)]
        for m in range(n + 1):
            assert member_ideal(n, 1, m) is coinvariant
        for a in range(5):
            assert member_ideal(n, a, 0) is coinvariant
    assert family_member(3, 1, 3).ideal is member_ideal(3, 1, 0)


def test_depth_five_roots_fan_out():
    # the two depth-five roots of the published diagram: four arrows each,
    # onto the coinvariant member and the next lower family column
    arrows, rep = member_csm_arrows(family_member(5, 3, 3))
    assert rep["passed"]
    assert [t.label for _, t in arrows] == [
        member_label(4, 1, 4), member_label(4, 2, 1),
        member_label(4, 2, 2), member_label(4, 2, 3),
    ]
    arrows, rep = member_csm_arrows(family_member(5, 8, 3))
    assert rep["passed"]
    assert [t.label for _, t in arrows] == [
        member_label(4, 1, 4), member_label(4, 7, 1),
        member_label(4, 7, 2), member_label(4, 7, 3),
    ]


def test_verify_family_slp_small():
    report = verify_family_slp(2, 3, check_modules=True)
    assert report["passed"], report
    labels = [m["label"] for m in report["members"]]
    assert member_label(2, 2, 1) in labels
    for member in report["members"]:
        assert member["slp"]


def test_module_slp_fails_with_its_target(monkeypatch):
    # with no Lefschetz element found for A_1(2, 1), the arrows into it
    # fail; skipping the module checks keeps them
    find = tree.find_lefschetz_element

    def search(A, **kw):
        if (A.ring.total_vars, sum(hf_of(A.ideal))) != (1, 2):
            return find(A, **kw)
        failed = LefschetzReport(str(A.ideal), None, False, [], hf_of(A.ideal), 0, 1)
        return None, failed

    monkeypatch.setattr(tree, "find_lefschetz_element", search)
    for check_modules in (True, False):
        report = verify_family_slp(2, 3, check_modules=check_modules)
        entries = {m["label"]: m for m in report["members"]}
        assert not report["passed"] and not entries[member_label(1, 2, 1)]["slp"]
        assert [a["to"] for a in entries[member_label(2, 3, 1)]["arrows"]] == [
            member_label(1, 1, 1), member_label(1, 2, 1)]
        assert entries[member_label(2, 3, 1)]["arrows_ok"] is not check_modules
        assert entries[member_label(2, 2, 1)]["arrows_ok"]


def test_module_slp_is_the_target_members_verdict():
    # oracle: search every certified module directly through its view of
    # R/(J'R + (xn)), and lift the target J''s own Lefschetz element to it
    report = verify_family_slp(2, 3)
    entries = {m["label"]: m for m in report["members"]}
    checked = 0
    for member in family_members(2, 3):
        I = member.ideal
        modules = central_simple_modules(csm_chain(I))
        for j, target in member_csm_arrows(member)[0]:
            view = module_view(build_quotient(modules[j - 1].denominator), sym_e(I.ring, j - 1),
                               csm.member_block(I.ring, target.a, target.m))
            assert module_slp_search(view)[1].holds == entries[target.label]["slp"]
            y = parse_polynomial(entries[target.label]["linear_form"], target.ideal.ring)
            assert slp_check_module(view, y.extend(I.ring)).holds
            checked += 1
    assert checked == sum(len(m["arrows"]) for m in report["members"] if m["n"] == 2) == 9


def test_reported_forms_have_a_nonzero_top_power():
    # the check reaches d = c, so y^c is not in I for every reported form
    report = verify_family_slp(*cli.thm53_bounds())
    assert len(report["members"]) == 21
    for entry in report["members"]:
        ideal = family_member(entry["n"], entry["a"], entry["m"]).ideal
        y = parse_polynomial(entry["linear_form"], ideal.ring)
        c = len(entry["hilbert"]) - 1
        assert not normal_form(y ** c, ideal).is_zero(), entry["label"]


# --- diagrams and export ------------------------------------------------------------------


def test_csm_diagram_from_level_2():
    graph = csm_diagram([family_member(2, 3, 2)])
    labels = {n["label"] for n in graph["nodes"]}
    assert member_label(2, 3, 2) in labels
    assert member_label(1, 1, 1) in labels
    assert member_label(1, 2, 1) in labels
    kinds = {e["kind"] for e in graph["edges"]}
    assert kinds == {"csm"}


def test_export_single_node():
    graph = csm_diagram([family_member(1, 2, 1)])
    dot = export_dot(graph)
    assert dot.startswith("digraph")
    assert member_label(1, 2, 1) in dot
    assert "->" not in dot


def test_export_empty():
    dot = export_dot({"nodes": [], "edges": []})
    assert dot == "digraph tree {\n  rankdir=TB;\n}\n"


def test_export_json_schema():
    graph = csm_diagram([family_member(2, 2, 2)])
    data = json.loads(export_json(graph))
    assert set(data) == {"nodes", "edges"}
    for node in data["nodes"]:
        assert set(node) == {"label", "level", "ideal", "hilbert"}
    for edge in data["edges"]:
        assert set(edge) == {"from", "to", "kind", "index"}


def test_binary_tree_export():
    graph = tree_graph(Ideal.from_strings(R2, ["x1^2", "x2^2"]), 2)
    dot = export_dot(graph)
    assert "style=dashed" in dot  # left edges
    assert "style=solid" in dot  # right edges
    labels = {n["label"] for n in graph["nodes"]}
    assert "root" in labels and "rootL" in labels and "rootR" in labels
