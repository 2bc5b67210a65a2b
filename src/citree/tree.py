"""The binary tree of complete intersections.

Members of the power-sum family A_n(a, m) live in K[x1..xn], each built
and certified once by csm.member_ideal; the left child of an ideal is
(I : xn) and the right child is the contraction of I + (xn) to one
variable fewer.  This module enumerates the families, verifies the
tree closure conditions on bounded enumerations, checks Hilbert-function
additivity of the child split, sends each central simple module to the
member J' one level down that the paper predicts for its annihilator,
certified by the module pass csm.certify_module (so the module has
the strong Lefschetz property exactly when R/J' does), and exports
diagrams as DOT or JSON.  Every dimension it reads is a Hilbert function
of the ideal layer (ideals.hf_of): the complete-intersection certificate
counts minimal generators by graded Nakayama, with no linear algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .csm import central_simple_modules, certify_module, csm_chain, member_ideal
from .ideals import (
    Ideal,
    add_last_variable,
    colon_by_variable_power,
    hf_difference,
    hf_of,
    ideal_equal,
    normal_form,
    quotient_dimension,
    shifted_hf_matches,
)
from .lefschetz import find_lefschetz_element
from .polyring import InvalidInput, Polynomial, RingSpec
from .quotient import build_quotient

_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def member_label(n: int, a: int, m: int) -> str:
    """Compact label with the level and column as subscripts:
    member_label(5, 3, 3) is '₅3₃'."""
    return f"{n}".translate(_SUB) + str(a) + f"{m}".translate(_SUB)


@dataclass(frozen=True)
class FamilyMember:
    n: int
    a: int
    m: int
    label: str
    ideal: Ideal


def family_member(n: int, a: int, m: int) -> FamilyMember:
    """A_n(a, m): m power sums of consecutive degrees starting at a,
    padded with e_(m+1)..e_n; a >= 2 except for the coinvariant member
    A_n(1, n) = (e_1..e_n); the ideal is the member table's
    (csm.member_ideal), which certifies it."""
    if n < 1 or not 1 <= m <= n:
        raise InvalidInput(f"invalid member level n={n}, m={m}")
    if a == 1 and m != n:
        raise InvalidInput("a = 1 requires m = n")
    if a < 1:
        raise InvalidInput(f"invalid a={a}")
    return FamilyMember(n, a, m, member_label(n, a, m), member_ideal(n, a, m))


def family_members(n: int, a_max: int):
    """All of A_n with a <= a_max: the a = 1 member plus the grid a >= 2."""
    return [family_member(n, 1, n)] + [family_member(n, a, m) for a in range(2, a_max + 1)
                                       for m in range(1, n + 1)]


# --- children ------------------------------------------------------------------


def _smaller_ring(ring: RingSpec) -> RingSpec:
    if ring.has_z:
        return RingSpec(ring.nvars, has_z=False)
    if ring.nvars < 2:
        raise ValueError("no smaller ring below one variable")
    return RingSpec(ring.nvars - 1, has_z=False)


def contract_modulo_last(I: Ideal) -> Ideal:
    """Contraction of I + (v) to the ring without the cheapest variable v."""
    return add_last_variable(I, _smaller_ring(I.ring))


def children(I: Ideal):
    """(left, right): (I : v) when v is not already in I, and the
    contraction of I + (v) when the ring has at least two variables."""
    v = Polynomial.variable(I.ring, I.ring.total_vars - 1)
    left = None
    if not normal_form(v, I).is_zero():
        left = colon_by_variable_power(I, 1)
    right = None
    if I.ring.total_vars >= 2:
        right = contract_modulo_last(I)
    return left, right


def exact_sequence_check(I: Ideal) -> dict:
    """Hilbert additivity of the child split: the v-multiplication embeds
    R/(I : v) shifted by one, with quotient R/(I + (v))."""
    hf = hf_of(I)
    hf_left = hf_of(colon_by_variable_power(I, 1))
    hf_right = hf_of(add_last_variable(I))
    ok = shifted_hf_matches(hf_difference(hf, hf_right), hf_left, 1)
    return {
        "verifier": "exact-sequence",
        "ideal": str(I),
        "hilbert": list(hf),
        "left": list(hf_left),
        "right": list(hf_right),
        "passed": ok,
    }


# --- complete intersection certification for computed ideals --------------------


def minimal_generator_degrees(I: Ideal):
    """Degrees of a minimal homogeneous generating set, by graded Nakayama:
    (I/mI)_d has dimension HF(R/mI)_d - HF(R/I)_d, with mI spanned by the
    variables times the reduced basis of I."""
    hf = hf_of(I)
    variables = [Polynomial.variable(I.ring, v) for v in range(I.ring.total_vars)]
    mI = Ideal(I.ring, [v * g for g in I.groebner_basis() for v in variables])
    return [d for d, fresh in enumerate(hf_difference(hf_of(mI), hf)) for _ in range(fresh)]


def certify_complete_intersection(I: Ideal) -> bool:
    """Artinian with exactly nvars minimal generators whose degree product
    is the quotient dimension."""
    dim = quotient_dimension(I)
    if dim is None:
        return False
    degs = minimal_generator_degrees(I)
    return len(degs) == I.ring.total_vars and prod(degs) == dim


# --- bounded family enumerations -------------------------------------------------


def monomial_ci_family(n: int, exp_max: int):
    """All (x1^a1, ..., xn^an) with 1 <= ai <= exp_max."""
    ring = RingSpec(n, has_z=False)
    out = []

    def rec(prefix):
        if len(prefix) == n:
            gens = [Polynomial.variable(ring, i) ** e for i, e in enumerate(prefix)]
            out.append({"ideal": Ideal(ring, gens), "exponents": tuple(prefix)})
            return
        for e in range(1, exp_max + 1):
            rec(prefix + [e])

    rec([])
    return out


def colon_closure_family(n: int, a_max: int):
    """The colon closures of the power-sum members: A_n(a, n) : xn^i for
    0 <= i <= an-1, and A_n(a, b) : xn^i for 0 < b < n and
    0 <= i <= (a-1)b + n - 1."""
    starts = [("pure", a, None, n, a * n) for a in range(1, a_max + 1)]
    starts += [("mixed", a, b, b, (a - 1) * b + n) for a in range(2, a_max + 1) for b in range(1, n)]
    out = []
    for kind, a, b, m, length in starts:
        cur = member_ideal(n, a, m)
        for i in range(length):
            out.append({"ideal": cur, "kind": kind, "a": a, "b": b, "i": i})
            cur = colon_by_variable_power(cur, 1)
    return out


def verify_tree_conditions(kind: str, n_max: int, bound: int) -> dict:
    """Closure of a bounded family enumeration under both children:
    the right child of every level-n member appears at level n-1, the
    left child (when it exists) stays at level n, and every member is a
    complete intersection of full length.  Hilbert additivity of the
    split is checked at every member."""
    if kind == "monomial":
        families = {n: monomial_ci_family(n, bound) for n in range(1, n_max + 1)}
    elif kind == "colon-closure":
        families = {n: colon_closure_family(n, bound) for n in range(1, n_max + 1)}
    else:
        raise InvalidInput(f"unknown family kind {kind!r}")
    report = {"verifier": "tree-conditions", "params": {"kind": kind, "n_max": n_max, "bound": bound}}
    checks = []
    counts = {n: len(families[n]) for n in families}
    report["family_sizes"] = counts
    # equal ideals have equal reduced bases, which Ideal hashes and compares
    levels = {n: {entry["ideal"] for entry in families[n]} for n in families}
    for n in range(1, n_max + 1):
        for entry in families[n]:
            I = entry["ideal"]
            name = f"n{n}:{entry}"
            ci_ok = certify_complete_intersection(I)
            exact_ok = exact_sequence_check(I)["passed"]
            left, right = children(I)
            left_ok = left is None or left in levels[n]
            right_ok = right is None or right in levels[n - 1]
            ok = ci_ok and exact_ok and left_ok and right_ok
            if not ok:
                checks.append({
                    "name": name, "passed": False, "ci": ci_ok,
                    "exact_sequence": exact_ok, "left": left_ok, "right": right_ok,
                })
    checks.append({"name": "all_members", "passed": not any(not c["passed"] for c in checks),
                   "members": sum(counts.values())})
    report["checks"] = checks
    report["passed"] = all(c["passed"] for c in checks)
    return report


# --- central simple module arrows -------------------------------------------------


def resolve_member_label(ideal: Ideal, n: int, a_bound: int):
    """The first of family_members(n, a_bound) equal to the ideal, or None;
    members of another certified dimension are skipped unseen."""
    dim = quotient_dimension(ideal)
    for cand in family_members(n, a_bound):
        if quotient_dimension(cand.ideal) == dim and ideal_equal(cand.ideal, ideal):
            return cand
    return None


def member_csm_arrows(member: FamilyMember):
    """Certified arrows from one member to the members one level down.

    The module pass (csm.certify_module) certifies module j of (A, xn)
    by e_(j-1) against J'R + (xn), J' the paper's predicted member
    (csm.predicted_member); its arrow goes to J' when the certificate
    holds, and module j is then R/(J'R + (xn)) moved up by j - 1, an
    algebra isomorphic to R'/J' (R' = K[x1..x_(n-1)]).  Otherwise it has
    no target, and its entry names the predicted member and the failed
    condition, or "no_member" when j - 1 exceeds n - 1."""
    n = member.n
    if n < 2:
        return [], {"passed": True, "modules": []}
    I = member.ideal
    arrows = []
    details = []
    passed = True
    for mod in central_simple_modules(csm_chain(I)):
        j = mod.index
        key, _, sub = certify_module(I.ring, member.a, j, mod.numerator, mod.denominator)
        if key is None:
            details.append({"j": j, "target": None, "predicted": None,
                            "failed_condition": sub["failed_condition"]})
            passed = False
            continue
        target = family_member(n - 1, *key)
        entry = {"j": j, "presentation": sub["presentation_ok"], "target": None}
        details.append(entry)
        if not sub["passed"]:
            entry.update(predicted=target.label, failed_condition=sub["failed_condition"])
            passed = False
            continue
        entry["target"] = target.label
        arrows.append((j, target))
    return arrows, {"passed": passed, "modules": details}


def verify_family_slp(n_max: int, a_max: int, check_modules: bool = True, seed: int = 0) -> dict:
    """Every family member up to the bounds admits a Lefschetz element with
    all power maps of full rank, and its central simple modules land in
    the family one level down.

    With check_modules, every module also has the strong Lefschetz
    property: module j of a member is R/(J'R + (xn)) for its certified
    target J' (member_csm_arrows), and R/(J'R + (xn)) is R'/J' as a
    graded algebra (xn acts as zero, so a linear form of R acts through
    its image in R' = K[x1..x_(n-1)]); its SLP is therefore the target's
    verdict.  J' is a member with n - 1 variables and a - 1 <= a_max, or
    the coinvariant member, so the same loop has checked it earlier, on
    the same power maps 1 <= d <= c.  arrows_ok is then "every arrow
    certified and every target's slp true"."""
    report = {"verifier": "family-slp", "params": {"n_max": n_max, "a_max": a_max},
              "seed": seed, "members": []}
    ok_all = True
    slp = {}  # label -> verdict of every member checked so far
    for n in range(1, n_max + 1):
        for member in family_members(n, a_max):
            A = build_quotient(member.ideal)
            found = find_lefschetz_element(A, seed=seed)
            entry = {
                "label": member.label,
                "n": n, "a": member.a, "m": member.m,
                "dimension": A.dimension(),
                "hilbert": list(A.hilbert_function()),
                "slp": found is not None,
            }
            slp[member.label] = entry["slp"]
            if found is not None:
                y, rep = found
                entry["linear_form"] = str(y)
                entry["tries"] = rep.tries
            arrows, arrow_report = member_csm_arrows(member)
            arrows_ok = arrow_report["passed"]
            if check_modules:
                arrows_ok = arrows_ok and all(slp[t.label] for _, t in arrows)
            if n >= 2:
                entry["arrows"] = [{"j": j, "to": t.label} for j, t in arrows]
                entry["arrows_ok"] = arrows_ok
            ok_all = ok_all and entry["slp"] and arrows_ok
            report["members"].append(entry)
    report["passed"] = ok_all
    return report


def csm_diagram(roots) -> dict:
    """Arrow diagram spanned by iterating central-simple-module arrows from
    the given members down to one variable."""
    nodes = {}
    edges = []
    queue = list(roots)
    all_ok = True
    while queue:
        member = queue.pop(0)
        if member.label in nodes:
            continue
        hf = list(hf_of(member.ideal))
        nodes[member.label] = {
            "label": member.label,
            "level": member.n,
            "ideal": str(member.ideal),
            "hilbert": hf,
        }
        if member.n < 2:
            continue
        arrows, rep = member_csm_arrows(member)
        all_ok = all_ok and rep["passed"]
        for j, target in arrows:
            edges.append({"from": member.label, "to": target.label, "kind": "csm", "index": j})
            queue.append(target)
    edges.sort(key=lambda e: (-nodes[e["from"]]["level"], e["from"], e["index"]))
    return {
        "nodes": sorted(nodes.values(), key=lambda v: (-v["level"], v["label"])),
        "edges": edges,
        "passed": all_ok,
    }


def tree_graph(root: Ideal, max_depth: int) -> dict:
    """The tree under (I : v) and the contraction of I + (v), max_depth
    levels deep, in csm_diagram's graph schema: each node comes before its
    left and then its right subtree, and a left child equal to its parent
    is not drawn."""
    nodes = []
    edges = []

    def walk(I, name, depth):
        nodes.append({"label": name, "level": I.ring.total_vars,
                      "ideal": I.canonical_str(), "hilbert": list(hf_of(I))})
        if depth <= 0:
            return
        left, right = children(I)
        if left is not None and ideal_equal(left, I):
            left = None
        for kind, child, suffix, index in (("left", left, "L", 1), ("right", right, "R", 0)):
            if child is not None:
                edges.append({"from": name, "to": name + suffix, "kind": kind, "index": index})
                walk(child, name + suffix, depth - 1)

    walk(root, "root", max_depth)
    return {"nodes": nodes, "edges": edges, "passed": True}


def export_dot(graph: dict) -> str:
    """Deterministic graphviz rendering of a diagram graph."""
    lines = ["digraph tree {", "  rankdir=TB;"]
    levels = {}
    for node in graph["nodes"]:
        levels.setdefault(node["level"], []).append(node["label"])
        lines.append(f'  "{node["label"]}" [shape=box];')
    for level in sorted(levels, reverse=True):
        members = " ".join(f'"{l}";' for l in sorted(levels[level]))
        lines.append("  { rank=same; " + members + " }")
    for e in graph["edges"]:
        style = {"left": "dashed", "right": "solid", "csm": "solid"}[e["kind"]]
        lines.append(
            f'  "{e["from"]}" -> "{e["to"]}" [style={style}, label="{e["index"]}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_json(graph: dict) -> str:
    import json

    return json.dumps({"nodes": graph["nodes"], "edges": graph["edges"]},
                      sort_keys=True, indent=2) + "\n"
