"""The three verifier workloads and their correctness gates.

Each workload is a fixed list of instances.  An instance is a
``(key, thunk)`` pair: calling the thunk runs one verifier and returns a
report dict that is deterministic for the code under test.  ``--seed``
only shuffles the list, so the set of computations never depends on it.
The Lefschetz searches keep the command-line default ``seed=0``: another
seed draws other candidate linear forms once the fixed ones fail, which
changes the number of tries and every work count after them.

Why these three (see README.md for the per-layer predictions):

* ``family-slp`` is ``citree thm53`` with its defaults.  Nearly all of its
  time is dense ``Fraction`` matrix products and exact ranks inside the
  Lefschetz checks; it does almost no Groebner work.
* ``identity-grids`` builds many distinct small ideals: Buchberger, normal
  forms and colon kernels (``linalg.rref``).  It never calls ``lefschetz``.
* ``depth5-arrows`` works on two large quotients and re-resolves the same
  family members over and over, so the Groebner cache hits while standard
  monomials are enumerated again.  It never calls ``lefschetz`` either.
"""

from __future__ import annotations

import random

# Verifiers are looked up on their modules at call time, so the traced
# run's wrappers (installed on the citree modules) see these calls too.
from citree import csm, tree

# Grid bounds of scripts/run_full_verification.py at its defaults.
N_MAX, A_MAX = 3, 4
POWER_GRID = [(n, a) for n in range(1, N_MAX + 1) for a in range(1, A_MAX + 1)]
MIXED_GRID = [(n, a, b) for n in range(1, N_MAX + 1)
              for a in range(2, min(A_MAX, 3) + 1) for b in range(n)]

# Paper facts: the arrows out of the two depth-five roots
# (tests/test_tree.py::test_depth_five_roots_fan_out).
DEPTH5_TARGETS = {
    (5, 3, 3): [tree.member_label(4, 1, 4), tree.member_label(4, 2, 1),
                tree.member_label(4, 2, 2), tree.member_label(4, 2, 3)],
    (5, 8, 3): [tree.member_label(4, 1, 4), tree.member_label(4, 7, 1),
                tree.member_label(4, 7, 2), tree.member_label(4, 7, 3)],
}
FAMILY_SLP_MEMBERS = 21
A343_DIMENSION = 120


def _family_slp():
    return [(("family-slp", N_MAX, A_MAX),
             lambda: tree.verify_family_slp(N_MAX, A_MAX, check_modules=True))]


def _identity_grids():
    out = []
    for n, a in POWER_GRID:
        out.append((("power", n, a), lambda n=n, a=a: csm.verify_power_family(n, a)))
    for n, a, b in MIXED_GRID:
        out.append((("mixed", n, a, b), lambda n=n, a=a, b=b: csm.verify_mixed_family(n, a, b)))
    for n, a in POWER_GRID:
        if a >= 2:
            out.append((("swap-f", n, a), lambda n=n, a=a: csm.verify_generator_swap("f", n, a)))
    for n, a, b in MIXED_GRID:
        out.append((("swap-g", n, a, b), lambda n=n, a=a, b=b: csm.verify_generator_swap("g", n, a, b)))
    for n, a in POWER_GRID:
        if a >= 2:
            out.append((("blocks-f", n, a), lambda n=n, a=a: csm.verify_chain_blocks("f", n, a)))
    for n, a, b in MIXED_GRID:
        out.append((("blocks-g", n, a, b), lambda n=n, a=a, b=b: csm.verify_chain_blocks("g", n, a, b)))
    for n in range(1, 5):
        for a in range(2, 5):
            for s in list(range(n - 1)) + [None]:
                out.append((("colon", n, a, s), lambda n=n, a=a, s=s: csm.verify_colon_identity(n, a, s)))
    for n, a in POWER_GRID:
        out.append((("filtration-f", n, a),
                    lambda n=n, a=a: csm.filtration_check(csm.power_family_ideal(n, a))))
    for n, a, b in MIXED_GRID:
        out.append((("filtration-g", n, a, b),
                    lambda n=n, a=a, b=b: csm.filtration_check(csm.mixed_family_ideal(n, a, b))))
    out.append((("tree", "monomial", 3, 3),
                lambda: tree.verify_tree_conditions("monomial", 3, 3)))
    out.append((("tree", "colon-closure", 2, 3),
                lambda: tree.verify_tree_conditions("colon-closure", 2, 3)))
    return out


def _depth5_report(n, a, m):
    arrows, rep = tree.member_csm_arrows(tree.family_member(n, a, m))
    return {"targets": [t.label for _, t in arrows], **rep}


def _depth5_arrows():
    return [(("depth5", n, a, m), lambda n=n, a=a, m=m: _depth5_report(n, a, m))
            for n, a, m in DEPTH5_TARGETS]


_BUILDERS = {
    "family-slp": _family_slp,
    "identity-grids": _identity_grids,
    "depth5-arrows": _depth5_arrows,
}


def instances(name: str, seed: int):
    """The workload's instances in the order given by the seed."""
    out = _BUILDERS[name]()
    random.Random(seed).shuffle(out)
    return out


def weight(key) -> int:
    """Verdicts one instance stands for: one per member for ``family-slp``."""
    return FAMILY_SLP_MEMBERS if key[0] == "family-slp" else 1


def verdicts(key, report):
    """(attempted, failed) for one instance report, with the paper facts."""
    if key[0] == "family-slp":
        members = report["members"]
        failed = sum(1 for m in members
                     if not m["slp"] or not m.get("arrows_ok", m["n"] < 2))
        failed += abs(FAMILY_SLP_MEMBERS - len(members))
        dims = {(m["n"], m["a"], m["m"]): m["dimension"] for m in members}
        if dims.get((3, 4, 3)) != A343_DIMENSION or not report["passed"]:
            failed = max(failed, 1)
        return FAMILY_SLP_MEMBERS, min(failed, FAMILY_SLP_MEMBERS)
    if key[0] == "depth5":
        ok = report["passed"] and report["targets"] == DEPTH5_TARGETS[key[1:]]
        return 1, 0 if ok else 1
    return 1, 0 if report["passed"] else 1


def attempted_count(name: str) -> int:
    """Verdicts a run of the workload attempts, independent of the seed."""
    return sum(weight(key) for key, _ in _BUILDERS[name]())
