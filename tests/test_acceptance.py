"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The grids are the command line's defaults: a criterion either runs its
subcommand with no overrides or reads the grid from citree.cli.  Every
check below is exact (rational arithmetic, zero tolerance); the printed
timings are informational targets, not assertions.
"""

import hashlib
import json
import time

from citree import cli
from citree.csm import (
    chain_blocks,
    filtration_check,
    member_block,
    mixed_family_ideal,
    power_family_ideal,
)
from citree.ideals import hf_of, quotient_dimension
from citree.draw import csm_diagram, export_json
from citree.tree import family_member, family_members, member_label


def _report(num, name, ok, started):
    elapsed = time.time() - started
    print(f"criterion {num:2d} ({name}): {'PASS' if ok else 'FAIL'} [{elapsed:.1f}s]")
    assert ok, f"criterion {num} ({name}) failed"


# sha256 of json.dumps(reports, sort_keys=True) for each default run below:
# a refactor that changes any report byte fails the run's criterion.
REPORT_DIGESTS = {
    ("newton",): "2befb02ac944d521bc98b38581c762459594879a28f46c49ed0c05de39e87fa4",
    ("identity",): "f25acc7dea37744fa3b8b1594335b3606352d49fc9ac3f6b82cb0de3ea867342",
    ("thm31",): "c26b075aebd806c2cf238df850650ca07c16ae7d0eaffee4d431f1362139c0d1",
    ("thm41",): "2036b70b792e7dd5f648e4dc71af421698f4bb53c974b015ca4fad2de56b4d9e",
    ("swap",): "f0249b7259cd77b1541d974dd7de489034d827082214b25fa2cf35577a63e324",
    ("chain",): "13c05f805b458878d9f629332cc63c214f6498f4d3fb85a27b515cd28f835388",
    ("colon-lemma",): "538f79a7c457dc290a66ffcb7b4fba6dae45789491443b9620fa5d1c7c3b8c8c",
    ("tree",): "ba851f7a854614ad021263cbb926831dba38d23092be7e98511a82a6ce33752e",
    ("tree", ("family", "colon-closure")):
        "93622f87a923d9e2c2cad9bf9d9ddec69cf873062a07d293314a48101960c7f4",
    ("thm53",): "eab538bb0d57182619b276ccde00184887866bba4eb62b56aa6e523f3b653602",
    ("thm53", ("a_max", 3), ("n_max", 3)):
        "ef83a3e9109c217746d45dd4fcab95e8198b8e247f0962c6596ef12cb23a2281",
}

# sha256 of export_json of the arrow diagram of the seven level-three
# members with a <= 3, the bytes scripts/derive_diagram.py prints for them
# with --format json
LEVEL_THREE_DIAGRAM_DIGEST = "57130ba2299e3e564b33ae42fe53aa0830692beab78c62e441917d194f83e25d"


def _default_run(command, **params):
    """Whether the subcommand's default grid is non-empty, passes and
    reports the pinned bytes."""
    code, envelope, _ = cli.run(cli.RunConfig(command=command, params=params))
    digest = hashlib.sha256(json.dumps(envelope["reports"], sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[(command, *sorted(params.items()))], \
        f"{command} {params}: report bytes differ from the pinned digest"
    return code == 0 and envelope["passed"] and bool(envelope["reports"])


def test_criterion_01_newton_suite():
    started = time.time()
    ok = _default_run("newton")
    _report(1, "newton suite", ok, started)


def test_criterion_02_derivative_identities():
    started = time.time()
    ok = _default_run("identity")
    _report(2, "derivative identities", ok, started)


def _suite_ideals():
    """Every complete intersection the verification grids build: the family
    ideals, the blocks A_n(a, m)R + (v) of the power family for m = 0..n and
    the predicted chain blocks of the mixed family (unit blocks skipped)."""
    out = []
    for n, a in cli.power_grid():
        I = power_family_ideal(n, a)
        out.append(I)
        out += [member_block(I.ring, a, m) for m in range(n + 1)]
    for n, a, b in cli.mixed_grid():
        I = mixed_family_ideal(n, a, b)
        out.append(I)
        out += [E for E, _, _ in chain_blocks(I.ring, a, b)[:-1]]
    n_max, a_max = cli.thm53_bounds()
    for n in range(1, n_max + 1):
        for member in family_members(n, a_max):
            out.append(member.ideal)
    return out


def test_criterion_03_dimension_law():
    started = time.time()
    ok = True
    for I in _suite_ideals():
        product = 1
        for g in I.generators:
            product *= g.degree()
        dim = quotient_dimension(I)
        hf = hf_of(I)
        ok = ok and dim == product and hf == tuple(reversed(hf))
    anchor = quotient_dimension(power_family_ideal(2, 2))
    ok = ok and anchor == 24
    _report(3, "dimension law", ok, started)


def test_criterion_04_power_family_grid():
    started = time.time()
    ok = _default_run("thm31")
    _report(4, "power family grid", ok, started)


def test_criterion_05_mixed_family_grid():
    started = time.time()
    ok = _default_run("thm41")
    ok = _default_run("chain") and ok
    _report(5, "mixed family grid", ok, started)


def test_criterion_06_generator_swaps():
    started = time.time()
    ok = _default_run("swap")
    _report(6, "generator swaps", ok, started)


def test_criterion_07_colon_identities():
    started = time.time()
    ok = _default_run("colon-lemma")
    _report(7, "colon identities", ok, started)


def test_criterion_08_family_slp():
    started = time.time()
    ok = _default_run("thm53")
    assert quotient_dimension(family_member(3, 4, 3).ideal) == 120
    _report(8, "family slp", ok, started)


EXPECTED_ARROWS = {
    member_label(4, 1, 4): [member_label(3, 1, 3)],
    member_label(4, 2, 1): [member_label(3, 1, 3)] * 2,
    member_label(4, 2, 2): [member_label(3, 1, 3)] * 3,
    member_label(4, 2, 3): [member_label(3, 1, 3)] * 4,
    member_label(4, 7, 1): [member_label(3, 1, 3), member_label(3, 6, 1)],
    member_label(4, 7, 2): [member_label(3, 1, 3), member_label(3, 6, 1),
                            member_label(3, 6, 2)],
    member_label(4, 7, 3): [member_label(3, 1, 3), member_label(3, 6, 1),
                            member_label(3, 6, 2), member_label(3, 6, 3)],
    member_label(3, 1, 3): [member_label(2, 1, 2)],
    member_label(3, 6, 1): [member_label(2, 1, 2), member_label(2, 5, 1)],
    member_label(3, 6, 2): [member_label(2, 1, 2), member_label(2, 5, 1),
                            member_label(2, 5, 2)],
    member_label(3, 6, 3): [member_label(2, 1, 2), member_label(2, 5, 1),
                            member_label(2, 5, 2)],
    member_label(2, 1, 2): [member_label(1, 1, 1)],
    member_label(2, 5, 1): [member_label(1, 1, 1), member_label(1, 4, 1)],
    member_label(2, 5, 2): [member_label(1, 1, 1), member_label(1, 4, 1)],
}


def test_criterion_09_diagram_replication():
    # The two depth-five roots fan out onto the level-four members below;
    # the engine re-derives every arrow from there down and must reproduce
    # the published diagram, including the
    # collapses: all modules of the a=2 members are the coinvariant
    # algebra, and the m=2/m=3 members at a=6 share their module set.
    started = time.time()
    roots = [family_member(4, 1, 4)]
    roots += [family_member(4, 2, m) for m in (1, 2, 3)]
    roots += [family_member(4, 7, m) for m in (1, 2, 3)]
    graph = csm_diagram(roots)
    ok = graph["passed"]
    derived = {}
    for edge in graph["edges"]:
        derived.setdefault(edge["from"], []).append((edge["index"], edge["to"]))
    for src in derived:
        derived[src] = [t for _, t in sorted(derived[src])]
    ok = ok and derived == EXPECTED_ARROWS
    ok = ok and derived[member_label(3, 6, 2)] == derived[member_label(3, 6, 3)]
    for m in (1, 2, 3):
        ok = ok and set(derived[member_label(4, 2, m)]) == {member_label(3, 1, 3)}
    ok = _default_run("thm53", n_max=3, a_max=3) and ok
    level_three = csm_diagram(family_members(3, 3))
    digest = hashlib.sha256(export_json(level_three).encode()).hexdigest()
    ok = ok and level_three["passed"] and digest == LEVEL_THREE_DIAGRAM_DIGEST
    _report(9, "diagram replication", ok, started)


def test_criterion_10_tree_conditions():
    started = time.time()
    ok = _default_run("tree") and _default_run("tree", family="colon-closure")
    _report(10, "binary tree conditions", ok, started)


def test_criterion_11_filtration_identity():
    started = time.time()
    ok = True
    for n, a in cli.power_grid():
        ok = ok and filtration_check(power_family_ideal(n, a))["passed"]
    for n, a, b in cli.mixed_grid():
        ok = ok and filtration_check(mixed_family_ideal(n, a, b))["passed"]
    anchor = filtration_check(power_family_ideal(2, 2))
    ok = ok and anchor["summands"][:6] == [6, 6, 4, 4, 2, 2] and anchor["total"] == 24
    _report(11, "filtration identity", ok, started)
