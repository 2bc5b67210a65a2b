"""Command line behaviour: parsing, output formats, determinism, exit codes,
grid overrides, and the scripts built on the command line."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import citree
from citree import cli
from citree.cli import RunConfig, main, parse_ideal_file, run
from citree.polyring import InvalidInput

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def write_ideal(tmp_path, name, nvars, has_z, gens):
    path = tmp_path / name
    path.write_text(json.dumps({"nvars": nvars, "has_z": has_z, "generators": gens}))
    return str(path)


def test_newton_command(capsys):
    assert main(["newton", "--n", "3", "--kmax", "6"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] newton" in out


def test_thm31_json(capsys):
    assert main(["thm31", "--n", "2", "--a", "2", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["passed"]
    report = data["reports"][0]
    assert report["verifier"] == "power-family"
    assert len(report["modules"]) == 3


def test_thm41_instance(capsys):
    assert main(["thm41", "--n", "2", "--a", "2", "--b", "1"]) == 0


def test_swap_and_chain_and_colon(capsys):
    assert main(["swap", "--kind", "f", "--n", "2", "--a", "2"]) == 0
    assert main(["chain", "--kind", "g", "--n", "2", "--a", "2", "--b", "1"]) == 0
    assert main(["colon-lemma", "--n", "2", "--a", "2"]) == 0


def test_identity_command(capsys):
    assert main(["identity", "--kind", "f", "--n", "4"]) == 0


def test_slp_holds(tmp_path, capsys):
    path = write_ideal(tmp_path, "sq.json", 2, False, ["x1^2", "x2^2"])
    assert main(["slp", "--ideal", path, "--y", "x1+x2"]) == 0
    out = capsys.readouterr().out
    assert "holds=True" in out


def test_slp_failure_exit_code(tmp_path, capsys):
    # x1^2 = 0 fails the top pairing d = c = 2, which every check includes
    path = write_ideal(tmp_path, "sq.json", 2, False, ["x1^2", "x2^2"])
    assert main(["slp", "--ideal", path, "--y", "x1"]) == 1


def test_slp_linear_form_in_the_ideal_fails(tmp_path, capsys):
    # A_2(1, 2): x1 + x2 lies in I, so x y: A_0 -> A_1 = A_c is zero
    path = write_ideal(tmp_path, "a212.json", 2, False, ["-x1-x2", "x1*x2"])
    assert main(["slp", "--ideal", path, "--y", "x1 + x2", "--json"]) == 1
    rep = json.loads(capsys.readouterr().out)["reports"][0]
    assert rep["witnesses"] == [{"d": 1, "i": 0, "rank": 0, "expected": 1}]


def test_check_top_degree_flag_is_gone(tmp_path, capsys):
    path = write_ideal(tmp_path, "sq.json", 2, False, ["x1^2", "x2^2"])
    with pytest.raises(SystemExit) as exc:
        main(["slp", "--ideal", path, "--y", "x1", "--check-top-degree"])
    assert exc.value.code == 2
    assert "--check-top-degree" in capsys.readouterr().err


def test_slp_search(tmp_path, capsys):
    path = write_ideal(tmp_path, "sq3.json", 3, False, ["x1^2", "x2^2", "x3^2"])
    assert main(["slp", "--ideal", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    rep = data["reports"][0]
    assert rep["holds"] and rep["linear_form"] == "x1 + x2 + x3"
    assert rep["seed"] == 0 and rep["tries"] == 1
    assert data["config"]["params"]["max_tries"] == 24


def test_slp_check_records_default_max_tries(tmp_path, capsys):
    path = write_ideal(tmp_path, "sq.json", 2, False, ["x1^2", "x2^2"])
    assert main(["slp", "--ideal", path, "--y", "x1+x2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["params"]["max_tries"] == 24


def test_csm_command(tmp_path, capsys):
    path = write_ideal(tmp_path, "pf.json", 2, True,
                       ["x1^2+x2^2+z^2", "x1^3+x2^3+z^3", "x1^4+x2^4+z^4"])
    assert main(["csm", "--ideal", path, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    rep = data["reports"][0]
    assert set(rep) == {"verifier", "ideal", "nilpotency_index", "chain", "modules",
                        "filtration", "passed"}
    assert rep["nilpotency_index"] == 6
    assert [m["index"] for m in rep["modules"]] == [1, 2, 3]
    assert rep["filtration"]["total"] == 24


def test_csm_command_builds_one_chain(tmp_path, capsys, monkeypatch):
    from citree import csm

    path = write_ideal(tmp_path, "pf.json", 2, True,
                       ["x1^2+x2^2+z^2", "x1^3+x2^3+z^3", "x1^4+x2^4+z^4"])
    calls = []
    real = csm.csm_chain

    def counted(I):
        calls.append(I)
        return real(I)

    monkeypatch.setattr(csm, "csm_chain", counted)
    assert main(["csm", "--ideal", path, "--json"]) == 0
    assert len(calls) == 1
    rep = json.loads(capsys.readouterr().out)["reports"][0]
    # the reports built on the shared chain equal those that build their own
    I = parse_ideal_file(path)
    assert rep["filtration"] == csm.filtration_check(I)


def test_hilbert_command(tmp_path, capsys):
    path = write_ideal(tmp_path, "sq.json", 2, False, ["x1^2", "x2^2"])
    assert main(["hilbert", "--ideal", path]) == 0
    out = capsys.readouterr().out
    assert "hilbert=[1, 2, 1]" in out


def test_tree_conditions_command(capsys):
    assert main(["tree", "--family", "monomial", "--n-max", "2", "--bound", "2"]) == 0


def test_tree_export_dot(tmp_path, capsys):
    path = write_ideal(tmp_path, "sq.json", 2, False, ["x1^2", "x2^2"])
    assert main(["tree-export", "--ideal", path, "--depth", "2", "--dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")


def test_tree_export_bytes_pinned(tmp_path):
    # reports of tree-export --ideal {x1^3, x2^4} --depth 4; left edges are
    # colons by one power of v, right edges contractions
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"nvars": 2, "generators": ["x1^3", "x2^4"]}))
    code, envelope, _ = run(RunConfig(command="tree-export",
                                      params={"ideal": str(path), "depth": 4}))
    reports = envelope["reports"]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert code == 0
    assert digest == "b48a774d9b41225d4f50cae798929f9e8675d331d26fe8fa53503e62ac96b7fe"
    edges = reports[0]["graph"]["edges"]
    assert {e["index"] for e in edges if e["kind"] == "left"} == {1}
    assert {e["index"] for e in edges if e["kind"] == "right"} == {0}


def test_tree_export_dot_bytes_pinned(tmp_path, capsys):
    # the graphviz text of the same tree, as the renderer prints it
    path = write_ideal(tmp_path, "f.json", 2, False, ["x1^3", "x2^4"])
    assert main(["tree-export", "--ideal", path, "--depth", "4", "--dot"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == "73a5a4fe1ddffc66b7c9aba3f2ac79f77df46d1c360f1ad69f1ee34ae5f1d75f"


def test_tree_export_deep_tree(tmp_path, capsys):
    # (x1^1000) is under the degree limit and its tree is a chain of 1000
    # left children, (x1^999) down to (x1): deeper than Python's default
    # recursion limit, so the walk must keep its own stack
    path = write_ideal(tmp_path, "deep.json", 1, False, ["x1^1000"])
    assert main(["tree-export", "--ideal", path, "--depth", "2000", "--json"]) == 0
    nodes = json.loads(capsys.readouterr().out)["reports"][0]["graph"]["nodes"]
    assert len(nodes) == 1000
    assert (nodes[-1]["ideal"], nodes[-1]["hilbert"]) == ("(x1)", [1])


@pytest.mark.parametrize("argv", [
    ["tree", "--n-max", "1", "--dot"],
    ["tree", "--n-max", "1", "--dot", "--json"],
    ["thm53", "--n-max", "1", "--a-max", "2", "--dot"],
    ["thm53", "--n-max", "1", "--a-max", "2", "--dot", "--json"],
])
def test_dot_without_graph_exit_2(capsys, argv):
    # only tree-export draws; the verifying subcommands take no --dot
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--dot" in captured.err


def test_thm53_small(capsys):
    assert main(["thm53", "--n-max", "2", "--a-max", "2"]) == 0
    out = capsys.readouterr().out
    assert "family-slp" in out


def test_parse_errors_exit_2(tmp_path, capsys):
    # a parse error names the file, the generator and its text, or --y
    path = write_ideal(tmp_path, "bad.json", 2, False, ["x1 + "])
    assert main(["slp", "--ideal", path, "--y", "x1"]) == 2
    err = capsys.readouterr().err
    assert f"ideal file {path}: generator 1 'x1 + ': " in err and "column 6" in err
    path = write_ideal(tmp_path, "bad2.json", 2, False, ["x1^2", "x2^"])
    assert main(["hilbert", "--ideal", path]) == 2
    assert capsys.readouterr().err == (f"error: ideal file {path}: generator 2 'x2^': "
                                       "expected integer exponent at column 4\n")
    path = write_ideal(tmp_path, "sq.json", 2, False, ["x1^2", "x2^2"])
    assert main(["slp", "--ideal", path, "--y", "x1 +"]) == 2
    assert capsys.readouterr().err.startswith("error: --y 'x1 +': ")


# `slp --max-tries 1 --json` on a search that fails: the report has the
# LefschetzReport fields with no linear form and tries = the one candidate tried
FAILED_SEARCH_JSON = """{
  "config": {
    "command": "slp",
    "fail_fast": false,
    "output": "json",
    "params": {
      "ideal": %s,
      "max_tries": 1
    },
    "seed": 0
  },
  "passed": false,
  "reports": [
    {
      "hilbert": [
        1,
        2,
        2,
        1
      ],
      "holds": false,
      "linear_form": null,
      "passed": false,
      "seed": 0,
      "subject": "(x1^2 + 2*x1*x2 + x2^2, x2^3)",
      "tries": 1,
      "verifier": "slp",
      "witnesses": []
    }
  ],
  "version": "0.1.0"
}
"""


def test_failed_search_json_bytes(tmp_path, capsys):
    path = write_ideal(tmp_path, "fail.json", 2, False, ["(x1 + x2)^2", "x2^3"])
    assert main(["slp", "--ideal", path, "--max-tries", "1", "--json"]) == 1
    assert capsys.readouterr().out == FAILED_SEARCH_JSON % json.dumps(path)


def test_failed_search_counts_the_candidates_tried(tmp_path, capsys):
    # 3 variables have 124 candidate forms (coefficients 0..4, not all 0),
    # none a Lefschetz element of R/(x1^3, x2^3, x3^3, x1*x2*x3), HF 1,3,6,6,3
    path = write_ideal(tmp_path, "f.json", 3, False, ["x1^3", "x2^3", "x3^3", "x1*x2*x3"])
    for argv, tries in ((["--max-tries", "200"], 124), ([], 24)):
        assert main(["slp", "--ideal", path, "--json"] + argv) == 1
        rep = json.loads(capsys.readouterr().out)["reports"][0]
        assert rep["hilbert"] == [1, 3, 6, 6, 3] and not rep["holds"]
        assert rep["tries"] == tries


@pytest.mark.parametrize("flag", [["--max-tries", "3"]])
def test_lefschetz_flags_only_on_slp(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main(["thm31", "--n", "1", "--a", "2"] + flag)
    assert exc.value.code == 2
    assert flag[0] in capsys.readouterr().err


def test_lefschetz_flags_default_in_config(capsys):
    assert main(["thm31", "--n", "1", "--a", "2", "--json"]) == 0
    config = json.loads(capsys.readouterr().out)["config"]
    assert "check_top_degree" not in config
    assert "modular_prefilter_prime" not in config


@pytest.mark.parametrize("error", [AssertionError("chain failed\nto terminate"),
                                   RuntimeError("step budget")])
def test_internal_error_exit_3(monkeypatch, capsys, error):
    def boom(cfg):
        raise error

    monkeypatch.setitem(cli._HANDLERS, "newton", boom)
    assert main(["newton", "--n", "2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: " + type(error).__name__)
    assert captured.err.count("\n") == 1


def test_bare_value_error_exit_3(monkeypatch, capsys):
    # only InvalidInput means bad input; a ValueError from the library is a bug
    def boom(cfg):
        raise ValueError("a library bug")

    monkeypatch.setitem(cli._HANDLERS, "newton", boom)
    assert main(["newton", "--n", "2"]) == 3
    assert capsys.readouterr().err.startswith("internal error: ValueError")


@pytest.mark.parametrize("argv, named", [
    (["thm41", "--a", "1"], "a >= 2"),
    (["colon-lemma", "--n", "2", "--s", "5"], "s=5"),
    (["swap", "--a", "1"], "a >= 2"),
    (["swap", "--kind", "f", "--a", "1"], "a >= 2"),
    (["chain", "--kind", "f", "--a", "1"], "a >= 2"),
    (["identity", "--kind", "f", "--n", "2"], "kind f with n=2 has no identity to check"),
    (["identity", "--kind", "g", "--n", "5", "--b", "2"],
     "kind g with n=5, b=2 has no identity to check"),
    (["identity", "--kind", "g", "--n", "3"], "kind g with n=3 has no identity to check"),
])
def test_parameter_out_of_range_exit_2(capsys, argv, named):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ") and named in captured.err


@pytest.mark.parametrize("n, b", [(1, 1), (2, 2), (2, 5), (3, 3)])
def test_kind_g_b_out_of_range_one_message(capsys, n, b):
    # swap, chain and identity check (kind, n, b) in one place, csm.boundary_top
    errors = []
    for command in ("swap", "chain", "identity"):
        argv = [command, "--kind", "g", "--n", str(n), "--b", str(b)]
        assert main(argv + (["--a", "2"] if command != "identity" else [])) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors == [f"error: need kind f, or kind g with 0 <= b <= n-1 = {n - 1}; "
                      f"not kind g with b={b}\n"] * 3


@pytest.mark.parametrize("command", ["slp", "csm", "hilbert", "tree-export"])
def test_non_artinian_file_exit_2(tmp_path, capsys, command):
    path = write_ideal(tmp_path, "line.json", 2, False, ["x1^2"])
    assert main([command, "--ideal", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Artinian" in err


def test_non_artinian_file_one_refusal(tmp_path, capsys):
    # every command that needs an Artinian quotient refuses it the same way
    path = write_ideal(tmp_path, "line.json", 2, False, ["x1^2"])
    for command in ("hilbert", "slp", "csm", "tree-export"):
        assert main([command, "--ideal", path]) == 2, command
        assert capsys.readouterr().err == (
            "error: quotient by (x1^2) is not Artinian: no pure power of x2 among the "
            "leading terms\n"), command


def test_undecodable_file_exit_2(tmp_path, capsys):
    path = tmp_path / "binary.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["hilbert", "--ideal", str(path)]) == 2
    assert "UTF-8" in capsys.readouterr().err


def test_non_json_file_exit_2(tmp_path, capsys):
    path = tmp_path / "notes.json"
    path.write_text("x1^2, x2^2\n")
    assert main(["hilbert", "--ideal", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: ideal file {path} is not JSON: Expecting value: line 1 column 1 (char 0)\n")


def test_non_homogeneous_generator_exit_2(tmp_path, capsys):
    path = write_ideal(tmp_path, "mixed.json", 2, False, ["x1^2 + x2", "x2^2"])
    assert main(["hilbert", "--ideal", path]) == 2
    assert "generator 1 'x1^2 + x2': not homogeneous" in capsys.readouterr().err


def test_non_linear_form_exit_2(tmp_path, capsys):
    path = write_ideal(tmp_path, "squares.json", 2, False, ["x1^2", "x2^2"])
    assert main(["slp", "--ideal", path, "--y", "x1^2"]) == 2
    assert "not a linear form" in capsys.readouterr().err


def test_non_homogeneous_linear_form_exit_2(tmp_path, capsys):
    path = write_ideal(tmp_path, "squares.json", 2, False, ["x1^2", "x2^2"])
    assert main(["slp", "--ideal", path, "--y", "x1+1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a linear form" in err


def test_unknown_variable_in_file(tmp_path, capsys):
    path = write_ideal(tmp_path, "bad.json", 2, False, ["x1^2", "x2^2", "z"])
    assert main(["hilbert", "--ideal", path]) == 2
    err = capsys.readouterr().err
    assert f"ideal file {path}: generator 3 'z': unknown variable" in err


def test_missing_field_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"nvars": 2}))
    assert main(["hilbert", "--ideal", str(path)]) == 2


@pytest.mark.parametrize("content, named", [
    ([1, 2], "JSON object"),
    ({"nvars": None, "generators": ["x1"]}, "'nvars'"),
    ({"nvars": 2.5, "generators": ["x1"]}, "'nvars'"),
    ({"nvars": True, "generators": ["x1"]}, "'nvars'"),
    ({"nvars": 0, "generators": ["x1"]}, "'nvars'"),
    ({"nvars": 2, "has_z": "no", "generators": ["x1"]}, "'has_z'"),
    ({"nvars": 2, "generators": 5}, "'generators'"),
    ({"nvars": 2, "generators": [5]}, "'generators'"),
    # a misspelt optional field is refused, not silently defaulted
    ({"nvars": 2, "has_Z": True, "generators": ["x1^2", "x2^2"]}, "'has_Z'"),
    # a quotient whose listing would walk millions of degrees is refused
    # before any listing, with its caps and the limit
    ({"nvars": 2, "generators": ["x1^2000000", "x2^2"]},
     "caps [2000000, 2] of the leading terms let R/I reach degree 2000000, "
     "above the degree limit 1000"),
    ({"nvars": 2, "generators": ["x1^99999999999", "x2^2"]},
     "caps [99999999999, 2] of the leading terms let R/I reach degree 99999999999, "
     "above the degree limit 1000"),
    # digits and letters are ASCII only: a superscript exponent is refused
    # rather than crashing, and an Arabic-Indic digit is not read as 3
    ({"nvars": 1, "generators": ["x1^\u00b2"]}, "unexpected character '\u00b2' at column 4"),
    ({"nvars": 1, "generators": ["\u0663*x1^2"]}, "unexpected character '\u0663' at column 1"),
    # a ring too wide to name its variables is refused before any parse
    ({"nvars": 100000000, "generators": ["x1"]},
     "'nvars' must be an integer from 1 to 64 (the variable limit), not 100000000"),
    ({"nvars": 65, "generators": ["x1"]}, "from 1 to 64 (the variable limit), not 65"),
])
def test_malformed_ideal_file_exit_2(tmp_path, capsys, content, named):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(content))
    assert main(["hilbert", "--ideal", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


def test_nvars_limit_is_inclusive(tmp_path, capsys):
    n = cli.NVARS_LIMIT
    path = write_ideal(tmp_path, "linear.json", n, False, [f"x{i}" for i in range(1, n + 1)])
    assert main(["hilbert", "--ideal", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["reports"][0]["hilbert"] == [1]


def test_degree_limit_is_inclusive(tmp_path):
    # R/(x1^c) reaches degree c - 1
    at = write_ideal(tmp_path, "at.json", 1, False, [f"x1^{cli.DEGREE_LIMIT + 1}"])
    assert parse_ideal_file(at).generators
    over = write_ideal(tmp_path, "over.json", 1, False, [f"x1^{cli.DEGREE_LIMIT + 2}"])
    with pytest.raises(InvalidInput, match=f"above the degree limit {cli.DEGREE_LIMIT}"):
        parse_ideal_file(over)


@pytest.mark.parametrize("command", ["slp", "csm", "hilbert", "tree-export"])
def test_unit_ideal_file_exit_2(tmp_path, capsys, command):
    path = write_ideal(tmp_path, "unit.json", 2, False, ["x1^2", "x2^2", "1"])
    assert main([command, "--ideal", path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "R/I is zero" in err


def test_parse_ideal_file_round_trip(tmp_path):
    # canonical printing is a fixed point after one normalization pass
    path = write_ideal(tmp_path, "i.json", 2, True, ["3/2*x1^2*z - x2^3"])
    I = parse_ideal_file(path)
    once = str(I.generators[0])
    assert once == "-x2^3 + 3/2*x1^2*z"
    again = write_ideal(tmp_path, "i2.json", 2, True, [once])
    assert str(parse_ideal_file(again).generators[0]) == once


def test_determinism_identical_bytes():
    cfg = RunConfig(command="thm31", params={"n": 2, "a": 2}, output="json", seed=3)
    _, _, first = run(cfg)
    _, _, second = run(cfg)
    assert first == second
    data = json.loads(first)
    assert data["config"]["seed"] == 3


def test_config_recorded_in_envelope():
    cfg = RunConfig(command="newton", params={"n": 2, "kmax": 3}, output="json")
    code, envelope, _ = run(cfg)
    assert code == 0
    assert envelope["config"]["command"] == "newton"
    assert envelope["version"]


def _reports(capsys, argv):
    assert main(argv + ["--json"]) == 0
    return json.loads(capsys.readouterr().out)["reports"]


def test_override_keeps_the_other_default_bounds(capsys):
    reports = _reports(capsys, ["thm31", "--a", "2"])
    assert [(r["params"]["n"], r["params"]["a"]) for r in reports] == [(1, 2), (2, 2), (3, 2)]
    reports = _reports(capsys, ["thm41", "--n", "2"])
    assert [(r["params"]["a"], r["params"]["b"]) for r in reports] == [
        (2, 0), (2, 1), (3, 0), (3, 1)]
    reports = _reports(capsys, ["colon-lemma", "--n", "3", "--top"])
    assert [(r["params"]["a"], r["params"]["s"]) for r in reports] == [
        (2, None), (3, None), (4, None)]
    reports = _reports(capsys, ["swap", "--kind", "g", "--n", "2"])
    assert {r["params"]["kind"] for r in reports} == {"g"} and len(reports) == 4


def test_given_zero_is_used():
    assert cli.newton_grid(n=2, kmax=0) == [(2, 0)]
    assert cli.mixed_grid(n=2, b=0) == [(2, 2, 0), (2, 3, 0)]
    assert cli.tree_bounds("colon-closure", n_max=0, bound=0) == ("colon-closure", 0, 0)


@pytest.mark.parametrize("argv, flag", [
    (["thm31", "--n", "0", "--a", "2"], "--n"),
    (["thm31", "--a", "0"], "--a"),
    (["thm31", "--n", "-1"], "--n"),
    (["newton", "--n", "2", "--kmax", "0"], "--kmax"),
    (["thm53", "--n-max", "0"], "--n-max"),
    (["tree", "--n-max", "0"], "--n-max"),
    (["slp", "--ideal", "unread.json", "--max-tries", "0"], "--max-tries"),
])
def test_bounds_below_one_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, flag", [
    (["identity", "--kind", "g", "--n", "3", "--b", "-2"], "--b"),
    (["thm41", "--b", "-1"], "--b"),
    (["swap", "--kind", "g", "--b", "-1"], "--b"),
    (["chain", "--b", "-1"], "--b"),
    (["colon-lemma", "--s", "-1"], "--s"),
    (["tree-export", "--ideal", "unread.json", "--depth", "-1"], "--depth"),
    (["thm41", "--b", "x"], "--b"),
])
def test_bounds_below_zero_exit_2(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["colon-lemma", "--n", "3", "--a", "2", "--s", "0", "--top"], "not allowed with argument"),
    (["tree-export", "--ideal", "unread.json", "--family", "monomial"],
     "unrecognized arguments: --family monomial"),
    (["tree-export", "--ideal", "unread.json", "--n-max", "2"], "unrecognized arguments: --n-max 2"),
    (["tree-export", "--ideal", "unread.json", "--bound", "2"], "unrecognized arguments: --bound 2"),
    (["slp", "--ideal", "unread.json", "--y", "x1", "--max-tries", "3"], "takes no --max-tries"),
    (["identity", "--kind", "f", "--b", "1"], "identity --kind f has no b parameter"),
    (["swap", "--kind", "f", "--b", "0"], "swap --kind f has no b parameter"),
    (["chain", "--kind", "f", "--n", "2", "--b", "1"], "chain --kind f has no b parameter"),
    (["tree", "--depth", "2"], "unrecognized arguments: --depth 2"),
    (["tree", "--family", "colon-closure", "--depth", "3"], "unrecognized arguments: --depth 3"),
    (["slp", "--ideal", "unread.json", "--y", "x1", "--seed", "7"], "takes no --seed"),
    (["tree-export", "--ideal", "unread.json", "--dot", "--json"], "not allowed with argument --dot"),
    (["thm53", "--diagram", "--dot", "--json"], "unrecognized arguments: --diagram --dot"),
])
def test_flags_a_run_would_drop_exit_2(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and message in captured.err
    # argparse's own errors, unrecognized flags and these conflicts print
    # the subcommand's usage
    assert captured.err.startswith(f"usage: citree {argv[0]} ")


GRID_COMMANDS = ("newton", "identity", "thm31", "thm41", "swap", "chain", "colon-lemma")


@pytest.mark.parametrize("argv, flag", [
    *[([c], "--seed") for c in GRID_COMMANDS + ("tree",)],
    *[(["csm", "--ideal", "unread.json"], "--seed"),
      (["hilbert", "--ideal", "unread.json"], "--seed")],
    *[([c], "--fail-fast") for c in ("tree", "thm53")],
    *[([c, "--ideal", "unread.json"], "--fail-fast") for c in ("slp", "csm", "hilbert")],
    # drawing is tree-export's one job: tree and thm53 only verify
    *[(["tree"], flag) for flag in ("--ideal", "--depth")],
    *[(["thm53"], flag) for flag in ("--diagram", "--dot", "--skip-modules")],
    *[(["tree-export", "--ideal", "unread.json"], flag) for flag in ("--seed", "--fail-fast")],
])
def test_flags_a_run_does_not_read_exit_2(capsys, argv, flag):
    # --seed is read only by slp and thm53, --fail-fast only by the grids
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag] + (["1"] if flag in ("--seed", "--ideal", "--depth") else []))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"unrecognized arguments: {flag}" in captured.err
    assert captured.err.startswith(f"usage: citree {argv[0]} ")


def test_b_and_depth_where_read(tmp_path, capsys):
    # --b without --kind f still reaches the kind g runs, and tree-export
    # records its depth, 3 unless --depth is given; tree records none
    for argv, b in ((["identity", "--n", "4"], 3), (["identity", "--kind", "g", "--n", "4"], 3),
                    (["swap", "--n", "2", "--a", "2"], 1),
                    (["chain", "--kind", "g", "--n", "2", "--a", "2"], 1)):
        assert main(argv + ["--b", str(b), "--json"]) == 0, argv
        assert json.loads(capsys.readouterr().out)["config"]["params"]["b"] == b
    assert main(["tree", "--n-max", "1", "--json"]) == 0
    assert "depth" not in json.loads(capsys.readouterr().out)["config"]["params"]
    path = write_ideal(tmp_path, "sq.json", 2, False, ["x1^2", "x2^2"])
    assert main(["tree-export", "--ideal", path, "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["params"]["depth"] == 3
    assert main(["tree-export", "--ideal", path, "--depth", "1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["params"]["depth"] == 1


def test_empty_flag_value_is_given(tmp_path, capsys):
    # an empty --y is a linear form to parse, not a search, and an empty
    # --ideal is a file to read
    path = write_ideal(tmp_path, "sq.json", 2, False, ["x1^2", "x2^2"])
    assert main(["slp", "--ideal", path, "--y", ""]) == 2
    assert "column 1" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["slp", "--ideal", path, "--y", "", "--max-tries", "3", "--seed", "4"])
    assert exc.value.code == 2
    assert "takes no --max-tries" in capsys.readouterr().err
    assert main(["tree-export", "--ideal", ""]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, params", [
    (["newton", "--n", "2", "--kmax", "3"], {"n": 2, "kmax": 3}),
    (["identity", "--kind", "g", "--n", "4", "--b", "3"], {"kind": "g", "n": 4, "b": 3}),
    (["thm31", "--n", "1", "--a", "2"], {"n": 1, "a": 2}),
    (["thm41", "--n", "1", "--a", "2", "--b", "0"], {"n": 1, "a": 2, "b": 0}),
    (["swap", "--kind", "f", "--n", "2", "--a", "2"], {"kind": "f", "n": 2, "a": 2}),
    (["chain", "--n", "2", "--a", "2", "--b", "1"], {"n": 2, "a": 2, "b": 1}),
    (["colon-lemma", "--n", "2", "--a", "2"], {"n": 2, "a": 2, "top": False}),
    (["colon-lemma", "--n", "2", "--a", "2", "--s", "0"], {"n": 2, "a": 2, "s": 0, "top": False}),
    (["colon-lemma", "--n", "2", "--a", "2", "--top"], {"n": 2, "a": 2, "top": True}),
    (["slp", "--ideal", "sq.json"], {"ideal": "sq.json", "max_tries": 24}),
    (["slp", "--ideal", "sq.json", "--y", "x1+x2"],
     {"ideal": "sq.json", "y": "x1+x2", "max_tries": 24}),
    (["slp", "--ideal", "sq.json", "--max-tries", "2", "--seed", "1"],
     {"ideal": "sq.json", "max_tries": 2}),
    (["csm", "--ideal", "sq.json"], {"ideal": "sq.json"}),
    (["hilbert", "--ideal", "sq.json"], {"ideal": "sq.json"}),
    (["tree", "--n-max", "1"], {"n_max": 1}),
    (["tree", "--family", "colon-closure", "--n-max", "1", "--bound", "2"],
     {"family": "colon-closure", "n_max": 1, "bound": 2}),
    (["tree-export", "--ideal", "sq.json"], {"ideal": "sq.json", "depth": 3}),
    (["tree-export", "--ideal", "sq.json", "--depth", "1"], {"ideal": "sq.json", "depth": 1}),
    (["thm53", "--n-max", "1", "--a-max", "2"], {"n_max": 1, "a_max": 2}),
    (["thm53", "--n-max", "1", "--a-max", "2", "--seed", "3"], {"n_max": 1, "a_max": 2}),
])
def test_json_config_params_pinned(tmp_path, monkeypatch, capsys, argv, params):
    # the params a run records are read from its parsed flags: every flag
    # that names what it checks, given, plus slp's budget and tree-export's depth
    monkeypatch.chdir(tmp_path)
    write_ideal(tmp_path, "sq.json", 2, False, ["x1^2", "x2^2"])
    assert main(argv + ["--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["params"] == params


def test_seed_and_fail_fast_where_read(tmp_path, capsys):
    assert main(["newton", "--n", "1", "--kmax", "1", "--fail-fast", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["fail_fast"] is True
    path = write_ideal(tmp_path, "sq.json", 2, False, ["x1^2", "x2^2"])
    assert main(["slp", "--ideal", path, "--seed", "5", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["seed"] == 5


def test_readme_csm_example(tmp_path, capsys):
    # the README's ideal file, run through its csm example, prints the
    # README's example block
    readme = (SCRIPTS.parent / "README.md").read_text()
    ideal = readme.split("Ideal files are JSON:\n\n```json\n", 1)[1].split("```", 1)[0]
    example = readme.split("\n$ citree csm --ideal ideal.json\n", 1)[1].split("```", 1)[0]
    path = tmp_path / "ideal.json"
    path.write_text(ideal)
    assert main(["csm", "--ideal", str(path)]) == 0
    assert capsys.readouterr().out == example


# sha256 of the --json reports of each command on the README's ideal file;
# slp searches, so its report carries the Lefschetz element it found
README_REPORT_DIGESTS = {
    "hilbert": "2869fac4c694bbc4e6c08570d72378504f3615b31d92308ac5c8e2c83ef49543",
    "csm": "5d4640fe6367e9688508f593d67500b5d6f80c7d08b334266a08e650268d664d",
    "slp": "7b2c489a2259e50c57e8f46dfce60a0eb538696e62606fb5cddb7232663119bb",
}


@pytest.mark.parametrize("command", sorted(README_REPORT_DIGESTS))
def test_readme_ideal_json_reports_pinned(tmp_path, capsys, command):
    readme = (SCRIPTS.parent / "README.md").read_text()
    path = tmp_path / "ideal.json"
    path.write_text(readme.split("Ideal files are JSON:\n\n```json\n", 1)[1].split("```", 1)[0])
    assert main([command, "--ideal", str(path), "--json"]) == 0
    reports = json.loads(capsys.readouterr().out)["reports"]
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == README_REPORT_DIGESTS[command]


@pytest.mark.parametrize("script, argv, code", [
    ("derive_diagram.py", ["--member", "2,3,2", "--format", "json"], 0),
    ("run_full_verification.py", ["--unused"], 2),
])
def test_scripts_run_from_a_plain_checkout(tmp_path, script, argv, code):
    # no site-packages (-S), no PYTHONPATH, working directory outside the
    # checkout: each script finds citree in its checkout's src/
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "-S", str(SCRIPTS / script), *argv],
                          capture_output=True, text=True, env=env, cwd=tmp_path,
                          timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr


def test_zero_b_s_depth_accepted(tmp_path, capsys):
    assert main(["thm41", "--n", "1", "--a", "2", "--b", "0"]) == 0
    assert main(["colon-lemma", "--n", "2", "--a", "2", "--s", "0"]) == 0
    path = write_ideal(tmp_path, "sq.json", 2, False, ["x1^2", "x2^2"])
    capsys.readouterr()
    assert main(["tree-export", "--ideal", path, "--depth", "0", "--json"]) == 0
    graph = json.loads(capsys.readouterr().out)["reports"][0]["graph"]
    assert len(graph["nodes"]) == 1 and graph["edges"] == []


def _load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_full_verification_runs_every_grid_subcommand():
    script = _load_script("run_full_verification")
    needs_an_ideal_file = {"slp", "csm", "hilbert", "tree-export"}
    assert {run[0] for run in script.RUNS} == set(cli._HANDLERS) - needs_an_ideal_file


@pytest.mark.parametrize("outcome, code", [("pass", 0), ("fail", 1), ("raise", 3)])
def test_full_verification_exit_codes(monkeypatch, capsys, outcome, code):
    script = _load_script("run_full_verification")

    def stub(cfg):
        return [{"passed": True}]

    def newton(cfg):
        if outcome == "raise":
            raise AssertionError("chain failed\nto terminate")
        return [{"passed": outcome == "pass"}]

    for name in cli._HANDLERS:
        monkeypatch.setitem(cli._HANDLERS, name, stub)
    monkeypatch.setitem(cli._HANDLERS, "newton", newton)
    assert script.main([]) == code
    captured = capsys.readouterr()
    assert len(captured.out.splitlines()) == len(script.RUNS) + 1
    if outcome == "raise":
        assert captured.err.startswith("internal error: AssertionError")
        assert captured.err.count("\n") == 1
    else:
        assert captured.err == ""


@pytest.mark.parametrize("member", ["5,8", "5,0,3", "x,1,1"])
def test_derive_diagram_rejects_bad_member(member):
    env = dict(os.environ, PYTHONPATH=str(Path(citree.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "derive_diagram.py"), "--member", member],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 2
    assert "argument --member:" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_derive_diagram_unwritable_output_is_bad_input(tmp_path, monkeypatch, capsys):
    # the output path is refused before any member is built or derived
    script = _load_script("derive_diagram")

    def derive(*args):
        raise AssertionError("derived before the output path was checked")

    monkeypatch.setattr(script, "family_member", derive)
    monkeypatch.setattr(script, "csm_diagram", derive)
    for out in (tmp_path / "missing" / "x.dot", tmp_path):
        assert script.main(["--member", "2,3,2", "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_derive_diagram_dot(capsys):
    # the arrow diagram of the level-one members, as graphviz
    script = _load_script("derive_diagram")
    assert script.main(["--member", "1,1,1", "--member", "1,2,1", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_derive_diagram_member_build_bug_is_internal_error(monkeypatch, capsys):
    # only InvalidInput from a member build is a bad --member; a bare
    # ValueError is a bug
    script = _load_script("derive_diagram")

    def build(*triple):
        raise ValueError("boom")

    monkeypatch.setattr(script, "family_member", build)
    assert script.main(["--member", "2,3,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: ValueError: boom\n"


def test_derive_diagram_crash_is_internal_error(monkeypatch, capsys):
    script = _load_script("derive_diagram")

    def crash(members):
        raise AssertionError("chain failed\nto terminate")

    monkeypatch.setattr(script, "csm_diagram", crash)
    assert script.main(["--member", "2,3,2"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: AssertionError: chain failed to terminate\n"
