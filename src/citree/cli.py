"""Command line interface: verification suites, ad-hoc queries on an ideal
file, and tree-export, the one subcommand that draws rather than verifies.

Every run prints either a human-readable summary or a deterministic JSON
report (sorted keys, seed recorded); tree-export --dot prints graphviz.
Ideal files and --y are read by citree.parse, and tree-export draws with
citree.draw; the verification modules import neither.  Each grid
subcommand is one row of _GRIDS, and its flags are the parameters of its
grid function.  Exit status, with guarded the one place that maps an
exception to 2 or 3:

    0  every requested check passed
    1  a verification failed
    2  invalid input: bad flags, an unreadable ideal file, or InvalidInput
       (a malformed file, a parameter out of range, an unusable ideal)
    3  internal error: the verifier raised anything else (an assertion, a
       bare ValueError); one "internal error: ..." line goes to stderr
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from dataclasses import asdict, dataclass, field

from . import __version__, csm, draw, symfun, tree
from .csm import _check, _finish
from .ideals import Ideal, NotArtinian, artinian_caps, hf_of
from .lefschetz import MAX_TRIES, find_lefschetz_element, slp_check_algebra
from .parse import ParseError, parse_polynomial
from .polyring import InvalidInput, RingSpec
from .quotient import build_quotient

DEPTH = 3  # levels of a tree-export tree unless --depth is given
# Largest sum(c_j - 1) over the pure-power caps c_j of an ideal file's
# leading terms: a standard monomial has degree at most that sum, and a
# listing over that many degrees costs time quadratic in it.  Every member
# A_n(a, m) with n <= 6 and a <= 4 needs at most 78.
DEGREE_LIMIT = 1000
# Largest nvars of an ideal file: the ring names every variable, and hilbert
# on the linear x1 .. xn takes time cubic in n.  Members have at most 6.
NVARS_LIMIT = 64


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)
    output: str = "text"  # text | json | dot
    fail_fast: bool = False
    seed: int = 0


def parse_ideal_file(path: str) -> Ideal:
    """JSON schema: {"nvars": int in 1..NVARS_LIMIT, "has_z": bool (optional,
    default false), "generators": [str, ...]} and no other field; an
    InvalidInput names the bad field, the generator (counted from 1, with
    its text) that does not parse or is not homogeneous, or says R/I is
    zero when the generators give the unit ideal, or names the caps when
    R/I is Artinian and may reach a degree above DEGREE_LIMIT."""
    with open(path) as handle:
        try:
            data = json.load(handle)
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"ideal file {path} is not UTF-8 text: {exc}") from None
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"ideal file {path} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise InvalidInput(f"ideal file {path} must hold a JSON object")
    for key in data:
        if key not in ("nvars", "has_z", "generators"):
            raise InvalidInput(f"ideal file {path} has an unknown field '{key}' "
                               "(the fields are 'nvars', 'has_z' and 'generators')")
    for key in ("nvars", "generators"):
        if key not in data:
            raise InvalidInput(f"ideal file {path} is missing the '{key}' field")
    nvars, has_z, gens = data["nvars"], data.get("has_z", False), data["generators"]
    if type(nvars) is not int or not 1 <= nvars <= NVARS_LIMIT:
        raise InvalidInput(f"ideal file {path}: 'nvars' must be an integer from 1 to "
                           f"{NVARS_LIMIT} (the variable limit), not {json.dumps(nvars)}")
    if type(has_z) is not bool:
        raise InvalidInput(f"ideal file {path}: 'has_z' must be true or false, "
                         f"not {json.dumps(has_z)}")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise InvalidInput(f"ideal file {path}: 'generators' must be a list of strings")
    ring = RingSpec(nvars, has_z)
    polys = []
    for i, text in enumerate(gens, 1):
        where = f"ideal file {path}: generator {i} '{text}'"
        try:
            polys.append(parse_polynomial(text, ring))
        except ParseError as exc:
            raise InvalidInput(f"{where}: {exc}") from None
        if not polys[-1].is_homogeneous():
            raise InvalidInput(f"{where}: not homogeneous")
    ideal = Ideal(ring, polys)
    if ideal.is_unit():
        raise InvalidInput(f"ideal file {path}: the generators give the unit ideal, "
                         "so R/I is zero")
    try:
        caps = artinian_caps(ideal)
    except NotArtinian:
        return ideal  # each command that needs R/I Artinian refuses it alike
    top = sum(c - 1 for c in caps)
    if top > DEGREE_LIMIT:
        raise InvalidInput(f"ideal file {path}: the pure-power caps {caps} of the leading "
                           f"terms let R/I reach degree {top}, above the degree limit "
                           f"{DEGREE_LIMIT}")
    return ideal


# --- verification grids ------------------------------------------------------
# The default run of each grid subcommand is the only definition of its grid:
# tests/test_acceptance.py and scripts/run_full_verification.py read these.
# One override rule throughout: a value that is given is used as given.


def _given(value, default):
    return default if value is None else [value]


def newton_grid(n=None, kmax=None):
    """(n, kmax): n = 1..5, each with kmax = 2n."""
    return [(m, 2 * m if kmax is None else kmax) for m in _given(n, range(1, 6))]


def identity_grid(kind=None, n=None, b=None):
    """(kind, n, b values) with identities k = 2..top-1 to check, top = n
    for kind f and b for kind g: kind f for n = 3..6 with the one b value
    None, kind g for n = 4..6 with b = 3..n-1."""
    return [(kd, m, _given(b, range(3, m)) if kd == "g" else [None])
            for kd in _given(kind, ("f", "g"))
            for m in _given(n, range(3 if kd == "f" else 4, 7))]


def power_grid(n=None, a=None):
    """(n, a) for thm31: n = 1..3, a = 1..4."""
    return [(m, c) for m in _given(n, range(1, 4)) for c in _given(a, range(1, 5))]


def mixed_grid(n=None, a=None, b=None):
    """(n, a, b) for thm41: n = 1..3, a = 2..3, b = 0..n-1."""
    return [(m, c, d) for m in _given(n, range(1, 4)) for c in _given(a, range(2, 4))
            for d in _given(b, range(m))]


def kind_grid(kind=None, n=None, a=None, b=None):
    """(kind, n, a, b) for swap and chain: kind f over the power grid with
    a >= 2 by default (b is None), then kind g over the mixed grid."""
    out = []
    if kind in (None, "f"):
        out += [("f", m, c, None) for m, c in power_grid(n, a) if a is not None or c >= 2]
    if kind in (None, "g"):
        out += [("g", *t) for t in mixed_grid(n, a, b)]
    return out


def colon_grid(n=None, a=None, s=None, top=False):
    """(n, a, s) for colon-lemma: n = 1..4, a = 2..4, s = 0..n-2 and the top
    case s = None; top keeps only the top case."""
    out = []
    for m in _given(n, range(1, 5)):
        for c in _given(a, range(2, 5)):
            ss = [s] if s is not None else [None] if top else [*range(m - 1), None]
            out += [(m, c, t) for t in ss]
    return out


def tree_bounds(family=None, n_max=None, bound=None):
    """(family, n_max, bound) for tree: the monomial family to n_max = 3, or
    colon closures to n_max = 2, with bound 3."""
    family = family or "monomial"
    if n_max is None:
        n_max = 3 if family == "monomial" else 2
    return family, n_max, 3 if bound is None else bound


def thm53_bounds(n_max=None, a_max=None):
    """(n_max, a_max) for thm53: the members A_n(a, m) with n <= 3, a <= 4."""
    return 3 if n_max is None else n_max, 4 if a_max is None else a_max


# --- command handlers ---------------------------------------------------------


def _newton_report(n, kmax):
    checks = []
    for k in range(1, kmax + 1):
        ok, residual = symfun.newton_check(n, k)
        _check(checks, f"newton_n{n}_k{k}", ok, residual=str(residual))
    for m in range(n, 2 * n + 1):
        _check(checks, f"vanishing_n{n}_m{m}", symfun.vanishing_sum_residual(n, m).is_zero())
    return _finish({"verifier": "newton", "params": {"n": n, "kmax": kmax}}, checks)


def _identity_report(kind, n, b_values):
    checks = []
    for b in b_values:
        top = csm.boundary_top(kind, n, b)
        for k in range(2, top):
            name = f"f_n{n}_k{k}" if kind == "f" else f"g_n{n}_b{b}_k{k}"
            _check(checks, name, symfun.derivative_identity_check(n, top, k))
    if not checks:
        given = ", ".join([f"n={n}"] + [f"b={b}" for b in b_values if b is not None])
        raise InvalidInput(f"kind {kind} with {given} has no identity to check: k = 2..top-1 "
                           "is empty unless top >= 3 (top = n for kind f, b for kind g)")
    return _finish({"verifier": "derivative-identity", "params": {"kind": kind, "n": n}},
                   checks)


def _grid_command(grid, verifier):
    """Handler running verifier on each item of grid(**params), the run's
    params being the given flags; --fail-fast stops at the first failing
    report."""

    def handler(cfg: RunConfig):
        reports = []
        for item in grid(**cfg.params):
            reports.append(verifier(*item))
            if cfg.fail_fast and not reports[-1].get("passed", False):
                break
        return reports

    return handler


def _cmd_slp(cfg: RunConfig):
    I = parse_ideal_file(cfg.params["ideal"])
    A = build_quotient(I)
    if cfg.params.get("y") is not None:
        try:
            y = parse_polynomial(cfg.params["y"], I.ring)
        except ParseError as exc:
            raise InvalidInput(f"--y '{cfg.params['y']}': {exc}") from None
        rep = slp_check_algebra(A, y)
        rep.seed = cfg.seed
    else:
        _, rep = find_lefschetz_element(A, max_tries=cfg.params.get("max_tries", MAX_TRIES),
                                        seed=cfg.seed)
    return [{**rep.to_json(), "verifier": "slp", "passed": bool(rep.holds)}]


def _cmd_csm(cfg: RunConfig):
    I = parse_ideal_file(cfg.params["ideal"])
    chain = csm.csm_chain(I)
    modules = csm.central_simple_modules(chain)
    report = {
        "verifier": "csm",
        "ideal": str(I),
        "nilpotency_index": chain.p,
        "chain": chain.to_json(),
        "modules": [{"index": m.index, "graded_dims": list(m.graded_dims),
                     "shift": m.shift} for m in modules],
        "filtration": csm.filtration_check(I, chain),
    }
    report["passed"] = report["filtration"]["passed"]
    return [report]


def _cmd_tree(cfg: RunConfig):
    p = cfg.params
    bounds = tree_bounds(p.get("family"), p.get("n_max"), p.get("bound"))
    return [tree.verify_tree_conditions(*bounds)]


def _cmd_tree_export(cfg: RunConfig):
    I = parse_ideal_file(cfg.params["ideal"])
    graph = draw.tree_graph(I, cfg.params["depth"])
    return [{"verifier": "tree-export", "graph": graph, "passed": True}]


def _cmd_thm53(cfg: RunConfig):
    n_max, a_max = thm53_bounds(cfg.params.get("n_max"), cfg.params.get("a_max"))
    return [tree.verify_family_slp(n_max, a_max, seed=cfg.seed)]


def _cmd_hilbert(cfg: RunConfig):
    I = parse_ideal_file(cfg.params["ideal"])
    hf = hf_of(I)
    return [{
        "verifier": "hilbert",
        "ideal": str(I),
        "hilbert": list(hf),
        "dimension": sum(hf),
        "socle_degree": len(hf) - 1,
        "passed": True,
    }]


# one row per grid subcommand: name, help, grid function, verifier
_GRIDS = (
    ("newton", "power sum / elementary symmetric recurrences", newton_grid, _newton_report),
    ("identity", "triangular derivative identities", identity_grid, _identity_report),
    ("thm31", "module decomposition of the pure power-sum family", power_grid,
     csm.verify_power_family),
    ("thm41", "module decomposition of the mixed family", mixed_grid, csm.verify_mixed_family),
    ("swap", "generator replacement identities", kind_grid, csm.verify_generator_swap),
    ("chain", "colon chain block boundaries", kind_grid, csm.verify_chain_blocks),
    ("colon-lemma", "colon of chain blocks by elementary symmetric polynomials",
     colon_grid, csm.verify_colon_identity),
)

_HANDLERS = {**{name: _grid_command(grid, verifier) for name, _, grid, verifier in _GRIDS},
             "slp": _cmd_slp, "csm": _cmd_csm, "tree": _cmd_tree,
             "tree-export": _cmd_tree_export, "thm53": _cmd_thm53, "hilbert": _cmd_hilbert}


# --- argument parsing -----------------------------------------------------------


def _at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"{value} is below {low}")
        return value

    return parse


# argparse types: _positive for the bounds, _nonnegative for --b, --s and --depth
_positive = _at_least(1)
_nonnegative = _at_least(0)

# the flag of each grid function parameter; --s and --top exclude each other
_FLAGS = {**dict.fromkeys(("n", "a", "kmax"), {"type": _positive}),
          **dict.fromkeys(("b", "s"), {"type": _nonnegative}),
          "kind": {"choices": ["f", "g"]},
          "top": {"action": "store_true", "help": "only the top (e_n) case"}}


def _build_parser():
    """The parser, and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="citree",
        description="Exact verification of Lefschetz properties and central "
                    "simple module decompositions for power-sum complete "
                    "intersections.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    # each flag is registered only where a run reads it: --fail-fast on
    # the grid subcommands, --seed on the two that search linear forms
    def common(p, fail_fast=False, seed=False):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if fail_fast:
            p.add_argument("--fail-fast", action="store_true", help="stop at the first failure")
        if seed:
            p.add_argument("--seed", type=int, help="seed of the candidate forms (default 0)")

    for name, text, grid, _ in _GRIDS:
        p = sub.add_parser(name, help=text)
        keys = inspect.signature(grid).parameters
        case = p.add_mutually_exclusive_group() if "top" in keys else p
        for key in keys:
            (case if key in ("s", "top") else p).add_argument(f"--{key}", **_FLAGS[key])
        common(p, fail_fast=True)

    p = sub.add_parser("slp", help="strong Lefschetz check for an ideal file")
    p.add_argument("--ideal", required=True)
    p.add_argument("--y", help="linear form; omitted means search")
    p.add_argument("--max-tries", type=_positive,
                   help=f"candidates a search tries (default {MAX_TRIES}); not with --y")
    common(p, seed=True)

    p = sub.add_parser("csm", help="central simple module decomposition of an ideal file")
    p.add_argument("--ideal", required=True)
    common(p)

    p = sub.add_parser("tree", help="binary tree closure conditions of a bounded family")
    p.add_argument("--family", choices=["monomial", "colon-closure"])
    p.add_argument("--n-max", type=_positive)
    p.add_argument("--bound", type=_positive)
    common(p)

    p = sub.add_parser("tree-export", help="the binary tree under the root of an ideal file")
    p.add_argument("--ideal", required=True)
    p.add_argument("--depth", type=_nonnegative, help=f"levels of the tree (default {DEPTH})")
    output = p.add_mutually_exclusive_group()
    output.add_argument("--dot", action="store_true", help="graphviz output")
    output.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("thm53", help="Lefschetz elements and module arrows for the whole family")
    p.add_argument("--n-max", type=_positive)
    p.add_argument("--a-max", type=_positive)
    common(p, seed=True)

    p = sub.add_parser("hilbert", help="Hilbert function of an ideal file")
    p.add_argument("--ideal", required=True)
    common(p)

    return parser, sub.choices


# flags that shape the run rather than name what it checks
_RUN_FLAGS = ("command", "json", "dot", "fail_fast", "seed")


def _config_from_args(args) -> RunConfig:
    """Every other flag that is given is a param; slp records its search
    budget and tree-export its depth when they are defaulted too."""
    params = {k: v for k, v in vars(args).items() if k not in _RUN_FLAGS and v is not None}
    if args.command == "slp":
        params.setdefault("max_tries", MAX_TRIES)
    if args.command == "tree-export":
        params.setdefault("depth", DEPTH)
    output = "dot" if getattr(args, "dot", False) else "json" if args.json else "text"
    return RunConfig(command=args.command, params=params, output=output,
                     fail_fast=getattr(args, "fail_fast", False),
                     seed=getattr(args, "seed", None) or 0)


def _summarize(report, lines, indent="  "):
    name = report.get("verifier", "report")
    params = report.get("params", {})
    suffix = " ".join(f"{k}={v}" for k, v in sorted(params.items()) if v is not None)
    status = "PASS" if report.get("passed") else "FAIL"
    lines.append(f"[{status}] {name} {suffix}".rstrip())
    for check in report.get("checks", []):
        if not check.get("passed"):
            detail = {k: v for k, v in check.items() if k not in ("name", "passed")}
            lines.append(f"{indent}failed: {check['name']} {detail}")
    if "holds" in report:
        lines.append(f"{indent}holds={report['holds']} linear_form={report.get('linear_form')}")
        for w in report.get("witnesses", []):
            lines.append(f"{indent}witness d={w['d']} i={w['i']} rank={w['rank']} expected={w['expected']}")
    if "hilbert" in report and report.get("verifier") == "hilbert":
        lines.append(f"{indent}hilbert={report['hilbert']} dim={report['dimension']}")
    if report.get("verifier") == "csm":
        for entry in report["chain"]:
            lines.append(f"{indent}exponents {entry['exponents']}: {entry['ideal']}")
    if report.get("verifier") == "family-slp":
        for member in report["members"]:
            arrows = ", ".join(a["to"] for a in member.get("arrows", []))
            lines.append(
                f"{indent}{member['label']} dim={member['dimension']} "
                f"slp={member['slp']} y={member.get('linear_form')}"
                + (f" -> {arrows}" if arrows else "")
            )


def run(cfg: RunConfig):
    """Execute one configuration; returns (exit_code, envelope, text)."""
    reports = _HANDLERS[cfg.command](cfg)
    passed = all(r.get("passed", False) for r in reports)
    envelope = {
        "version": __version__,
        "config": asdict(cfg),
        "reports": reports,
        "passed": passed,
    }
    if cfg.output == "dot":
        text = draw.export_dot(reports[0]["graph"])
    elif cfg.output == "json":
        text = json.dumps(envelope, sort_keys=True, indent=2, default=str) + "\n"
    else:
        lines = []
        for r in reports:
            _summarize(r, lines)
        lines.append(f"{'ok' if passed else 'FAILED'}: {len(reports)} report(s)")
        text = "\n".join(lines) + "\n"
    return (0 if passed else 1), envelope, text


def guarded(work) -> int:
    """work(), the exit code of a run, or the code of what it raised: 2 for
    InvalidInput or OSError, with one "error: ..." line on stderr, and 3
    for anything else, with one "internal error: ..." line."""
    try:
        return work()
    except (InvalidInput, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}".replace("\n", " "), file=sys.stderr)
        return 3


def main(argv=None) -> int:
    parser, commands = _build_parser()
    args, unknown = parser.parse_known_args(argv)
    # a flag the subcommand does not take, or a conflict, is reported under
    # the usage of the subcommand it is in
    error = commands[args.command].error
    if unknown:
        error(f"unrecognized arguments: {' '.join(unknown)}")
    if args.command in ("identity", "swap", "chain") and args.kind == "f" and args.b is not None:
        error(f"{args.command} --kind f has no b parameter, so it takes no --b")
    if args.command == "slp" and args.y is not None:
        for flag, value in (("--max-tries", args.max_tries), ("--seed", args.seed)):
            if value is not None:
                error(f"slp --y checks one linear form, so it takes no {flag}")
    cfg = _config_from_args(args)

    def work():
        code, _, text = run(cfg)
        sys.stdout.write(text)
        return code

    return guarded(work)


if __name__ == "__main__":
    sys.exit(main())
