"""Command line interface: verification suites and ad-hoc queries.

Every run prints either a human-readable summary or a deterministic JSON
report (sorted keys, seed recorded).  Exit status:

    0  every requested check passed
    1  a verification failed
    2  invalid input (bad flags, unreadable or malformed ideal file)
    3  internal error: the verifier itself raised (an assertion or a
       budget exceeded); one "internal error: ..." line goes to stderr
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field

from . import __version__, csm, symfun, tree
from .ideals import Ideal
from .lefschetz import find_lefschetz_element, slp_check_algebra
from .polyring import ParseError, RingSpec, parse_polynomial
from .quotient import build_quotient


@dataclass
class RunConfig:
    command: str
    params: dict = field(default_factory=dict)
    output: str = "text"  # text | json | dot
    fail_fast: bool = False
    check_top_degree: bool = False
    seed: int = 0
    modular_prefilter_prime: int | None = None

    def to_json(self):
        return {
            "command": self.command,
            "params": {k: v for k, v in sorted(self.params.items())},
            "output": self.output,
            "fail_fast": self.fail_fast,
            "check_top_degree": self.check_top_degree,
            "seed": self.seed,
            "modular_prefilter_prime": self.modular_prefilter_prime,
        }


def parse_ideal_file(path: str) -> Ideal:
    """JSON schema: {"nvars": int, "has_z": bool, "generators": [str, ...]}."""
    with open(path) as handle:
        data = json.load(handle)
    try:
        ring = RingSpec(int(data["nvars"]), bool(data.get("has_z", False)))
        gens = [parse_polynomial(text, ring) for text in data["generators"]]
    except KeyError as exc:
        raise ValueError(f"ideal file {path} is missing the {exc} field") from None
    return Ideal(ring, gens)


def _grid_run(fn, grid, cfg):
    reports = []
    for item in grid:
        report = fn(item)
        reports.append(report)
        if cfg.fail_fast and not report.get("passed", False):
            break
    return reports


# --- command handlers ---------------------------------------------------------


def _cmd_newton(cfg: RunConfig):
    n_values = [cfg.params["n"]] if cfg.params.get("n") else list(range(1, 6))
    reports = []
    for n in n_values:
        kmax = cfg.params.get("kmax") or 2 * n
        checks = []
        for k in range(1, kmax + 1):
            ok, residual = symfun.newton_check(n, k)
            checks.append({"name": f"newton_n{n}_k{k}", "passed": ok,
                           "residual": str(residual)})
        for m in range(n, 2 * n + 1):
            res = symfun.vanishing_sum_residual(n, m)
            checks.append({"name": f"vanishing_n{n}_m{m}", "passed": res.is_zero()})
        reports.append({"verifier": "newton", "params": {"n": n, "kmax": kmax},
                        "checks": checks,
                        "passed": all(c["passed"] for c in checks)})
    return reports


def _cmd_identity(cfg: RunConfig):
    kind = cfg.params.get("kind")
    kinds = [kind] if kind else ["f", "g"]
    n_values = [cfg.params["n"]] if cfg.params.get("n") else list(range(1, 7))
    reports = []
    for kd in kinds:
        for n in n_values:
            checks = []
            if kd == "f":
                for k in range(2, n):
                    ok = symfun.derivative_identity_check("f", n, None, k)
                    checks.append({"name": f"f_n{n}_k{k}", "passed": ok})
            else:
                b_values = [cfg.params["b"]] if cfg.params.get("b") is not None else list(range(n))
                for b in b_values:
                    for k in range(2, b):
                        ok = symfun.derivative_identity_check("g", n, b, k)
                        checks.append({"name": f"g_n{n}_b{b}_k{k}", "passed": ok})
            reports.append({"verifier": "derivative-identity",
                            "params": {"kind": kd, "n": n},
                            "checks": checks,
                            "passed": all(c["passed"] for c in checks)})
    return reports


def _default_grid(cfg, mixed: bool):
    if cfg.params.get("n"):
        ns = [cfg.params["n"]]
    else:
        ns = list(range(1, 4))
    grid = []
    for n in ns:
        a_values = [cfg.params["a"]] if cfg.params.get("a") else (
            list(range(2, 4)) if mixed else list(range(1, 5)))
        for a in a_values:
            if mixed:
                b_values = ([cfg.params["b"]] if cfg.params.get("b") is not None
                            else list(range(n)))
                for b in b_values:
                    grid.append((n, a, b))
            else:
                grid.append((n, a))
    return grid


def _cmd_thm31(cfg: RunConfig):
    grid = _default_grid(cfg, mixed=False)
    return _grid_run(lambda t: csm.verify_power_family(*t), grid, cfg)


def _cmd_thm41(cfg: RunConfig):
    grid = _default_grid(cfg, mixed=True)
    return _grid_run(lambda t: csm.verify_mixed_family(*t), grid, cfg)


def _cmd_swap(cfg: RunConfig):
    kind = cfg.params.get("kind")
    reports = []
    if kind in (None, "f"):
        grid = [(n, a) for (n, a) in _default_grid(cfg, mixed=False) if a >= 2]
        reports += _grid_run(lambda t: csm.verify_generator_swap("f", *t), grid, cfg)
    if kind in (None, "g"):
        grid = _default_grid(cfg, mixed=True)
        reports += _grid_run(lambda t: csm.verify_generator_swap("g", t[0], t[1], t[2]),
                             grid, cfg)
    return reports


def _cmd_chain(cfg: RunConfig):
    kind = cfg.params.get("kind")
    reports = []
    if kind in (None, "f"):
        grid = [(n, a) for (n, a) in _default_grid(cfg, mixed=False) if a >= 2]
        reports += _grid_run(lambda t: csm.verify_chain_blocks("f", *t), grid, cfg)
    if kind in (None, "g"):
        grid = _default_grid(cfg, mixed=True)
        reports += _grid_run(lambda t: csm.verify_chain_blocks("g", t[0], t[1], t[2]),
                             grid, cfg)
    return reports


def _cmd_colon_lemma(cfg: RunConfig):
    ns = [cfg.params["n"]] if cfg.params.get("n") else list(range(1, 5))
    a_values = [cfg.params["a"]] if cfg.params.get("a") else list(range(2, 5))
    jobs = []
    for n in ns:
        for a in a_values:
            if cfg.params.get("s") is not None:
                jobs.append((n, a, cfg.params["s"]))
            elif cfg.params.get("top"):
                jobs.append((n, a, None))
            else:
                jobs.extend((n, a, s) for s in range(0, n - 1))
                jobs.append((n, a, None))
    return _grid_run(lambda t: csm.verify_colon_identity(*t), jobs, cfg)


def _cmd_slp(cfg: RunConfig):
    I = parse_ideal_file(cfg.params["ideal"])
    A = build_quotient(I)
    if cfg.params.get("y"):
        y = parse_polynomial(cfg.params["y"], I.ring)
        rep = slp_check_algebra(A, y, cfg.check_top_degree,
                                cfg.modular_prefilter_prime)
        rep.seed = cfg.seed
        out = rep.to_json()
    else:
        found = find_lefschetz_element(A, max_tries=cfg.params.get("max_tries", 24),
                                       seed=cfg.seed,
                                       check_top_degree=cfg.check_top_degree,
                                       prefilter_prime=cfg.modular_prefilter_prime)
        if found is None:
            out = {"subject": str(I), "holds": False,
                   "witnesses": [], "hilbert": list(A.hilbert_function()),
                   "seed": cfg.seed, "tries": cfg.params.get("max_tries", 24),
                   "linear_form": None, "top_degree_checked": cfg.check_top_degree}
        else:
            out = found[1].to_json()
    out["verifier"] = "slp"
    out["passed"] = bool(out["holds"])
    return [out]


def _cmd_csm(cfg: RunConfig):
    I = parse_ideal_file(cfg.params["ideal"])
    chain = csm.csm_chain(I)
    modules = csm.central_simple_modules(I, chain)
    report = {
        "verifier": "csm",
        "ideal": str(I),
        "nilpotency_index": chain.p,
        "chain": [{"ideal": J.canonical_str(), "exponents": [lo, hi]}
                  for J, lo, hi in chain.entries],
        "modules": [{"index": m.index, "graded_dims": list(m.graded_dims),
                     "shift": m.shift} for m in modules],
    }
    filt = csm.filtration_check(I)
    term = csm.verify_terminal_csm(I)
    report["filtration"] = filt
    report["terminal"] = term
    report["passed"] = filt["passed"] and term["passed"]
    return [report]


def _cmd_tree(cfg: RunConfig):
    if cfg.params.get("ideal"):
        I = parse_ideal_file(cfg.params["ideal"])
        node = tree.binary_tree(I, cfg.params.get("depth", 3))
        graph = tree.tree_graph(node)
        return [{"verifier": "tree-export", "graph": graph, "passed": True}]
    family = cfg.params.get("family", "monomial")
    n_max = cfg.params.get("n_max", 3 if family == "monomial" else 2)
    bound = cfg.params.get("bound", 3)
    return [tree.verify_tree_conditions(family, n_max, bound)]


def _cmd_thm53(cfg: RunConfig):
    n_max = cfg.params.get("n_max", 3)
    a_max = cfg.params.get("a_max", 4)
    report = tree.verify_family_slp(n_max, a_max,
                                    check_modules=cfg.params.get("check_modules", True),
                                    seed=cfg.seed)
    out = [report]
    if cfg.params.get("diagram"):
        roots = tree.family_members(n_max, a_max)
        graph = tree.csm_diagram(roots, seed=cfg.seed)
        out.append({"verifier": "csm-diagram", "graph": graph,
                    "passed": graph["passed"]})
    return out


def _cmd_hilbert(cfg: RunConfig):
    I = parse_ideal_file(cfg.params["ideal"])
    A = build_quotient(I)
    return [{
        "verifier": "hilbert",
        "ideal": str(I),
        "hilbert": list(A.hilbert_function()),
        "dimension": A.dimension(),
        "socle_degree": A.socle_degree,
        "passed": True,
    }]


_HANDLERS = {
    "newton": _cmd_newton,
    "identity": _cmd_identity,
    "thm31": _cmd_thm31,
    "thm41": _cmd_thm41,
    "swap": _cmd_swap,
    "chain": _cmd_chain,
    "colon-lemma": _cmd_colon_lemma,
    "slp": _cmd_slp,
    "csm": _cmd_csm,
    "tree": _cmd_tree,
    "thm53": _cmd_thm53,
    "hilbert": _cmd_hilbert,
}


# --- argument parsing -----------------------------------------------------------


def _is_prime(p: int) -> bool:
    """Miller-Rabin with the first twelve primes as bases: exact below 3.3e24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if p < 2:
        return False
    if p in bases:
        return True
    if any(p % b == 0 for b in bases):
        return False
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(r - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _prime(text: str) -> int:
    """argparse type for --prime: a prime p with 2 <= p < 2^63."""
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if not (2 <= p < 2 ** 63 and _is_prime(p)):
        raise argparse.ArgumentTypeError(f"{p} is not a prime p with 2 <= p < 2^63")
    return p


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="citree",
        description="Exact verification of Lefschetz properties and central "
                    "simple module decompositions for power-sum complete "
                    "intersections.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--fail-fast", action="store_true")
        p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("newton", help="power sum / elementary symmetric recurrences")
    p.add_argument("--n", type=int)
    p.add_argument("--kmax", type=int)
    common(p)

    p = sub.add_parser("identity", help="triangular derivative identities")
    p.add_argument("--kind", choices=["f", "g"])
    p.add_argument("--n", type=int)
    p.add_argument("--b", type=int)
    common(p)

    p = sub.add_parser("thm31", help="module decomposition of the pure power-sum family")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    common(p)

    p = sub.add_parser("thm41", help="module decomposition of the mixed family")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    common(p)

    p = sub.add_parser("swap", help="generator replacement identities")
    p.add_argument("--kind", choices=["f", "g"])
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    common(p)

    p = sub.add_parser("chain", help="colon chain block boundaries")
    p.add_argument("--kind", choices=["f", "g"])
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    common(p)

    p = sub.add_parser("colon-lemma", help="colon of chain blocks by elementary symmetric polynomials")
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--top", action="store_true", help="only the top (e_n) case")
    common(p)

    p = sub.add_parser("slp", help="strong Lefschetz check for an ideal file")
    p.add_argument("--ideal", required=True)
    p.add_argument("--y", help="linear form; omitted means search")
    p.add_argument("--max-tries", type=int, default=24)
    p.add_argument("--check-top-degree", action="store_true",
                   help="also test the top power map d = socle degree")
    p.add_argument("--prime", type=_prime, default=None,
                   help="modular prefilter prime for rank computations")
    common(p)

    p = sub.add_parser("csm", help="central simple module decomposition of an ideal file")
    p.add_argument("--ideal", required=True)
    common(p)

    p = sub.add_parser("tree", help="binary tree conditions or tree export")
    p.add_argument("--family", choices=["monomial", "colon-closure"])
    p.add_argument("--n-max", type=int)
    p.add_argument("--bound", type=int)
    p.add_argument("--ideal", help="export the tree under this root instead")
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--dot", action="store_true")
    common(p)

    p = sub.add_parser("thm53", help="Lefschetz elements and module arrows for the whole family")
    p.add_argument("--n-max", type=int)
    p.add_argument("--a-max", type=int)
    p.add_argument("--skip-modules", action="store_true")
    p.add_argument("--diagram", action="store_true")
    p.add_argument("--dot", action="store_true")
    common(p)

    p = sub.add_parser("hilbert", help="Hilbert function of an ideal file")
    p.add_argument("--ideal", required=True)
    common(p)

    return parser


def _config_from_args(args) -> RunConfig:
    params = {}
    for key in ("n", "a", "b", "s", "kind", "kmax", "ideal", "y", "top",
                "depth", "family", "bound", "diagram"):
        if hasattr(args, key) and getattr(args, key) is not None:
            params[key] = getattr(args, key)
    if hasattr(args, "n_max") and args.n_max is not None:
        params["n_max"] = args.n_max
    if hasattr(args, "a_max") and args.a_max is not None:
        params["a_max"] = args.a_max
    if hasattr(args, "max_tries"):
        params["max_tries"] = args.max_tries
    if getattr(args, "skip_modules", False):
        params["check_modules"] = False
    output = "json" if args.json else "text"
    if getattr(args, "dot", False):
        output = "dot"
    return RunConfig(
        command=args.command,
        params=params,
        output=output,
        fail_fast=args.fail_fast,
        check_top_degree=getattr(args, "check_top_degree", False),
        seed=args.seed,
        modular_prefilter_prime=getattr(args, "prime", None),
    )


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
    handler = _HANDLERS[cfg.command]
    reports = handler(cfg)
    passed = all(r.get("passed", False) for r in reports)
    envelope = {
        "version": __version__,
        "config": cfg.to_json(),
        "reports": reports,
        "passed": passed,
    }
    if cfg.output == "dot":
        graph = None
        for r in reports:
            if "graph" in r:
                graph = r["graph"]
        text = tree.export_dot(graph) if graph else ""
    elif cfg.output == "json":
        text = json.dumps(envelope, sort_keys=True, indent=2, default=str) + "\n"
    else:
        lines = []
        for r in reports:
            _summarize(r, lines)
        lines.append(f"{'ok' if passed else 'FAILED'}: {len(reports)} report(s)")
        text = "\n".join(lines) + "\n"
    return (0 if passed else 1), envelope, text


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _config_from_args(args)
    try:
        code, _, text = run(cfg)
    except (ParseError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}".replace("\n", " "), file=sys.stderr)
        return 3
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
