"""Diagrams: the arrow diagram spanned by central simple module arrows, the
binary tree under an ideal, and their DOT and JSON renderings.

Only tree-export and scripts/derive_diagram.py draw; no verifier imports
this module, so the verification modules load without it.
"""

from __future__ import annotations

import json

from .ideals import Ideal, hf_of
from .tree import children, member_csm_arrows


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
    left and then its right subtree, and the edge to a node comes right
    before it.  The walk keeps its own stack, so a deep tree needs no
    recursion.

    The root is Artinian (hf_of refuses it otherwise), and so is every
    child.  A left child never equals its parent: when v is not in I, v is
    nilpotent on R/I, so the last power of v outside I lies in (I : v).
    """
    nodes = []
    edges = []
    stack = [(root, "root", max_depth, None)]
    while stack:
        I, name, depth, edge = stack.pop()
        if edge is not None:
            edges.append(edge)
        nodes.append({"label": name, "level": I.ring.total_vars,
                      "ideal": I.canonical_str(), "hilbert": list(hf_of(I))})
        if depth <= 0:
            continue
        left, right = children(I)
        # pushed right first, so the left subtree is walked first
        for kind, child, suffix, index in (("right", right, "R", 0), ("left", left, "L", 1)):
            if child is not None:
                stack.append((child, name + suffix, depth - 1,
                              {"from": name, "to": name + suffix, "kind": kind, "index": index}))
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
    return json.dumps({"nodes": graph["nodes"], "edges": graph["edges"]},
                      sort_keys=True, indent=2) + "\n"
