"""Per-layer spans and work counters, installed from outside ``citree``.

``install()`` replaces the public functions of each ``citree`` module with
timing wrappers.  A function is replaced in every ``citree`` namespace that
holds it, because ``csm`` and ``tree`` import from ``ideals`` by name, and
on the class for methods (``Polynomial.__mul__``, ``RationalMatrix.__mul__``
and the ``Ideal`` Groebner accessors).

Spans nest: a span's self time is its duration minus the time of its
child spans.  A call made while the innermost open span has the same name
(recursion, or ``Ideal.groebner_basis`` reaching ``Ideal._gb_elems``) is
folded into that span, so ``calls`` counts outermost calls only.

Spans are kept in memory as columns and written out once, after the
timed region; the per-name aggregates are exact even beyond the span cap.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from array import array
from time import perf_counter

LAYERS = ("polyring", "symfun", "linalg", "ideals", "quotient", "lefschetz", "csm", "tree")

# span name -> (module, attribute); "Class.method" patches the class.
# Ideal._gb_elems is where Buchberger runs whatever public accessor asks
# first, so it shares the groebner_basis span.
TARGETS = {
    "polyring.mul": ("polyring", ("Polynomial.__mul__", "Polynomial.__rmul__")),
    "symfun.symmetric_generator": ("symfun", ("symmetric_generator",)),
    "linalg.rank": ("linalg", ("rank",)),
    "linalg.rref": ("linalg", ("rref",)),
    "ideals.groebner_basis": ("ideals", ("Ideal.groebner_basis", "Ideal.leading_exponents",
                                         "Ideal._gb_elems")),
    "ideals.normal_form": ("ideals", ("normal_form",)),
    "ideals.ideal_colon": ("ideals", ("ideal_colon",)),
    "ideals.colon_by_variable_power": ("ideals", ("colon_by_variable_power",)),
    "ideals.quotient_dimension": ("ideals", ("quotient_dimension",)),
    "ideals.ideal_equal": ("ideals", ("ideal_equal",)),
    "ideals.certify_regular_sequence": ("ideals", ("certify_regular_sequence",)),
    "ideals.standard_monomials": ("ideals", ("standard_monomials_of_degree",)),
    "quotient.build_quotient": ("quotient", ("build_quotient",)),
    "quotient.mult_map_matrix": ("quotient", ("mult_map_matrix",)),
    "quotient.matmul": ("quotient", ("RationalMatrix.__mul__",)),
    "lefschetz.slp_check_algebra": ("lefschetz", ("slp_check_algebra",)),
    "lefschetz.slp_check_module": ("lefschetz", ("slp_check_module",)),
    "lefschetz.module_view": ("lefschetz", ("module_view",)),
    "lefschetz.find_lefschetz_element": ("lefschetz", ("find_lefschetz_element",)),
    "lefschetz.module_slp_search": ("lefschetz", ("module_slp_search",)),
    "csm.csm_chain": ("csm", ("csm_chain",)),
    "csm.central_simple_modules": ("csm", ("central_simple_modules",)),
    "csm.cyclic_presentation": ("csm", ("cyclic_presentation",)),
    "tree.family_member": ("tree", ("family_member",)),
    "tree.resolve_member_label": ("tree", ("resolve_member_label",)),
    "tree.member_csm_arrows": ("tree", ("member_csm_arrows",)),
}

VERDICT_SPAN = "bench.verdict"
# Spans kept for the span file; the aggregates count every call regardless.
SPAN_CAP = 400_000


# --- work counters computed from arguments and results ----------------------


def _count_rank(tracer, args, result):
    rows = args[0]
    cols = len(rows[0]) if rows else 0
    tracer.add("linalg.rank.entries", len(rows) * cols)
    if result == min(len(rows), cols):
        tracer.add("linalg.rank.full", 1)


def _count_rref(tracer, args, result):
    rows = args[0]
    tracer.add("linalg.rref.entries", len(rows) * (len(rows[0]) if rows else 0))


def _count_standard_monomials(tracer, args, result):
    lms, width, d = args
    tracer.add("ideals.standard_monomials.monomials", len(result))
    tracer.seen("ideals.standard_monomials", (tuple(lms), width, d))


def _count_matmul(tracer, args, result):
    left, right = args
    tracer.add("quotient.matmul.mults", left.rows * left.cols * right.cols)


def _count_family_member(tracer, args, result):
    tracer.seen("tree.family_member", tuple(args))


def _count_tries(tracer, args, result):
    if result is not None:
        tracer.add("lefschetz.tries", result[1].tries)


COUNTERS = {
    "linalg.rank": _count_rank,
    "linalg.rref": _count_rref,
    "ideals.standard_monomials": _count_standard_monomials,
    "quotient.matmul": _count_matmul,
    "tree.family_member": _count_family_member,
    "lefschetz.find_lefschetz_element": _count_tries,
    "lefschetz.module_slp_search": _count_tries,
}


class Tracer:
    """Open-span stack, per-name aggregates, counters and span columns."""

    def __init__(self):
        self.names = []
        self._name_id = {}
        self.calls = {}
        self.self_s = {}
        self.counts = {}
        self._seen = {}
        self._stack = []  # [name, span id, child seconds]
        self._next_id = 0
        self.run = -1
        self.dropped = 0
        self.col_id = array("q")
        self.col_name = array("H")
        self.col_start = array("d")
        self.col_end = array("d")
        self.col_parent = array("q")
        self.col_run = array("l")

    def add(self, counter, amount):
        self.counts[counter] = self.counts.get(counter, 0) + amount

    def seen(self, name, key):
        """Count a call whose arguments were already seen as a repeat."""
        keys = self._seen.setdefault(name, set())
        if key in keys:
            self.add(name + ".repeats", 1)
        else:
            keys.add(key)

    def _intern(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.self_s[name] = 0.0
        return nid

    def call(self, name, fn, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == name:
            return fn(*args, **kwargs)
        nid = self._intern(name)
        span_id = self._next_id
        self._next_id += 1
        parent = stack[-1][1] if stack else -1
        frame = [name, span_id, 0.0]
        stack.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            duration = end - start
            self.calls[name] += 1
            self.self_s[name] += duration - frame[2]
            if stack:
                stack[-1][2] += duration
            if len(self.col_id) < SPAN_CAP:
                self.col_id.append(span_id)
                self.col_name.append(nid)
                self.col_start.append(start)
                self.col_end.append(end)
                self.col_parent.append(parent)
                self.col_run.append(self.run)
            else:
                self.dropped += 1

    def wrap(self, name, fn):
        count = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = tracer.call(name, fn, args, kwargs)
            if count is not None:
                count(tracer, args, result)
            return result

        return wrapper

    def install(self):
        """Wrap every target in every loaded ``citree`` namespace."""
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "citree" or key.startswith("citree."))]
        for name, (module, attrs) in TARGETS.items():
            home = sys.modules["citree." + module]
            for attr in attrs:
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(home, cls_name)
                    setattr(cls, meth, self.wrap(name, cls.__dict__[meth]))
                    continue
                original = getattr(home, attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    # --- results -------------------------------------------------------------

    def metrics(self):
        """Per-layer metrics of this process, by name (without overhead)."""
        out = {}
        for name in TARGETS:
            out[name + ".calls"] = self.calls.get(name, 0)
            out[name + ".self_s"] = self.self_s.get(name, 0.0)
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(
                (s for n, s in self.self_s.items() if n.split(".")[0] == layer), 0.0)
        c = self.counts
        out["linalg.rank.entries"] = c.get("linalg.rank.entries", 0)
        out["linalg.rank.full_share"] = _share(c.get("linalg.rank.full", 0),
                                               out["linalg.rank.calls"])
        out["linalg.rref.entries"] = c.get("linalg.rref.entries", 0)
        out["ideals.standard_monomials.monomials"] = c.get("ideals.standard_monomials.monomials", 0)
        out["ideals.standard_monomials.repeat_share"] = _share(
            c.get("ideals.standard_monomials.repeats", 0), out["ideals.standard_monomials.calls"])
        out["quotient.matmul.mults"] = c.get("quotient.matmul.mults", 0)
        out["tree.family_member.repeat_share"] = _share(
            c.get("tree.family_member.repeats", 0), out["tree.family_member.calls"])
        out["lefschetz.tries"] = c.get("lefschetz.tries", 0)
        out["unattributed.self_s"] = self.self_s.get(VERDICT_SPAN, 0.0)
        return out

    def write_spans(self, path, run_labels, meta):
        """Write the span columns as gzip-compressed JSON."""
        doc = {
            "meta": meta,
            "runs": run_labels,
            "names": self.names,
            "dropped": self.dropped,
            "columns": ["id", "name", "start", "end", "parent", "run"],
            "id": self.col_id.tolist(),
            "name": self.col_name.tolist(),
            "start": self.col_start.tolist(),
            "end": self.col_end.tolist(),
            "parent": self.col_parent.tolist(),
            "run": self.col_run.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=3) as handle:
            json.dump(doc, handle, separators=(",", ":"))


def _share(part, whole):
    return part / whole if whole else 0.0
