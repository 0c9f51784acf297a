"""In-memory span tracing around lcnf's public entry points.

The tracer patches functions and methods from outside the package; nothing
under ``src/`` knows about it.  A function imported by name into another
module (``interface`` imports ``compute_lmes``, ``duality`` imports
``duality_preconditions``) is patched in every module that holds it.

Each span has a request id, its own id, its parent's id, a name, a start
and an end.  Self time is a span's duration minus the time its children
cover.  ``LcnfFormula.labels_of`` runs millions of times per run, so it is
counted and timed in aggregate instead of as spans; its time still counts
against its parent's self time.
"""
from __future__ import annotations

import json
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

# span name -> (module, attribute path) of what it wraps
ENTRY_POINTS = {
    "interface.parse": [
        ("lcnf.interface", "parse_dimacs"),
        ("lcnf.interface", "parse_gcnf"),
        ("lcnf.interface", "parse_lcnf"),
        ("lcnf.core", "label"),
    ],
    "oracle.build": [("lcnf.oracle", "LcnfOracle.__init__")],
    "oracle.sat": [("lcnf.oracle", "LcnfOracle.is_sat_induced")],
    "oracle.entail": [("lcnf.oracle", "LcnfOracle.entails_clause")],
    "oracle.equiv": [("lcnf.oracle", "LcnfOracle.is_equivalent_subformula")],
    "solver.solve": [("lcnf.oracle", "Solver.solve")],
    "analysis.compute": [
        ("lcnf.analysis", "compute_lmes"),
        ("lcnf.analysis", "compute_lmus"),
        ("lcnf.analysis", "compute_lmss"),
        ("lcnf.analysis", "compute_lmns"),
    ],
    "bruteforce.classify": [("lcnf.bruteforce", "classify_all")],
    "duality.hitting_sets": [("lcnf.duality", "enumerate_minimal_hitting_sets")],
    "duality.verify": [("lcnf.duality", "verify_duality")],
    "duality.preconditions": [("lcnf.analysis", "duality_preconditions")],
}
REQUEST = "interface.request"
NAMES = [REQUEST, *ENTRY_POINTS]
_NAME_INDEX = {n: i for i, n in enumerate(NAMES)}
_QUERIES = ("oracle.sat", "oracle.entail", "oracle.equiv")


def _note(name, args, result, counts):
    """Counters that need an argument or the result of a call."""
    if name == "solver.solve":
        counts["solver.sat"] += bool(result.satisfiable)
    elif name == "analysis.compute":
        counts["analysis.labels"] += len(args[0].active_labels)
    elif name == "bruteforce.classify":
        counts["bruteforce.subsets"] += 1 << len(result.active_labels)
    elif name == "duality.hitting_sets":
        counts["duality.hitting_sets_out"] += len(result)


class Tracer:
    """Spans and counters for the requests run while it is installed."""

    def __init__(self):
        self.columns = {c: array("q") for c in ("request", "span", "parent", "name", "start", "end")}
        self.request_id = 0
        self._next_span = 1
        self._stack = []  # [span id, name, child ns]
        self._open = Counter()
        self._patches = []
        self.counts = Counter()
        self.busy_ns = Counter()  # outermost spans of each name
        self.self_ns = Counter()

    # -- recording -----------------------------------------------------------

    def _span(self, name, fn, args, kwargs):
        stack = self._stack
        sid = self._next_span
        self._next_span += 1
        parent = stack[-1] if stack else None
        frame = [sid, name, 0]
        stack.append(frame)
        self._open[name] += 1
        counts = self.counts
        counts[name] += 1
        if name == "solver.solve":
            if self._open["oracle.equiv"]:
                counts["oracle.solves_in_equiv"] += 1
            if self._open["duality.preconditions"]:
                counts["duality.precondition_solves"] += 1
        elif parent is not None and parent[1] == "analysis.compute" and name in _QUERIES:
            counts["analysis.queries"] += 1
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            self._open[name] -= 1
            duration = end - start
            if parent is not None:
                parent[2] += duration
            if not self._open[name]:
                self.busy_ns[name] += duration
            self.self_ns[name] += duration - frame[2]
            cols = self.columns
            cols["request"].append(self.request_id)
            cols["span"].append(sid)
            cols["parent"].append(parent[0] if parent else 0)
            cols["name"].append(_NAME_INDEX[name])
            cols["start"].append(start)
            cols["end"].append(end)
        _note(name, args, result, counts)
        return result

    def request(self, fn, *args):
        """Run one request under a root span with a fresh request id."""
        self.request_id += 1
        return self._span(REQUEST, fn, args, {})

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self._span(name, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    def _labels_of(self, fn):
        stack = self._stack
        counts = self.counts
        busy = self.busy_ns

        def labels_of(formula, clause):
            start = perf_counter_ns()
            result = fn(formula, clause)
            duration = perf_counter_ns() - start
            counts["core.labels_of"] += 1
            busy["core.labels_of"] += duration
            if stack:
                stack[-1][2] += duration
            return result

        return labels_of

    # -- patching ------------------------------------------------------------

    def install(self):
        """Patch every entry point, in every lcnf module that holds it."""
        modules = [m for n, m in sys.modules.items() if n == "lcnf" or n.startswith("lcnf.")]
        for name, targets in ENTRY_POINTS.items():
            for module, path in targets:
                owner = sys.modules[module]
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = self._wrapper(name, original)
                self._set(owner, attr, wrapped)
                if not outer:
                    for m in modules:
                        for key, value in list(vars(m).items()):
                            if value is original:
                                self._set(m, key, wrapped)
        formula = sys.modules["lcnf.core"].LcnfFormula
        self._set(formula, "labels_of", self._labels_of(formula.labels_of))

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics for one pass, from aggregates over ``passes``."""
        c, busy, own = self.counts, self.busy_ns, self.self_ns

        def per_pass_s(ns):
            return ns / passes / 1e9

        def count(key):
            return c[key] // passes

        def ratio(a, b):
            return a / b if b else 0.0

        def layer_self(prefix):
            return per_pass_s(sum(v for k, v in own.items() if k.startswith(prefix)))

        subsets = count("bruteforce.subsets")
        classify_s = per_pass_s(busy["bruteforce.classify"])
        return {
            "interface.requests": count(REQUEST),
            "interface.parse_s": per_pass_s(busy["interface.parse"]),
            "interface.self_s": layer_self("interface."),
            "core.labels_of_calls": count("core.labels_of"),
            "core.labels_of_s": per_pass_s(busy["core.labels_of"]),
            "solver.calls": count("solver.solve"),
            "solver.busy_s": per_pass_s(busy["solver.solve"]),
            "solver.sat_ratio": ratio(c["solver.sat"], c["solver.solve"]),
            "oracle.builds": count("oracle.build"),
            "oracle.build_s": per_pass_s(busy["oracle.build"]),
            "oracle.sat_queries": count("oracle.sat"),
            "oracle.entail_queries": count("oracle.entail"),
            "oracle.equiv_queries": count("oracle.equiv"),
            "oracle.self_s": layer_self("oracle."),
            "oracle.solves_per_equiv": ratio(c["oracle.solves_in_equiv"], c["oracle.equiv"]),
            "analysis.busy_s": per_pass_s(busy["analysis.compute"]),
            "analysis.self_s": layer_self("analysis."),
            "analysis.labels": count("analysis.labels"),
            "analysis.queries_per_label": ratio(c["analysis.queries"], c["analysis.labels"]),
            "bruteforce.busy_s": classify_s,
            "bruteforce.self_s": layer_self("bruteforce."),
            "bruteforce.subsets": subsets,
            "bruteforce.us_per_subset": ratio(classify_s * 1e6, subsets),
            "duality.hitting_set_calls": count("duality.hitting_sets"),
            "duality.hitting_set_s": per_pass_s(busy["duality.hitting_sets"]),
            "duality.hitting_sets_out": count("duality.hitting_sets_out"),
            "duality.precondition_solves": count("duality.precondition_solves"),
        }

    def write(self, directory: Path, stem: str, header: dict):
        """Write the spans as little-endian int64 columns plus a JSON header."""
        directory.mkdir(parents=True, exist_ok=True)
        n = len(self.columns["span"])
        with open(directory / f"{stem}.spans", "wb") as f:
            for col in self.columns.values():
                col.tofile(f)
        meta = {
            **header,
            "spans": n,
            "columns": list(self.columns),
            "dtype": "int64, native byte order, one column after another",
            "names": NAMES,
            "time_unit": "ns (perf_counter_ns)",
        }
        (directory / f"{stem}.json").write_text(json.dumps(meta, indent=1) + "\n")
