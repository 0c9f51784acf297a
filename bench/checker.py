"""Answer checker for the benchmark, written from the definitions.

It shares no code with ``lcnf``: it reads the labelled clause rows the
corpus generator produced, never the program's parsed formula.  Witnesses
are checked against their definitions:

* LMES S: the subformula induced by S is equivalent to the formula, and
  dropping any label of S breaks that;
* LMUS S: induced by S is unsatisfiable, and dropping any label of S makes
  it satisfiable;
* LMNS S: induced by S is not equivalent, and adding any absent label makes
  it equivalent;
* MCS C: the complement M of C is satisfiable, and adding any label of C to
  M makes it unsatisfiable.

Equivalence and satisfiability are monotone in the label set (more labels,
more clauses), so checking immediate neighbours is enough.

Witness queries are one-shot solves on plain clauses (the ``solve``
callable passed in): a SAT answer comes with a model that is evaluated here,
an UNSAT answer is taken from a fresh solver that has seen no other query.
Enumerated families and ``verify-duality`` answers are checked against a
truth-table classification of every label subset (a clause's models are
one big integer over all assignments), with hitting sets found by brute
force.  ``dpll`` is a small independent solver for the corpus generator.
"""
from __future__ import annotations


class CheckError(Exception):
    """A claim could not be confirmed (a SAT model that does not evaluate)."""


# -- a small independent DPLL, for the corpus generator ----------------------


def dpll(clauses) -> dict | None:
    """A model of the clause list, or None when it is unsatisfiable."""
    return _dpll([tuple(c) for c in clauses], {}, [0])


def search_nodes(clauses) -> int:
    """How many search nodes ``dpll`` visits on the clause list."""
    nodes = [0]
    _dpll([tuple(c) for c in clauses], {}, nodes)
    return nodes[0]


def _dpll(clauses, assign, nodes):
    nodes[0] += 1
    while True:
        reduced = []
        unit = None
        for c in clauses:
            rest = []
            done = False
            for l in c:
                v = assign.get(abs(l))
                if v is None:
                    rest.append(l)
                elif v == (l > 0):
                    done = True
                    break
            if done:
                continue
            if not rest:
                return None
            if len(rest) == 1:
                unit = rest[0]
            reduced.append(rest)
        if unit is None:
            break
        assign = {**assign, abs(unit): unit > 0}
        clauses = reduced
    if not reduced:
        return assign
    counts = {}
    for c in reduced:
        w = 1.0 / (1 << len(c))
        for l in c:
            counts[l] = counts.get(l, 0.0) + w
    lit = max(counts, key=lambda l: (counts[l] + counts.get(-l, 0.0), counts[l], -l))
    for choice in (lit, -lit):
        model = _dpll(reduced, {**assign, abs(choice): choice > 0}, nodes)
        if model is not None:
            return model
    return None


# -- helpers -----------------------------------------------------------------


def _active(rows) -> frozenset:
    return frozenset().union(*(ls for ls, _ in rows))


def _induced(rows, labels) -> list:
    return [c for ls, c in rows if ls <= labels]


def _satisfies(model: dict, clause) -> bool:
    return any(model.get(abs(l)) == (l > 0) for l in clause)


# -- queries ---------------------------------------------------------------


def _clause_models(rows):
    """Every assignment as one bit of a big integer: (all of them, each clause's)."""
    variables = sorted({abs(l) for _, c in rows for l in c})
    universe = (1 << (1 << len(variables))) - 1
    lit = {}
    for i, v in enumerate(variables):
        period = 2 << i
        block = ((1 << (1 << i)) - 1) << (1 << i)
        m = 0
        for offset in range(0, 1 << len(variables), period):
            m |= block << offset
        lit[v], lit[-v] = m, universe & ~m
    models = []
    for _, c in rows:
        m = 0
        for l in c:
            m |= lit[l]
        models.append(m)
    return universe, models


class _Queries:
    """Satisfiability and implication of induced subformulas by one-shot solves.

    SAT answers are re-evaluated against the query's clauses.
    """

    def __init__(self, rows, solve):
        self.rows = rows
        self.solve = solve
        self.top = max((abs(l) for _, c in rows for l in c), default=0)

    def _model(self, clauses, check):
        model = self.solve(clauses)
        if model is not None and not check(model):
            raise CheckError("solver model does not satisfy the query")
        return model

    def sat(self, labels) -> bool:
        kept = _induced(self.rows, labels)
        return self._model(kept, lambda m: all(_satisfies(m, c) for c in kept)) is not None

    def implies(self, labels, wider) -> bool:
        kept = _induced(self.rows, labels)
        removed = [c for ls, c in self.rows if ls <= wider and not ls <= labels]
        if not removed:
            return True
        # kept AND (some removed clause is false), one auxiliary a_i per clause
        clauses = list(kept)
        aux = []
        for i, c in enumerate(removed):
            a = self.top + 1 + i
            aux.append(a)
            clauses.extend((-a, -l) for l in c)
        clauses.append(tuple(aux))

        def check(m):
            return all(_satisfies(m, c) for c in kept) and not all(
                _satisfies(m, c) for c in removed
            )

        return self._model(clauses, check) is None


# -- exhaustive classification ----------------------------------------------


class TruthTable:
    """Satisfiability and equivalence of every label subset, by truth table.

    Clauses are grouped by label set; a subset's model set is the AND of the
    groups it contains.  Only the two answers per subset are kept, so the
    memory stays small next to the program being measured.  Label subsets
    are bitmasks over the sorted active labels.
    """

    def __init__(self, rows):
        self.rows = rows
        self.labels = sorted(_active(rows))
        k = len(self.labels)
        bit = {l: 1 << i for i, l in enumerate(self.labels)}
        universe, clause_models = _clause_models(rows)
        groups = {}
        for (ls, _), m in zip(rows, clause_models):
            mask = sum(bit[l] for l in ls)
            groups[mask] = groups.get(mask, universe) & m
        groups = list(groups.items())
        full = universe
        for _, m in groups:
            full &= m
        self.k = k
        self.sat = []
        self.equiv = []
        for subset in range(1 << k):
            models = universe
            for mask, m in groups:
                if mask & ~subset == 0:
                    models &= m
            self.sat.append(models != 0)
            self.equiv.append(models == full)

    def _set(self, mask) -> frozenset:
        return frozenset(l for i, l in enumerate(self.labels) if mask >> i & 1)

    def _masks(self, name) -> list:
        k, sat, equiv = self.k, self.sat, self.equiv
        bits = [1 << i for i in range(k)]
        full = (1 << k) - 1
        out = []
        for m in range(1 << k):
            inside = [b for b in bits if m & b]
            outside = [b for b in bits if not m & b]
            if name == "lmes":
                ok = equiv[m] and not any(equiv[m ^ b] for b in inside)
            elif name == "lmus":
                ok = not sat[m] and all(sat[m ^ b] for b in inside)
            elif name in ("lmns", "colmns"):
                ok = not equiv[m] and all(equiv[m | b] for b in outside)
            else:  # lmss, colmss
                ok = sat[m] and not any(sat[m | b] for b in outside)
            if ok:
                out.append(full ^ m if name.startswith("co") else m)
        return out

    def family(self, name) -> set:
        return {self._set(m) for m in self._masks(name)}

    def duality_applicable(self) -> bool:
        if not self.labels:
            return False
        if any(not ls for ls, _ in self.rows):
            full = (1 << self.k) - 1
            return any(not self.equiv[full ^ (1 << i)] for i in range(self.k))
        return True

    def _minimal_hitting_sets(self, family_masks) -> set:
        k = self.k
        hits = [all(m & f for f in family_masks) for m in range(1 << k)]
        return {
            m
            for m in range(1 << k)
            if hits[m] and not any(hits[m ^ (1 << i)] for i in range(k) if m >> i & 1)
        }

    def duality_lines(self) -> list:
        """Expected ``verify-duality`` output lines for this formula."""
        full = (1 << self.k) - 1
        lmes = set(self._masks("lmes"))
        lmns = set(self._masks("lmns"))
        colmns = {full ^ m for m in lmns}
        union = 0
        for m in lmes:
            union |= m
        inter = full
        for m in lmns:
            inter &= m
        checks = [
            ("colmns-from-lmes", self._minimal_hitting_sets(lmes) == colmns),
            ("lmes-from-colmns", self._minimal_hitting_sets(colmns) == lmes),
            ("union-intersection", union == full ^ inter),
            ("complements-consistent", True),
        ]
        lines = [f"{name}: {'pass' if ok else 'fail'}" for name, ok in checks]
        lines.append(f"result: {'pass' if all(ok for _, ok in checks) else 'fail'}")
        return lines


# -- the checker ---------------------------------------------------------------


def _parse_sets(stdout: str) -> list:
    if not stdout:
        return []
    if not stdout.endswith("\n"):
        raise ValueError("output does not end with a newline")
    return [frozenset(int(t) for t in line.split()) for line in stdout[:-1].split("\n")]


def check(kind: str, rows, exit_code: int, stdout: str, solve, tables: dict) -> str | None:
    """None when the answer is right, otherwise the reason it is wrong.

    ``tables`` caches ``TruthTable`` objects by row tuple, so the several
    exhaustive commands on one formula share one classification.
    """
    try:
        return _check(kind, tuple(rows), exit_code, stdout, solve, tables)
    except (ValueError, CheckError) as e:
        return f"{kind}: {e}"


def _table(rows, tables) -> TruthTable:
    if rows not in tables:
        tables[rows] = TruthTable(rows)
    return tables[rows]


def _check(kind, rows, exit_code, stdout, solve, tables):
    if kind == "verify-duality":
        expected = _table(rows, tables).duality_lines()
        want_code = 0 if expected[-1] == "result: pass" else 1
        if exit_code != want_code:
            return f"exit code {exit_code}, expected {want_code}"
        if stdout.split("\n")[:-1] != expected:
            return "duality report differs from the truth table"
        return None
    if exit_code != 0:
        return f"exit code {exit_code}, expected 0"
    sets = _parse_sets(stdout)
    if kind.startswith("enum:"):
        want = _table(rows, tables).family(kind[5:])
        if len(sets) != len(set(sets)) or set(sets) != want:
            return f"{kind} family differs from the truth table"
        if sets != sorted(sets, key=lambda s: sorted(s)):
            return f"{kind} family is not in canonical order"
        return None
    if len(sets) != 1:
        return f"expected one label set, got {len(sets)} lines"
    (answer,) = sets
    active = _active(rows)
    if not answer <= active:
        return f"labels {sorted(answer - active)} are not active"
    q = _Queries(rows, solve)
    if kind == "lmes":
        if not q.implies(answer, active):
            return "lmes: induced subformula is not equivalent"
        for l in sorted(answer):
            if q.implies(answer - {l}, answer):
                return f"lmes: label {l} is redundant"
    elif kind == "lmus":
        if q.sat(answer):
            return "lmus: induced subformula is satisfiable"
        for l in sorted(answer):
            if not q.sat(answer - {l}):
                return f"lmus: label {l} is not needed"
    elif kind == "lmns":
        if q.implies(answer, active):
            return "lmns: induced subformula is equivalent"
        for l in sorted(active - answer):
            if not q.implies(answer | {l}, active):
                return f"lmns: label {l} could be added"
    elif kind == "mcs":
        kept = active - answer
        if not q.sat(kept):
            return "mcs: complement is unsatisfiable"
        for l in sorted(answer):
            if q.sat(kept | {l}):
                return f"mcs: label {l} need not be removed"
    else:
        return f"unknown request kind {kind!r}"
    return None


def corrupt(kind: str, rows, stdout: str) -> str:
    """A deliberately wrong answer that ``check`` must reject.

    Minimal witnesses lose a needed label or gain a spare one, maximal ones
    the reverse, a family loses its last member and a duality report flips
    its verdict.
    """
    if kind == "verify-duality":
        if "result: pass" in stdout:
            return stdout.replace("result: pass", "result: fail")
        return stdout.replace("result: fail", "result: pass")
    if kind.startswith("enum:"):
        return "".join(stdout.splitlines(keepends=True)[:-1])
    (answer,) = _parse_sets(stdout)
    active = _active(rows)
    spare = sorted(active - answer)
    if kind in ("lmes", "lmns"):
        wrong = answer - {min(answer)} if answer else answer | {spare[0]}
    else:  # lmus, mcs
        wrong = answer | {spare[0]} if spare else answer - {min(answer)}
    return " ".join(str(l) for l in sorted(wrong)) + "\n"
