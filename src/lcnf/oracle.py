"""SAT oracle: an embedded CDCL solver plus an assumption-based formula oracle.

The solver is a conventional conflict-driven clause learner: two watched
literals per clause, first-UIP conflict analysis, activity-based branching
with phase saving, and Luby restarts.  Assumptions are handled as forced
top-level decisions, so one solver instance answers many queries about the
same clause set without rebuilding anything.

``LcnfOracle`` wraps a labelled formula in the standard selector encoding:
every active label l gets a fresh selector variable s_l and every clause c
becomes  c OR (negated selectors of c's labels).  Fixing the selectors by
assumptions then activates exactly the clauses of an induced subformula, so
satisfiability, entailment and equivalence queries about any label subset are
single ``solve`` calls against one shared solver.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .core import Clause, LcnfFormula
from .errors import ResourceLimitError


@dataclass(frozen=True)
class SatOutcome:
    """Result of a satisfiability query.

    ``model`` is a total assignment over the variables of the queried clause
    set when satisfiable, and None otherwise.
    """

    satisfiable: bool
    model: dict | None = None

    def __post_init__(self):
        if self.satisfiable != (self.model is not None):
            raise ValueError("a model is present exactly when satisfiable")

    def __bool__(self):
        return self.satisfiable

    def __repr__(self):
        return "SAT" if self.satisfiable else "UNSAT"


def _luby(x: int) -> int:
    # luby restart sequence (0-based): 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


class Solver:
    """Incremental CDCL SAT solver with solving under assumptions.

    ``conflict_budget`` bounds the number of conflicts a single ``solve`` may
    spend; exceeding it raises ResourceLimitError rather than guessing.
    """

    _RESTART_BASE = 100

    def __init__(self, clauses: Iterable = (), *, conflict_budget: int | None = None):
        self.conflict_budget = conflict_budget
        self._clauses: list[list[int]] = []
        self._watchers: dict[int, list[int]] = {}
        self._units: list[int] = []
        self._empty = False
        self._vars: list[int] = []  # clause variables, in first-seen order
        self._varset: set[int] = set()
        self._activity: dict[int, float] = {}
        self._phase: dict[int, bool] = {}
        self._var_inc = 1.0
        # search state, rebuilt by each solve()
        self._assign: dict[int, bool] = {}
        self._level: dict[int, int] = {}
        self._reason: dict[int, int | None] = {}
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        for c in clauses:
            self.add_clause(c)

    # -- clause database ----------------------------------------------------

    def _register(self, var: int):
        if var not in self._varset:
            self._varset.add(var)
            self._vars.append(var)
            self._activity[var] = 0.0
            self._phase[var] = False

    def add_clause(self, literals: Iterable[int]):
        """Add a clause; duplicate literals collapse, tautologies are dropped."""
        lits: list[int] = []
        seen = set()
        taut = False
        for l in literals:
            l = int(l)
            if l == 0:
                raise ValueError("literal 0 is not allowed in a clause")
            self._register(abs(l))
            if -l in seen:
                taut = True
            if l not in seen:
                seen.add(l)
                lits.append(l)
        if taut:
            return
        if not lits:
            self._empty = True
        elif len(lits) == 1:
            self._units.append(lits[0])
        else:
            self._attach(lits)

    def _attach(self, lits: list[int]) -> int:
        ci = len(self._clauses)
        self._clauses.append(lits)
        self._watchers.setdefault(lits[0], []).append(ci)
        self._watchers.setdefault(lits[1], []).append(ci)
        return ci

    # -- assignment ---------------------------------------------------------

    def _value(self, lit: int):
        a = self._assign.get(abs(lit))
        if a is None:
            return None
        return a if lit > 0 else not a

    def _enqueue(self, lit: int, reason: int | None):
        var = abs(lit)
        self._assign[var] = lit > 0
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        self._trail.append(lit)

    def _cancel_until(self, level: int):
        while len(self._trail_lim) > level:
            mark = self._trail_lim.pop()
            while len(self._trail) > mark:
                lit = self._trail.pop()
                var = abs(lit)
                self._phase[var] = lit > 0
                del self._assign[var]
                del self._level[var]
                del self._reason[var]
        self._qhead = min(self._qhead, len(self._trail))

    # -- propagation --------------------------------------------------------

    def _propagate(self) -> int | None:
        """Unit propagation; returns a conflicting clause index or None."""
        while self._qhead < len(self._trail):
            p = self._trail[self._qhead]
            self._qhead += 1
            watchlist = self._watchers.get(-p)
            if not watchlist:
                continue
            kept: list[int] = []
            n = len(watchlist)
            for wi in range(n):
                ci = watchlist[wi]
                lits = self._clauses[ci]
                if lits[0] == -p:
                    lits[0], lits[1] = lits[1], lits[0]
                first = self._value(lits[0])
                if first is True:
                    kept.append(ci)
                    continue
                moved = False
                for j in range(2, len(lits)):
                    if self._value(lits[j]) is not False:
                        lits[1], lits[j] = lits[j], lits[1]
                        self._watchers.setdefault(lits[1], []).append(ci)
                        moved = True
                        break
                if moved:
                    continue
                kept.append(ci)
                if first is False:
                    kept.extend(watchlist[wi + 1 :])
                    self._watchers[-p] = kept
                    return ci
                self._enqueue(lits[0], ci)
            self._watchers[-p] = kept
        return None

    # -- conflict analysis --------------------------------------------------

    def _bump(self, var: int):
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in self._activity:
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP learning; returns (learned clause, backjump level).

        The asserting literal sits at position 0 of the learned clause and a
        deepest remaining literal at position 1, ready for watching.
        """
        cur_level = len(self._trail_lim)
        seen: set[int] = set()
        learned: list[int] = []
        counter = 0
        p = None
        index = len(self._trail)
        reason_lits = self._clauses[confl]
        while True:
            for q in reason_lits:
                if p is not None and q == p:
                    continue
                v = abs(q)
                if v in seen or self._level[v] == 0:
                    continue
                seen.add(v)
                self._bump(v)
                if self._level[v] == cur_level:
                    counter += 1
                else:
                    learned.append(q)
            while True:
                index -= 1
                p = self._trail[index]
                if abs(p) in seen:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_lits = self._clauses[self._reason[abs(p)]]
        learned.insert(0, -p)
        if len(learned) == 1:
            return learned, 0
        # place a literal from the backjump level at position 1
        max_i = 1
        for i in range(2, len(learned)):
            if self._level[abs(learned[i])] > self._level[abs(learned[max_i])]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, self._level[abs(learned[1])]

    # -- main search --------------------------------------------------------

    def _pick_branch(self) -> int | None:
        best = None
        best_act = -1.0
        for v in self._vars:
            if v not in self._assign and self._activity[v] > best_act:
                best = v
                best_act = self._activity[v]
        return best

    def _model(self, extra_vars: frozenset = frozenset()) -> dict:
        return {v: self._assign[v] for v in sorted(self._varset | extra_vars)}

    def solve(self, assumptions: Iterable[int] = ()) -> SatOutcome:
        """Decide satisfiability of the clause set under unit assumptions."""
        if self._empty:
            return SatOutcome(False)
        asms = [int(a) for a in assumptions]
        if any(a == 0 for a in asms):
            raise ValueError("assumption literals must be nonzero")
        asm_vars = frozenset(abs(a) for a in asms) - self._varset
        self._cancel_until(0)
        self._assign.clear()
        self._level.clear()
        self._reason.clear()
        self._trail.clear()
        self._trail_lim.clear()
        self._qhead = 0
        for l in self._units:
            v = self._value(l)
            if v is False:
                return SatOutcome(False)
            if v is None:
                self._enqueue(l, None)
        if self._propagate() is not None:
            return SatOutcome(False)

        conflicts = 0
        restart_count = 0
        restart_limit = self._RESTART_BASE * _luby(restart_count)
        since_restart = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self._trail_lim:
                    return SatOutcome(False)
                conflicts += 1
                since_restart += 1
                if self.conflict_budget is not None and conflicts > self.conflict_budget:
                    raise ResourceLimitError(
                        f"conflict budget of {self.conflict_budget} exceeded"
                    )
                learned, back_level = self._analyze(confl)
                self._cancel_until(back_level)
                if len(learned) == 1:
                    self._units.append(learned[0])
                    self._enqueue(learned[0], None)
                else:
                    ci = self._attach(learned)
                    self._enqueue(learned[0], ci)
                self._var_inc /= 0.95
                if since_restart >= restart_limit:
                    restart_count += 1
                    restart_limit = self._RESTART_BASE * _luby(restart_count)
                    since_restart = 0
                    self._cancel_until(0)
                continue
            level = len(self._trail_lim)
            if level < len(asms):
                a = asms[level]
                v = self._value(a)
                if v is False:
                    return SatOutcome(False)
                self._trail_lim.append(len(self._trail))
                if v is None:
                    self._enqueue(a, None)
                continue
            var = self._pick_branch()
            if var is None:
                return SatOutcome(True, self._model(asm_vars))
            self._trail_lim.append(len(self._trail))
            self._enqueue(var if self._phase[var] else -var, None)


def solve(
    clauses: Iterable,
    assumptions: Iterable[int] = (),
    *,
    conflict_budget: int | None = None,
) -> SatOutcome:
    """One-shot satisfiability of a clause set under unit assumptions."""
    return Solver(clauses, conflict_budget=conflict_budget).solve(assumptions)


def _clause_literals(clause) -> tuple:
    if isinstance(clause, Clause):
        return clause.sorted_literals()
    return tuple(sorted((int(l) for l in clause), key=lambda l: (abs(l), l < 0)))


def entails(
    premise: Iterable,
    clause,
    *,
    conflict_budget: int | None = None,
) -> bool:
    """Whether a clause set entails a single clause.

    Checked as unsatisfiability of premise plus the negated clause; the
    negated literals enter as assumptions.  An empty premise entails nothing
    (clauses are never tautologous).
    """
    lits = _clause_literals(clause)
    outcome = solve(
        premise, [-l for l in lits], conflict_budget=conflict_budget
    )
    return not outcome.satisfiable


class LcnfOracle:
    """Assumption-based query engine for one labelled formula.

    Builds the selector encoding once; every query about an induced
    subformula is then a ``solve`` under assumptions against the same solver,
    so learned clauses carry over between queries.  Instances are not
    thread-safe; build one per worker when sharding.
    """

    def __init__(self, phi: LcnfFormula, *, conflict_budget: int | None = None):
        self.formula = phi
        base = 0
        for c in phi.clauses:
            for l in c.literals:
                base = max(base, abs(l))
        self._selector = {
            l: base + 1 + i for i, l in enumerate(sorted(phi.active_labels))
        }
        self._solver = Solver(conflict_budget=conflict_budget)
        for c in phi.clauses:
            aug = list(c.sorted_literals())
            aug.extend(-self._selector[l] for l in sorted(phi.labels_of(c)))
            self._solver.add_clause(aug)

    def _assumptions(self, labels: frozenset) -> list[int]:
        return [
            sel if l in labels else -sel
            for l, sel in sorted(self._selector.items())
        ]

    def is_sat_induced(self, labels: Iterable[int]) -> bool:
        """Satisfiability of the subformula induced by ``labels``."""
        want = frozenset(int(l) for l in labels) & self.formula.active_labels
        return self._solver.solve(self._assumptions(want)).satisfiable

    def entails_clause(self, labels: Iterable[int], clause) -> bool:
        """Whether the subformula induced by ``labels`` entails ``clause``."""
        want = frozenset(int(l) for l in labels) & self.formula.active_labels
        asms = self._assumptions(want)
        asms.extend(-l for l in _clause_literals(clause))
        return not self._solver.solve(asms).satisfiable

    def is_equivalent_subformula(
        self, labels: Iterable[int], within: Iterable[int] | None = None
    ) -> bool:
        """Whether inducing with ``labels`` preserves equivalence.

        Compares against the whole formula by default, or against the
        subformula induced by ``within`` (which must contain ``labels``).
        Checked clause by clause: every removed clause must be entailed by
        the kept ones; the first non-entailed clause short-circuits.
        """
        active = self.formula.active_labels
        sup = active if within is None else frozenset(int(l) for l in within) & active
        sub = frozenset(int(l) for l in labels) & active
        if not sub <= sup:
            raise ValueError("labels must be contained in the comparison set")
        for c in self.formula.clauses:
            ls = self.formula.labels_of(c)
            if ls <= sup and not ls <= sub:
                if not self.entails_clause(sub, c):
                    return False
        return True

