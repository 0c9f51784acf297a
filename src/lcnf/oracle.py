"""SAT oracle: an embedded CDCL solver plus an assumption-based formula oracle.

The solver is a conventional conflict-driven clause learner: two watched
literals per clause, first-UIP conflict analysis, activity-based branching
with phase saving, and Luby restarts.  Its state lives in lists indexed by a
dense variable number or a literal code, MiniSat style.  Assumptions are
forced top-level decisions, one level each.  The trail is kept between
``solve`` calls: level-0 facts stay assigned, a call keeps the longest run
of the previous call's assumption levels whose literals it also makes, and
opens the rest in the order given (Nadel & Ryvchin, SAT 2012, measure what
re-opening them costs).  One solver instance thus answers many queries
about the same clause set without rebuilding anything.  Assumption-only
variables are activation literals (Een & Sorensson, 2003): they occur only
negated, are never decided, and one a call does not assume is false in its
model.  After an UNSAT answer ``analyze_final``
(MiniSat's ``analyzeFinal``) names the assumptions it rests on; it walks the
trail only when asked, so an answer nobody asks about costs nothing.

``LcnfOracle`` wraps a labelled formula in the standard selector encoding:
every active label l gets a fresh selector variable s_l and every clause c
becomes  c OR (negated selectors of c's labels).  Assuming the selectors of
the labels in a set, in one fixed order (label descending), then activates
exactly the clauses of the induced subformula: a selector left unassumed is
false, which satisfies its clauses.  Satisfiability, entailment and
equivalence queries about any label subset are thus single ``solve`` calls
against one shared solver, and a query pays for the labels it keeps, not
for every label.  Each clause's label set and negated literals are computed
once, when the oracle is built.  Selectors are assumption-only variables,
so branching never scans them.  Each query leaves its evidence behind: an
unsatisfiable core of labels after an unsatisfiable answer, and a model
after a satisfiable or a non-equivalent one.  An equivalence query checks
the removed clauses latest first, and its entailment answers settle later
queries: entailment is upward-closed over label sets, so a clause proven
entailed by the labels of a core stays entailed by every set that keeps
them, and the oracle records such cores per clause and skips the solves
they decide.  ``rotate`` turns one model into many
necessary labels by recursive model rotation, with no solve; the
per-literal clause index it reads is built on its first call, so an oracle
that never rotates never pays for it.
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

    ``conflict_budget`` bounds ``conflicts``, the number of conflicts spent
    over every ``solve`` of the solver's life (MiniSat's ``setConfBudget``);
    exceeding it raises ResourceLimitError rather than guessing.

    Variables are numbered densely in first-seen order; literal ``v`` of
    dense variable ``i`` has code ``2i`` and its negation ``2i + 1``.  The
    trail survives ``solve``: level-0 facts stay assigned, and assumption
    ``k`` owns decision level ``k + 1``.  A call keeps the longest run of
    the previous call's open assumption levels whose literals it also makes,
    in their old order, and opens its other assumptions after them, in one
    loop that stops to propagate only where a literal's negation is watched.
    Variables marked by ``set_assumption_only`` must occur only negated in
    the clauses added; the answer is SAT once every other variable is
    assigned.
    """

    _RESTART_BASE = 100

    def __init__(self, clauses: Iterable = (), *, conflict_budget: int | None = None):
        self.conflict_budget = conflict_budget
        self.conflicts = 0
        self._ok = True  # False once the clauses are refuted at level 0
        self._clauses: list[list[int]] = []  # literal codes, watching [0] and [1]
        self._code: dict[int, int] = {}  # literal -> literal code
        self._names: list[int] = []  # dense index -> variable
        # per dense variable
        self._level: list[int] = []
        self._reason: list[int | None] = []
        self._activity: list[float] = []
        self._phase: list[int] = []  # sign bit of the saved phase
        # per literal code
        self._value: list[bool | None] = []
        self._watches: list[list[int]] = []
        self._var_inc = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._asms: list[int] = []  # assumption codes of the open assumption levels
        self._branch: list[int] = []  # dense variables the decision scan visits, ascending
        self._only: set[int] = set()  # assumption-only dense variables
        self._positive: set[int] = set()  # dense variables with a positive occurrence
        # what the latest UNSAT answer rests on: None if there is none to explain,
        # the falsified assumption's code until analyze_final walks it, then
        # the failed assumption literals
        self._failed: int | list[int] | None = None
        for c in clauses:
            self.add_clause(c)

    # -- clause database ----------------------------------------------------

    def _new_var(self, var: int) -> int:
        i = len(self._names)
        self._code[var] = 2 * i
        self._code[-var] = 2 * i + 1
        self._names.append(var)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(1)
        self._value += (None, None)
        self._watches += ([], [])
        self._branch.append(i)
        return i

    def set_assumption_only(self, variables: Iterable[int]):
        """Leave ``variables`` out of the decision scan (MiniSat's ``setDecisionVar``).

        For activation literals such as an oracle's selectors, which occur
        only negated in the clauses: a ValueError is raised if one of
        ``variables`` occurs positively in a clause added before or after.
        A ``solve`` that does not assume such a variable leaves it free;
        the answer is SAT once every other variable is assigned, and the
        model reports it false, which satisfies each clause it occurs in.
        A variable the clauses lack is ignored.
        """
        code = self._code
        drop = {code[int(v)] >> 1 for v in variables if int(v) in code}
        if not drop.isdisjoint(self._positive):
            raise ValueError("an assumption-only variable occurs positively in a clause")
        self._only |= drop
        self._branch = [i for i in self._branch if i not in drop]

    def add_clause(self, literals: Iterable[int]):
        """Add a clause; duplicate literals collapse, tautologies are dropped."""
        lits = [int(l) for l in literals]
        if 0 in lits:
            raise ValueError("literal 0 is not allowed in a clause")
        self._failed = None
        self._cancel_until(0)
        code_of = self._code
        value = self._value  # extended in place by _new_var
        clause: list[int] = []
        dropped = False  # a tautology, or satisfied at level 0
        for l in lits:
            code = code_of.get(l)
            if code is None:
                code = 2 * self._new_var(abs(l)) + (l < 0)
            if not code & 1:
                if code >> 1 in self._only:
                    raise ValueError(f"assumption-only variable {l} occurs positively")
                self._positive.add(code >> 1)
            if value[code] or code ^ 1 in clause:
                dropped = True
            elif value[code] is None and code not in clause:
                clause.append(code)
        if dropped:
            return
        if not clause:
            self._ok = False
        elif len(clause) == 1:
            self._enqueue(clause[0], None)
        else:
            self._attach(clause)

    def _attach(self, lits: list[int]) -> int:
        ci = len(self._clauses)
        self._clauses.append(lits)
        self._watches[lits[0]].append(ci)
        self._watches[lits[1]].append(ci)
        return ci

    # -- assignment ---------------------------------------------------------

    def _enqueue(self, lit: int, reason: int | None):
        self._value[lit] = True
        self._value[lit ^ 1] = False
        self._level[lit >> 1] = len(self._trail_lim)
        self._reason[lit >> 1] = reason
        self._trail.append(lit)

    def _cancel_until(self, level: int):
        if len(self._trail_lim) > level:
            mark = self._trail_lim[level]
            value = self._value
            phase = self._phase
            for lit in self._trail[mark:]:
                value[lit] = value[lit ^ 1] = None
                phase[lit >> 1] = lit & 1
            del self._trail[mark:]
            del self._trail_lim[level:]
            self._qhead = min(self._qhead, mark)

    # -- propagation --------------------------------------------------------

    def _propagate(self) -> int | None:
        """Unit propagation; returns a conflicting clause index or None."""
        value = self._value
        watches = self._watches
        clauses = self._clauses
        trail = self._trail
        level = len(self._trail_lim)
        qhead = self._qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchlist = watches[false_lit]
            if not watchlist:
                continue
            kept: list[int] = []
            for wi, ci in enumerate(watchlist):
                lits = clauses[ci]
                if lits[0] == false_lit:
                    lits[0] = first = lits[1]
                    lits[1] = false_lit
                else:
                    first = lits[0]
                first_value = value[first]
                if first_value:
                    kept.append(ci)
                    continue
                for j in range(2, len(lits)):
                    q = lits[j]
                    if value[q] is not False:
                        lits[1] = q
                        lits[j] = false_lit
                        watches[q].append(ci)
                        break
                else:
                    kept.append(ci)
                    if first_value is False:
                        kept.extend(watchlist[wi + 1 :])
                        watches[false_lit] = kept
                        self._qhead = qhead
                        return ci
                    value[first] = True
                    value[first ^ 1] = False
                    self._level[first >> 1] = level
                    self._reason[first >> 1] = ci
                    trail.append(first)
            watches[false_lit] = kept
        self._qhead = qhead
        return None

    # -- conflict analysis --------------------------------------------------

    def _bump(self, var: int):
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            self._activity = [a * 1e-100 for a in self._activity]
            self._var_inc *= 1e-100

    def _analyze(self, confl: int) -> tuple[list[int], int]:
        """First-UIP learning; returns (learned clause, backjump level).

        The asserting literal sits at position 0 of the learned clause and a
        deepest remaining literal at position 1, ready for watching.
        """
        level = self._level
        only = self._only
        cur_level = len(self._trail_lim)
        seen: set[int] = set()
        learned: list[int] = [0]
        counter = 0
        index = len(self._trail)
        reason_lits = self._clauses[confl]
        while True:
            for q in reason_lits:
                # the literal a reason clause implied is already seen
                v = q >> 1
                if v in seen or level[v] == 0:
                    continue
                seen.add(v)
                if v not in only:  # the decision scan never reads their activity
                    self._bump(v)
                if level[v] == cur_level:
                    counter += 1
                else:
                    learned.append(q)
            while True:
                index -= 1
                p = self._trail[index]
                if p >> 1 in seen:
                    break
            counter -= 1
            if counter == 0:
                break
            reason_lits = self._clauses[self._reason[p >> 1]]
        learned[0] = p ^ 1
        if len(learned) == 1:
            return learned, 0
        # place a literal from the backjump level at position 1
        max_i = 1
        for i in range(2, len(learned)):
            if level[learned[i] >> 1] > level[learned[max_i] >> 1]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, level[learned[1] >> 1]

    # -- main search --------------------------------------------------------

    def _pick_branch(self) -> int:
        """The unassigned variable of highest activity, first-seen on ties; -1 if none.

        Assumption-only variables are never picked.
        """
        value = self._value
        activity = self._activity
        best = -1
        best_act = -1.0
        for v in self._branch:
            act = activity[v]
            if act > best_act and value[2 * v] is None:
                best = v
                best_act = act
        return best

    def analyze_final(self) -> list[int]:
        """The assumptions the latest UNSAT answer rests on (MiniSat's ``analyzeFinal``).

        A subset of that call's assumptions under which the clauses alone are
        unsatisfiable; empty when they are unsatisfiable without any.  It is
        computed on the first request, from the trail the answer left, so an
        answer nobody asks about costs nothing.  RuntimeError unless the
        latest ``solve`` answered UNSAT and no clause was added since.
        """
        failed = self._failed
        if failed is None:
            raise RuntimeError("no UNSAT answer to explain since the latest solve or clause")
        if isinstance(failed, int):
            failed = self._failed = self._failed_from(failed)
        return list(failed)

    def _failed_from(self, asm: int) -> list[int]:
        """Failed assumptions when assumption code ``asm`` was found false.

        Walks the trail down from its top to the first assumption level,
        following the reasons of everything that led to ``asm``'s negation;
        the assumptions met on the way (reasonless literals above level 0)
        are the ones it rests on.
        """
        level = self._level
        reason = self._reason
        clauses = self._clauses
        names = self._names
        seen = {asm >> 1}
        failed = [asm]
        start = self._trail_lim[0] if self._trail_lim else len(self._trail)
        for p in reversed(self._trail[start:]):
            v = p >> 1
            if v not in seen:
                continue
            r = reason[v]
            if r is None:
                failed.append(p)
            else:
                seen.update(q >> 1 for q in clauses[r] if level[q >> 1])
        return [-names[c >> 1] if c & 1 else names[c >> 1] for c in failed]

    def _model(self, free: dict) -> dict:
        # only an assumption-only variable the call left free is unassigned
        return dict(zip(self._names, map(bool, self._value[::2]))) | free

    def solve(self, assumptions: Iterable[int] = ()) -> SatOutcome:
        """Decide satisfiability of the clause set under unit assumptions.

        The longest run of the previous call's open assumption levels whose
        literals this call also makes is kept; the other assumptions follow
        it in the order given.
        """
        self._failed = None
        asms = list(assumptions)
        code_of = self._code
        codes = list(map(code_of.get, asms))
        free: dict[int, bool] = {}
        clash = 0
        if None in codes:
            # an assumption on a variable outside the clauses only meets other
            # assumptions on it; it goes straight into the model
            asms = list(map(int, asms))
            if 0 in asms:
                raise ValueError("assumption literals must be nonzero")
            codes = []
            for a in asms:
                c = code_of.get(a)
                if c is not None:
                    codes.append(c)
                elif free.setdefault(abs(a), a > 0) != (a > 0):
                    clash = a
                    break
        if not self._ok:
            self._failed = []
            return SatOutcome(False)
        if clash:
            self._failed = [-clash, clash]
            return SatOutcome(False)
        old = self._asms
        keep = 0
        limit = min(len(self._trail_lim), len(old))
        if limit:
            want = set(codes)
            while keep < limit and old[keep] in want:
                keep += 1
        self._cancel_until(keep)
        if keep:
            head = old[:keep]
            kept = set(head)
            codes = head + [c for c in codes if c not in kept]
        self._asms = codes
        n = len(codes)

        restart_count = 0
        restart_limit = self._RESTART_BASE * _luby(restart_count)
        since_restart = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                if not self._trail_lim:
                    self._ok = False
                    self._failed = []
                    return SatOutcome(False)
                self.conflicts += 1
                since_restart += 1
                if self.conflict_budget is not None and self.conflicts > self.conflict_budget:
                    self._cancel_until(0)
                    raise ResourceLimitError(
                        f"conflict budget of {self.conflict_budget} exceeded"
                    )
                learned, back_level = self._analyze(confl)
                self._cancel_until(back_level)
                self._enqueue(learned[0], self._attach(learned) if len(learned) > 1 else None)
                self._var_inc /= 0.95
                if since_restart >= restart_limit:
                    restart_count += 1
                    restart_limit = self._RESTART_BASE * _luby(restart_count)
                    since_restart = 0
                    self._cancel_until(0)
                continue
            level = len(self._trail_lim)
            if level < n:
                # open assumption levels until one needs propagating
                value = self._value
                watches = self._watches
                trail = self._trail
                trail_lim = self._trail_lim
                while level < n:
                    a = codes[level]
                    v = value[a]
                    if v is False:
                        self._failed = a
                        return SatOutcome(False)
                    trail_lim.append(len(trail))
                    level += 1
                    if v is None:
                        self._enqueue(a, None)
                        if watches[a ^ 1]:
                            break
                continue
            var = self._pick_branch()
            if var < 0:
                return SatOutcome(True, self._model(free))
            self._trail_lim.append(len(self._trail))
            self._enqueue(2 * var + self._phase[var], None)


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
    so learned clauses carry over between queries, and ``conflict_budget``
    bounds the conflicts over every solve of every query.  Instances are not
    thread-safe.
    """

    def __init__(self, phi: LcnfFormula, *, conflict_budget: int | None = None):
        self.formula = phi
        # (sorted literals, label set) per clause, in formula order
        self._clauses = [(c.sorted_literals(), phi.labels_of(c)) for c in phi.clauses]
        # the negated literals of each clause, assumed to test its entailment
        self._negated = [[-x for x in lits] for lits, _ in self._clauses]
        base = max(phi.variables, default=0)
        labels = sorted(phi.active_labels)
        selector = {l: base + 1 + i for i, l in enumerate(labels)}
        # (label, selector variable), label descending: the order a query
        # assumes the selectors of the labels it keeps in
        self._selectors = [(l, selector[l]) for l in reversed(labels)]
        self._label_of = {sel: l for l, sel in selector.items()}
        self._with_label: dict[int, list[int]] = {l: [] for l in selector}
        self._solver = Solver(conflict_budget=conflict_budget)
        for i, (lits, ls) in enumerate(self._clauses):
            self._solver.add_clause([*lits, *(-selector[l] for l in sorted(ls))])
            for l in ls:
                self._with_label[l].append(i)
        self._solver.set_assumption_only(self._label_of)
        # per clause: None until an entailment solve of is_equivalent_subformula
        # first proves it, then the label sets K that later ones proved
        # phi|K to entail it with, none inside another
        self._entailed_by: list[list[frozenset] | None] = [None] * len(self._clauses)
        # (kind, value) of what the latest query proved; see _latest
        self._evidence: tuple | None = None
        # the clauses per literal and the variables, sorted, built by the
        # first rotate
        self._occurs: dict[int, list[tuple]] | None = None
        self._variables: list[int] = []

    def _assumptions(self, labels: Iterable[int]) -> list[int]:
        # a selector left unassumed is false, so its clauses stay out
        want = frozenset(map(int, labels))
        return [sel for l, sel in self._selectors if l in want]

    def is_sat_induced(self, labels: Iterable[int]) -> bool:
        """Satisfiability of the subformula induced by ``labels``.

        Afterwards ``model`` or ``core`` holds the evidence for the answer.
        """
        self._evidence = None
        outcome = self._solver.solve(self._assumptions(labels))
        self._evidence = ("model", outcome.model) if outcome.satisfiable else ("core", None)
        return outcome.satisfiable

    def _latest(self, kind: str):
        if self._evidence is None or self._evidence[0] != kind:
            raise RuntimeError(f"the latest query left no {kind}")
        return self._evidence[1]

    def model(self) -> dict:
        """A model of the clauses the latest query kept.

        After ``is_sat_induced`` answered True it satisfies the induced
        subformula.  After ``is_equivalent_subformula`` answered False it
        satisfies the subformula induced by ``labels`` and falsifies one of
        the removed clauses.
        """
        return self._latest("model")

    def core(self) -> frozenset:
        """Labels that induce an unsatisfiable subformula on their own.

        They are the positive selectors among the failed assumptions
        (``Solver.analyze_final``) of the latest query, an ``is_sat_induced``
        answering False, so they lie inside the labels it was asked about.
        """
        self._latest("core")
        return self._failed_labels()

    def _failed_labels(self) -> frozenset:
        # the labels of the selectors among the latest UNSAT answer's failed assumptions
        label_of = self._label_of
        return frozenset(label_of[a] for a in self._solver.analyze_final() if a in label_of)

    def satisfies(self, model: dict, label: int, within: set | frozenset) -> bool:
        """Whether ``model`` satisfies every clause of ``label`` whose label
        set lies inside ``within``."""
        clauses = self._clauses
        for i in self._with_label[label]:
            lits, ls = clauses[i]
            if ls <= within and not any(model.get(abs(x)) == (x > 0) for x in lits):
                return False
        return True

    def rotate(self, model: dict, within: set | frozenset, known: Iterable[int] = ()) -> set:
        """Labels necessary in ``within`` that recursive model rotation proves.

        An assignment that satisfies every clause inside ``within`` (label
        set a subset of it) without label l and falsifies one with l proves
        l necessary: ``within - {l}`` is satisfiable and misses a clause of
        ``within``.  A deletion sweep whose current set stays equivalent or
        unsatisfiable keeps such an l with no solve, as the smaller sets it
        reaches are induced by fewer labels still.

        From ``model``, each variable of the clauses it falsifies inside
        ``within`` is flipped in turn and flipped back.  When the clauses the
        flipped assignment falsifies there share labels outside ``known`` and
        outside those found so far, it proves them, and rotation recurses
        from it (Marques-Silva & Lynce, SAT 2011; Belov & Marques-Silva,
        FMCAD 2011).  From the first model of ``within`` met, ``model``
        itself or a flip that falsifies nothing there, every variable is
        flipped once.  ``model`` is a total assignment, as ``model()`` hands
        out, and is left as it was.  Returns the labels proven, less
        ``known``; no solve is made.
        """
        if self._occurs is None:
            occurs: dict[int, list[tuple]] = {}
            for clause in self._clauses:
                for x in clause[0]:
                    occurs.setdefault(x, []).append(clause)
            self._occurs = occurs
            self._variables = sorted({abs(x) for x in occurs})
        occurs = self._occurs
        known = frozenset(known)
        proven = set(known)
        # the assignment as its set of true literals: a clause is falsified
        # exactly when it shares none of them
        true = {v if model[v] else -v for v in self._variables}
        falsified = [c for c in self._clauses if true.isdisjoint(c[0]) and c[1] <= within]
        stack = [(true, falsified)]
        whole = bool(falsified)  # no model of ``within`` has been met yet
        while stack:
            true, falsified = stack.pop()
            if falsified:
                flips = dict.fromkeys(abs(x) for c in falsified for x in c[0])
            else:
                flips = self._variables
            for v in flips:
                lit = v if v in true else -v
                true.remove(lit)
                true.add(-lit)
                # the falsified clauses without v, and those lit alone satisfied
                now = [c for c in falsified if -lit not in c[0]] if falsified else []
                for c in occurs.get(lit, ()):
                    if true.isdisjoint(c[0]) and c[1] <= within:
                        now.append(c)
                if now:
                    shared = now[0][1] - proven
                    for c in now[1:]:
                        shared &= c[1]
                    if shared:
                        proven |= shared
                        stack.append((set(true), now))
                elif whole:
                    whole = False
                    stack.append((set(true), now))
                true.remove(-lit)
                true.add(lit)
        return proven - known

    def entails_clause(self, labels: Iterable[int], clause) -> bool:
        """Whether the subformula induced by ``labels`` entails ``clause``.

        A literal on a variable the formula lacks can always be made false,
        so it stays out of the solve, where its number could be a selector's.
        """
        lits = _clause_literals(clause)
        variables = self.formula.variables
        if not variables.issuperset(map(abs, lits)):
            if any(-l in lits for l in lits):
                return True  # a tautology
            lits = [l for l in lits if abs(l) in variables]
        self._evidence = None
        asms = [*self._assumptions(labels), *(-l for l in lits)]
        return not self._solver.solve(asms).satisfiable

    def is_equivalent_subformula(
        self, labels: Iterable[int], within: Iterable[int] | None = None
    ) -> bool:
        """Whether inducing with ``labels`` preserves equivalence.

        Compares against the whole formula by default, or against the
        subformula induced by ``within`` (which must contain ``labels``).
        Checked clause by clause, latest first (reverse formula order): every
        removed clause, one with a label in the comparison set but not in
        ``labels``, must be entailed by the kept ones; the first non-entailed
        clause short-circuits, and ``model`` then holds a model of the kept
        clauses that falsifies it.  The order changes which clause that is,
        never the answer.

        Entailment is upward-closed over label sets, so an answer settles
        later queries: from the second time an entailment solve proves a
        clause on, the labels of the selectors among its failed assumptions
        (``Solver.analyze_final``) are recorded as a set K with phi|K
        entailing the clause, and a later query whose ``labels`` contain a
        recorded K skips that clause's solve.  The first proof only marks
        the clause, so a sweep that asks about each clause once pays for no
        core.
        """
        active = self.formula.active_labels
        sup = active if within is None else frozenset(map(int, within)) & active
        sub = frozenset(map(int, labels)) & active
        if not sub <= sup:
            raise ValueError("labels must be contained in the comparison set")
        self._evidence = None
        removed = sorted({i for l in sup - sub for i in self._with_label[l]}, reverse=True)
        entailed_by = self._entailed_by
        asms = None
        # the formula's own clauses, sorted at build, need none of the
        # checks entails_clause makes on a caller's clause
        for i in removed:
            if self._clauses[i][1] <= sup:
                known = entailed_by[i]
                if known and any(k <= sub for k in known):
                    continue
                if asms is None:
                    asms = self._assumptions(sub)
                outcome = self._solver.solve(asms + self._negated[i])
                if outcome.satisfiable:
                    self._evidence = ("model", outcome.model)
                    return False
                if known is None:
                    entailed_by[i] = []
                else:
                    # no recorded K lies inside the core, as none lies inside sub
                    core = self._failed_labels()
                    entailed_by[i] = [k for k in known if not core <= k] + [core]
        return True
