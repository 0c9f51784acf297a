"""SAT oracle: an embedded CDCL solver over labelled clauses, and a formula oracle.

The solver is a conventional conflict-driven clause learner: two watched
literals per clause, first-UIP conflict analysis, activity-based branching
with phase saving, and Luby restarts.  Its state lives in lists indexed by a
dense variable number or a literal code, MiniSat style.  A clause may carry
a set of labels, and each ``solve`` names the labels switched on: a clause
takes part exactly when all its labels are, so one solver instance answers
queries about every subformula a label set induces without rebuilding
anything.  A learned clause carries the union of the labels of the clauses
it was resolved from, in place of the negated selector literals of the
usual encoding (Lagniez & Biere, SAT 2013, factor such assumptions out of
MUS extraction), so learned clauses stay short and take part wherever they
still hold.  Level 0 keeps only facts that no label conditions; what the
switched-on clauses imply without a decision sits on the activation level
above it, rebuilt by each solve.  Assumptions are forced decisions, one
level each.  After an UNSAT answer ``analyze_final`` (MiniSat's
``analyzeFinal``) names the assumptions and the label mask it rests on; it
walks the trail only when asked, so an answer nobody asks about costs
nothing.

A variable that no switched-on clause holds is never decided: the solver
counts, per variable, the switched-on added clauses that hold it, and a
model gives a variable with no such clause its saved phase.

The solver speaks label masks only: ``add_clause`` and ``solve`` take
an int with one bit per label, in whatever numbering the caller chose.
It keeps each clause's labels, the labels switched on and each
learned clause's labels as masks, with one clause list per bit position;
a solve visits only the clauses of the labels it switches, so a query
pays for the labels it changes.

``LcnfOracle`` gives its solver the rows of the formula, once, as they
are: each clause's sorted literals with its mask in the formula's own
numbering (``LcnfFormula.label_masks``), the one that ``classify_all``'s
subset masks use too.  The formula checked each clause when it made the
row, and ``Solver.add_clause`` checks a clause from any other caller
before it takes the same path, ``Solver._add_rows``, the one way an
added clause enters the solver.  Every oracle method names labels by
mask in that numbering, and so do its answers; the analysis API and the
command line convert label sets at their edge (``LcnfFormula.mask_of``
and ``labels_in``).  Satisfiability, entailment and equivalence queries
about any label subset are then single ``solve`` calls with that subset
switched on, against one shared solver; only a clause under test enters
as assumptions, its negated literals.  Each query leaves its evidence
behind: a core of labels after an unsatisfiable or an entailed answer,
and a model of the formula's variables after a satisfiable, a
non-entailed or a non-equivalent one.  Unsatisfiability is entailment of
the empty clause, and entailment is upward-closed over label sets, so a
core settles the same question for every label set that keeps it.  The
oracle keeps no answer: an equivalence query makes one solve per removed
clause, latest first, until one is not entailed.  The exhaustive pass
keeps the closures itself, seeded by ``record_subsumers`` with the
labels of each clause's subsuming clauses.  Each label's clause list is
keyed by the label's bit; when no row gave level 0 a fact, the solver
stored every row as its clause of the same index and the lists are read
off its own, and otherwise the first query that needs them builds them.
``rotate`` turns one model into many necessary labels by recursive model
rotation, with no solve.  It works in the solver's literal codes: an
assignment is an int with the bit of each true literal's code, and each
row the mask of its literals' codes, so a row is falsified when the two
share no bit; those masks and the rows per literal are built on its
first call, so an oracle that never rotates never pays for them.
"""
from __future__ import annotations

from functools import cached_property
from itertools import combinations
from math import comb
from operator import neg
from typing import Iterable, NamedTuple

from .core import LcnfFormula, sort_literals
from .errors import ResourceLimitError


# a NamedTuple body cannot define __new__, so a subclass checks the fields
class _SatOutcomeFields(NamedTuple):
    satisfiable: bool
    model: dict | None


class SatOutcome(_SatOutcomeFields):
    """Result of a satisfiability query.

    ``model`` is a total assignment over the variables of the queried clause
    set when satisfiable, and None otherwise.
    """

    __slots__ = ()

    def __new__(cls, satisfiable: bool, model: dict | None = None):
        if satisfiable != (model is not None):
            raise ValueError("a model is present exactly when satisfiable")
        return tuple.__new__(cls, (satisfiable, model))

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
    """Incremental CDCL SAT solver over label-conditioned clauses.

    A clause may carry labels, as an int mask, and ``solve`` takes the mask
    of the labels switched on: a clause takes part in a solve exactly when
    all its labels are on.  Unlabelled clauses, mask 0, always do.  The
    caller numbers the labels; the solver sees only bits.  A learned clause
    carries the union of the labels of the clauses it was resolved from, so
    it holds whenever they do, and takes part in exactly the solves where
    they all would.

    Variables are numbered densely in first-seen order; literal ``v`` of
    dense variable ``i`` has code ``2i`` and its negation ``2i + 1``.  Each
    solve starts from level 0, which holds only facts that no label
    conditions: propagation there treats every labelled clause as off.
    Level 1 is the activation level.  It holds what the switched-on
    labelled clauses imply without any decision, starting from those of
    fewer than two literals, which are enqueued or refuted there.
    Assumption ``k`` owns level ``k + 2``, and decisions follow.  A clause
    switched off leaves the watch lists the first time propagation meets
    it; one switched on again goes back in before the activation level is
    opened, checked against the level-0 facts that arrived meanwhile.

    Propagation visits the watch list of each literal made false, and looks
    for a replacement watch with an index loop; conflict analysis bumps the
    activity of each variable it meets in place.

    ``conflicts`` counts, over every ``solve`` of the solver's life, each
    conflict found above level 0: one at the activation level, which
    answers UNSAT at once, and each one the search analyses and learns
    from.  A conflict at level 0 refutes the unlabelled clauses for good
    and is not counted.  ``conflict_budget`` bounds ``conflicts`` (MiniSat's
    ``setConfBudget``); exceeding it raises ResourceLimitError rather than
    guessing.
    """

    _RESTART_BASE = 100

    def __init__(self, clauses: Iterable = (), *, conflict_budget: int | None = None):
        self.conflict_budget = conflict_budget
        self.conflicts = 0
        self._ok = True  # False once the unlabelled clauses are refuted
        # per clause: literal codes, watching [0] and [1] when it has two or more
        self._clauses: list[list[int]] = []
        self._labels: list[int] = []  # per clause: the mask of its labels, 0 if none
        self._off: list[int] = []  # per clause: how many of its labels are off
        self._watched: list[bool] = []  # per clause: in the watch lists of [0] and [1]
        self._learned: list[bool] = []  # per clause: learned, not added
        self._with_bit: list[list[int]] = []  # bit position -> the clauses that carry it
        self._on = 0  # the mask of the labels switched on
        self._short: list[int] = []  # labelled clauses of fewer than two literals
        # clauses out of the watch lists to put back when the activation level
        # opens, if they are switched on then
        self._pending: list[int] = []
        self._code: dict[int, int] = {}  # literal -> literal code
        self._names: list[int] = []  # dense index -> variable
        # per dense variable
        self._level: list[int] = []
        self._reason: list[int | None] = []
        self._activity: list[float] = []
        self._phase: list[int] = []  # sign bit of the saved phase
        # switched-on added clauses that hold it; a learned clause's variables
        # lie inside those of the clauses it was resolved from, so none count
        self._holds: list[int] = []
        # per literal code
        self._value: list[bool | None] = []
        self._watches: list[list[int]] = []
        self._var_inc = 1.0
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        # what the latest UNSAT answer rests on: None if there is none to
        # explain; ("assumption", code) or ("clause", index) for the
        # assumption found false or the clause found false at the activation
        # level, until analyze_final walks it; then (failed assumption
        # literals, labels)
        self._failed: tuple | None = None
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
        self._holds.append(0)
        self._value += (None, None)
        self._watches += ([], [])
        return i

    def add_clause(self, literals: Iterable[int], labels: int = 0):
        """Add a clause that takes part in a solve when all the labels of
        mask ``labels`` are on.

        Duplicate literals collapse, and tautologies are dropped.
        ValueError for a literal 0 or a negative mask.
        """
        lits = tuple(dict.fromkeys(map(int, literals)))
        if 0 in lits:
            raise ValueError("literal 0 is not allowed in a clause")
        if labels < 0:
            raise ValueError("a label mask is a nonnegative int")
        if set(lits).isdisjoint(map(neg, lits)):
            self._add_rows([(lits, labels)])
            return
        # a tautology: its variables enter, the clause does not
        self._failed = None
        self._cancel_until(0)
        for l in lits:
            if l not in self._code:
                self._new_var(abs(l))

    def _add_rows(self, rows: Iterable[tuple]):
        """Add ``(literals, label mask)`` rows in order, unchecked: literals
        distinct, nonzero and free of complementary pairs, as ``LcnfFormula``
        rows are.  The one way an added clause enters: ``add_clause``
        checks a caller's clause and comes here, and ``LcnfOracle`` hands
        its rows here as they are.  A clause satisfied at level 0 is
        dropped and its literals false there leave it, but every variable
        it names enters the solver, so that models name it.  An unlabelled
        row of fewer than two literals is not stored: it gives level 0 a
        fact, or refutes the unlabelled clauses."""
        self._failed = None
        self._cancel_until(0)
        code_of = self._code
        value = self._value  # extended in place by _new_var
        for lits, mask in rows:
            clause: list[int] = []
            dropped = False  # satisfied at level 0
            for l in lits:
                code = code_of.get(l)
                if code is None:
                    code = 2 * self._new_var(abs(l)) + (l < 0)
                v = value[code]
                if v is None:
                    clause.append(code)
                elif v:
                    dropped = True
            if dropped:
                continue
            if mask or len(clause) > 1:
                self._store(clause, mask)
            elif clause:
                self._enqueue(clause[0], None)
            else:
                self._ok = False

    def _store(self, lits: list[int], labels: int, learned: bool = False) -> int:
        """Keep a clause of literal codes that is labelled or has two or more.

        ``labels`` is the mask of its labels.  One of fewer than two literals
        becomes short; a longer one goes in the watch lists if it is
        switched on.
        """
        ci = len(self._clauses)
        off = (labels & ~self._on).bit_count()
        self._clauses.append(lits)
        self._labels.append(labels)
        self._off.append(off)
        self._watched.append(False)
        self._learned.append(learned)
        if not (off or learned):
            holds = self._holds
            for q in lits:
                holds[q >> 1] += 1
        with_bit = self._with_bit
        while len(with_bit) < labels.bit_length():
            with_bit.append([])
        while labels:
            low = labels & -labels
            with_bit[low.bit_length() - 1].append(ci)
            labels ^= low
        if len(lits) < 2:
            self._short.append(ci)
        elif not off:
            self._watches[lits[0]].append(ci)
            self._watches[lits[1]].append(ci)
            self._watched[ci] = True
        return ci

    def _switch(self, labels: int):
        """Switch on exactly the labels of mask ``labels``; clauses switched
        on and out of the watch lists become pending.  Only the labels that
        change are visited, switched off first, each way lowest bit first; a
        bit past the labels any clause carries has no clauses."""
        old = self._on
        if labels == old:
            return
        with_bit = self._with_bit
        known = len(with_bit)
        off = self._off
        clauses = self._clauses
        learned = self._learned
        holds = self._holds
        gone = old & ~labels
        while gone:
            low = gone & -gone
            i = low.bit_length() - 1
            if i >= known:
                break
            gone ^= low
            for ci in with_bit[i]:
                if not (off[ci] or learned[ci]):
                    for q in clauses[ci]:
                        holds[q >> 1] -= 1
                off[ci] += 1
        watched = self._watched
        pending = self._pending
        new = labels & ~old
        while new:
            low = new & -new
            i = low.bit_length() - 1
            if i >= known:
                break
            new ^= low
            for ci in with_bit[i]:
                off[ci] -= 1
                if not off[ci]:
                    if not learned[ci]:
                        for q in clauses[ci]:
                            holds[q >> 1] += 1
                    if not watched[ci]:
                        pending.append(ci)
        self._on = labels

    def _activate(self) -> int | None:
        """Open the activation level; returns a clause it finds false, or None.

        First each pending clause that is switched on goes back in the watch
        lists.  Where the level-0 facts that arrived while it was out
        falsify a watched literal, a clause they satisfy watches its true
        literal, and any other loses the literals they falsify, becoming
        short if fewer than two are left.  Then each switched-on short
        clause is enqueued, or found false.
        """
        value = self._value
        clauses = self._clauses
        off = self._off
        watched = self._watched
        watches = self._watches
        for ci in self._pending:
            lits = clauses[ci]
            if off[ci] or watched[ci] or len(lits) < 2:
                continue
            if value[lits[0]] is False or value[lits[1]] is False:
                true = [q for q in lits if value[q]]
                if true:
                    # satisfied for good: watch the true literal, which never goes
                    q = true[0]
                    lits.remove(q)
                    lits.insert(0, q)
                else:
                    lits[:] = [q for q in lits if value[q] is None]
                    if len(lits) < 2:
                        self._short.append(ci)
                        continue
            watches[lits[0]].append(ci)
            watches[lits[1]].append(ci)
            watched[ci] = True
        self._pending = []
        self._trail_lim.append(len(self._trail))
        for ci in self._short:
            if off[ci]:
                continue
            lits = clauses[ci]
            if not lits or value[lits[0]] is False:
                return ci
            if value[lits[0]] is None:
                self._enqueue(lits[0], ci)
        return None

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
        """Unit propagation; returns a conflicting clause index or None.

        A clause that is off here leaves both its watch lists when met: at
        level 0 that is every labelled clause, and one switched on becomes
        pending.
        """
        value = self._value
        watches = self._watches
        clauses = self._clauses
        trail = self._trail
        level = len(self._trail_lim)
        levels = self._level
        reasons = self._reason
        off = self._off
        gate = off if level else self._labels
        qhead = self._qhead
        while qhead < len(trail):
            false_lit = trail[qhead] ^ 1
            qhead += 1
            watchlist = watches[false_lit]
            if not watchlist:
                continue
            kept: list[int] = []
            for ci in watchlist:
                lits = clauses[ci]
                if gate[ci]:
                    watches[lits[1] if lits[0] == false_lit else lits[0]].remove(ci)
                    self._watched[ci] = False
                    if not off[ci]:
                        self._pending.append(ci)
                    continue
                if lits[0] == false_lit:
                    lits[0] = first = lits[1]
                    lits[1] = false_lit
                else:
                    first = lits[0]
                first_value = value[first]
                if first_value:
                    kept.append(ci)
                    continue
                # an index loop: a range per visit costs more than the scan
                j = 2
                end = len(lits)
                while j < end:
                    q = lits[j]
                    if value[q] is not False:
                        lits[1] = q
                        lits[j] = false_lit
                        watches[q].append(ci)
                        break
                    j += 1
                else:
                    kept.append(ci)
                    if first_value is False:
                        # a clause sits in a watch list at most once, so
                        # index finds the position of the one visited
                        kept.extend(watchlist[watchlist.index(ci) + 1 :])
                        watches[false_lit] = kept
                        self._qhead = qhead
                        return ci
                    value[first] = True
                    value[first ^ 1] = False
                    levels[first >> 1] = level
                    reasons[first >> 1] = ci
                    trail.append(first)
            watches[false_lit] = kept
        self._qhead = qhead
        return None

    # -- conflict analysis --------------------------------------------------

    def _analyze(self, confl: int) -> tuple[list[int], int, int]:
        """First-UIP learning above the activation level.

        Returns the learned clause, the mask of the labels of the clauses
        resolved, and the backjump level.  The asserting literal sits at
        position 0 of the learned clause and a deepest remaining literal at
        position 1, ready for watching.  A labelled unit goes back to the
        activation level, an unlabelled one to level 0.
        """
        level = self._level
        labels = self._labels
        clauses = self._clauses
        trail = self._trail
        activity = self._activity
        var_inc = self._var_inc
        cur_level = len(self._trail_lim)
        seen: set[int] = set()
        learned: list[int] = [0]
        used = labels[confl]
        counter = 0
        index = len(trail)
        reason_lits = clauses[confl]
        while True:
            for q in reason_lits:
                # the literal a reason clause implied is already seen
                v = q >> 1
                lv = level[v]
                if not lv or v in seen:
                    continue
                seen.add(v)
                activity[v] += var_inc  # bump; rescale all past 1e100
                if activity[v] > 1e100:
                    self._activity = activity = [a * 1e-100 for a in activity]
                    self._var_inc = var_inc = var_inc * 1e-100
                if lv == cur_level:
                    counter += 1
                else:
                    learned.append(q)
            while True:
                index -= 1
                p = trail[index]
                if p >> 1 in seen:
                    break
            counter -= 1
            if counter == 0:
                break
            r = self._reason[p >> 1]
            used |= labels[r]
            reason_lits = clauses[r]
        learned[0] = p ^ 1
        if len(learned) == 1:
            return learned, used, 1 if used else 0
        # place a literal from the backjump level at position 1
        max_i = 1
        for i in range(2, len(learned)):
            if level[learned[i] >> 1] > level[learned[max_i] >> 1]:
                max_i = i
        learned[1], learned[max_i] = learned[max_i], learned[1]
        return learned, used, level[learned[1] >> 1]

    # -- main search --------------------------------------------------------

    def _pick_branch(self) -> int:
        """The unassigned variable of highest activity that a switched-on
        added clause holds, first-seen on ties; -1 if none."""
        value = self._value
        holds = self._holds
        best = -1
        best_act = -1.0
        for v, act in enumerate(self._activity):
            if act > best_act and value[2 * v] is None and holds[v]:
                best = v
                best_act = act
        return best

    def analyze_final(self) -> tuple[list[int], int]:
        """What the latest UNSAT answer rests on (MiniSat's ``analyzeFinal``).

        A pair: a subset of that call's assumptions, and the mask of the
        labels of the clauses the refutation used, inside the mask that was
        on.  The clauses those labels switch on, with the unlabelled ones,
        are unsatisfiable under those assumptions.  It is computed on the
        first request, from the trail the answer left, so an answer nobody
        asks about costs nothing.  RuntimeError unless the latest ``solve``
        answered UNSAT and no clause was added since.
        """
        failed = self._failed
        if failed is None:
            raise RuntimeError("no UNSAT answer to explain since the latest solve or clause")
        if failed[0] == "assumption":
            failed = self._failed = self._failed_from([failed[1]], [failed[1]], 0)
        elif failed[0] == "clause":
            ci = failed[1]
            failed = self._failed = self._failed_from(self._clauses[ci], [], self._labels[ci])
        return list(failed[0]), failed[1]

    def _failed_from(self, start: list[int], failed: list[int], labels: int) -> tuple:
        """Failed assumptions and labels behind the falsity of literals ``start``.

        Walks the trail down from its top to the activation level, following
        the reasons of every literal above level 0 that led to ``start``'s
        falsity; the assumptions met on the way (reasonless literals) are
        the ones it rests on, and the reasons' labels are the ones it uses.
        """
        level = self._level
        reason = self._reason
        clauses = self._clauses
        names = self._names
        used = labels
        seen = {q >> 1 for q in start if level[q >> 1]}
        for p in reversed(self._trail[self._trail_lim[0] :]):
            v = p >> 1
            if v not in seen:
                continue
            r = reason[v]
            if r is None:
                failed.append(p)
            else:
                used |= self._labels[r]
                seen.update(q >> 1 for q in clauses[r] if level[q >> 1])
        return [-names[c >> 1] if c & 1 else names[c >> 1] for c in failed], used

    def _model(self, free: dict) -> dict:
        """The assignment, total: a variable that no switched-on clause holds
        was never decided, and takes its saved phase."""
        values = self._value[::2]
        if None in values:
            phase = self._phase
            values = [not phase[v] if x is None else x for v, x in enumerate(values)]
        return dict(zip(self._names, map(bool, values))) | free

    def solve(self, assumptions: Iterable[int] = (), labels: int = 0) -> SatOutcome:
        """Decide satisfiability under unit assumptions, with the labels of
        mask ``labels`` on.

        The clauses that take part are the unlabelled ones and those whose
        labels all lie in ``labels``; the assumptions are opened in the
        order given.  A bit that no clause carries switches nothing on.
        ValueError for a negative mask.
        """
        self._failed = None
        if labels < 0:
            raise ValueError("a label mask is a nonnegative int")
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
            self._failed = ((), 0)
            return SatOutcome(False)
        if clash:
            self._failed = ([-clash, clash], 0)
            return SatOutcome(False)
        self._cancel_until(0)
        self._switch(labels)
        n = len(codes) + 1  # the activation level, then one level per assumption

        restart_count = 0
        restart_limit = self._RESTART_BASE * _luby(restart_count)
        since_restart = 0
        while True:
            confl = self._propagate()
            if confl is None and not self._trail_lim:
                confl = self._activate()
                if confl is None:
                    continue
            if confl is not None:
                level = len(self._trail_lim)
                if not level:
                    self._ok = False
                    self._failed = ((), 0)
                    return SatOutcome(False)
                self.conflicts += 1
                since_restart += 1
                if self.conflict_budget is not None and self.conflicts > self.conflict_budget:
                    self._cancel_until(0)
                    raise ResourceLimitError(
                        f"conflict budget of {self.conflict_budget} exceeded"
                    )
                if level == 1:
                    self._failed = ("clause", confl)
                    return SatOutcome(False)
                learned, used, back_level = self._analyze(confl)
                self._cancel_until(back_level)
                reason = self._store(learned, used, True) if used or len(learned) > 1 else None
                self._enqueue(learned[0], reason)
                self._var_inc /= 0.95
                if since_restart >= restart_limit:
                    restart_count += 1
                    restart_limit = self._RESTART_BASE * _luby(restart_count)
                    since_restart = 0
                    self._cancel_until(1)
                continue
            level = len(self._trail_lim)
            if level < n:
                # one assumption level per turn: propagating a literal
                # whose negation no clause watches costs one empty visit
                a = codes[level - 1]
                v = self._value[a]
                if v is False:
                    self._failed = ("assumption", a)
                    return SatOutcome(False)
                self._trail_lim.append(len(self._trail))
                if v is None:
                    self._enqueue(a, None)
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


class LcnfOracle:
    """Query engine for one labelled formula over one labelled solver.

    Gives the solver each clause with its label mask once; every query
    about an induced subformula is then a ``solve`` with the query's labels
    on, and only a clause under test enters as assumptions, its negated
    literals.  A query names labels by int mask only, in the formula's
    numbering, bit i for the i-th smallest active label
    (``LcnfFormula.label_bits``); ``LcnfFormula.mask_of`` converts a label
    set.  A negative mask is a ValueError, and a bit past the active labels
    stands for no clause.  Learned clauses carry over between queries, each
    taking part wherever the labels it was resolved from are on, and
    ``conflict_budget`` bounds the conflicts over every solve of every
    query.  Instances are not thread-safe.
    """

    def __init__(self, phi: LcnfFormula, *, conflict_budget: int | None = None):
        self.formula = phi
        # (sorted literals, label mask) per clause, in formula order
        self._rows = list(zip((lits for lits, _ in phi.rows), phi.label_masks))
        self._full = (1 << len(phi.label_bits)) - 1  # every active label's bit
        self._solver = solver = Solver(conflict_budget=conflict_budget)
        solver._add_rows(self._rows)
        if len(solver._clauses) == len(self._rows):
            # no level-0 fact, so _add_rows stored every row as it is: each
            # row is the solver's clause of the same index, and the solver's
            # clauses per label bit, reversed, are _with_bit
            self._with_bit = {1 << i: c[::-1] for i, c in enumerate(solver._with_bit)}
        # what the latest query proved: ("model", the model) or ("core", None);
        # see _latest
        self._evidence: tuple | None = None

    def _mask(self, mask: int) -> int:
        """``mask`` less its bits past the active labels; ValueError if it
        is negative."""
        if mask < 0:
            raise ValueError("a label mask is a nonnegative int")
        return mask & self._full

    @cached_property
    def _with_bit(self) -> dict[int, list[int]]:
        """Per label bit, the rows carrying that label, latest first.  Read
        off the solver's per-bit clause lists when ``_add_rows`` stored every
        row, so that clause i is row i; else built on first use."""
        rows = self._rows
        with_bit: dict[int, list[int]] = {b: [] for b in self.formula.label_bits.values()}
        for i in range(len(rows) - 1, -1, -1):
            m = rows[i][1]
            while m:
                low = m & -m
                with_bit[low].append(i)
                m ^= low
        return with_bit

    @cached_property
    def _rotation_index(self) -> tuple[list[int], list[list[int]], list[int]]:
        """Per row, the mask of its literals; per literal, the rows holding
        it, in row order; and the positive literals in variable order, the
        order of the flips over a whole model.  A literal is its solver code
        (``Solver._code``): literal v of the solver's i-th variable is bit
        2i, and -v bit 2i + 1.  Built by the first ``rotate``, so an oracle
        that never rotates never pays for it."""
        solver = self._solver
        code = solver._code
        occurs: list[list[int]] = [[] for _ in solver._value]
        literal_masks = []
        for i, (lits, _) in enumerate(self._rows):
            m = 0
            for x in lits:
                c = code[x]
                m |= 1 << c
                occurs[c].append(i)
            literal_masks.append(m)
        return literal_masks, occurs, [code[v] for v in sorted(solver._names)]

    def is_sat_induced(self, mask: int) -> bool:
        """Satisfiability of the subformula induced by the labels of ``mask``.

        Afterwards ``model`` or ``core`` holds the evidence for the answer.
        """
        self._evidence = None
        outcome = self._solver.solve((), self._mask(mask))
        self._evidence = ("model", outcome.model) if outcome.satisfiable else ("core", None)
        return outcome.satisfiable

    def _latest(self, kind: str):
        if self._evidence is None or self._evidence[0] != kind:
            raise RuntimeError(f"the latest query left no {kind}")
        return self._evidence[1]

    def model(self) -> dict:
        """A model of the clauses the latest query kept, over exactly the
        formula's variables.

        After ``is_sat_induced`` answered True it satisfies the induced
        subformula.  After ``entails_clause`` answered False it satisfies
        the subformula induced by its ``mask`` and falsifies every literal
        of the clause on a variable of the formula.  After
        ``is_equivalent_subformula`` answered False it satisfies the
        subformula induced by its ``mask`` and falsifies one of the removed
        clauses.
        """
        return self._latest("model")

    def core(self) -> int:
        """The mask of the labels behind the latest UNSAT answer.

        They are the labels of the clauses that the refutation of the latest
        query used (``Solver.analyze_final``), so they lie inside the mask it
        was asked about, and the subformula they induce entails the clause
        tested: after ``entails_clause`` answered True, its clause, and after
        ``is_sat_induced`` answered False, the empty clause, so that
        subformula is unsatisfiable.  So is one after ``entails_clause``
        when ``core_unsatisfiable`` says so.  Every mask that contains the
        core gets the same answer.
        """
        self._latest("core")
        return self._solver.analyze_final()[1]

    def core_unsatisfiable(self) -> bool:
        """Whether the labels of ``core`` induce an unsatisfiable subformula.

        Always so after ``is_sat_induced``; after ``entails_clause``, exactly
        when the refutation used none of the clause's negated literals.
        """
        self._latest("core")
        return not self._solver.analyze_final()[0]

    def satisfies(self, model: dict, bit: int, within: int) -> bool:
        """Whether ``model`` satisfies every clause carrying the label of
        ``bit`` whose label mask lies inside ``within``."""
        rows = self._rows
        outside = ~self._mask(within)
        for i in self._with_bit.get(bit, ()):
            lits, mask = rows[i]
            if not mask & outside and not any(model.get(abs(x)) == (x > 0) for x in lits):
                return False
        return True

    def rotate(self, model: dict, within: int, known: int = 0, left_out: int = 0) -> int:
        """The mask of the labels necessary in ``within`` that recursive
        model rotation proves.

        An assignment that satisfies every clause inside ``within`` (label
        mask a subset of it) without label l and falsifies one with l proves
        l necessary: ``within`` less l is satisfiable and misses a clause of
        ``within``.  A deletion sweep whose current set stays equivalent or
        unsatisfiable keeps such an l with no solve, as the smaller sets it
        reaches are induced by fewer labels still.

        ``model`` comes from a query that left out of ``within`` the label
        of bit ``left_out``, or none when it is 0: it satisfies every clause
        inside ``within`` that lacks that label, so only that label's
        clauses can be falsified there.  From ``model``, each variable of the
        clauses it falsifies inside ``within`` is flipped in turn and
        flipped back.  When the clauses the flipped assignment falsifies
        there share labels outside ``known`` and outside those found so far,
        it proves them, and rotation recurses from it (Marques-Silva &
        Lynce, SAT 2011; Belov & Marques-Silva, FMCAD 2011).  From the first
        model of ``within`` met, ``model`` itself or a flip that falsifies
        nothing there, every variable is flipped once.  ``model`` is a total
        assignment, as ``model()`` hands out, and is left as it was.
        Returns the labels proven, less ``known``; no solve is made.

        The assignment is one int of two bits per variable, so each flip and
        each falsified-clause test costs time linear in the variable count,
        and a whole-model rotation about its square.  That suits formulas of
        tens of variables best; it still beats a set of true literals, which
        is copied for each label proven, at 10000.
        """
        literal_masks, occurs, by_variable = self._rotation_index
        rows = self._rows
        labels = self.formula.label_masks  # per row
        code = self._solver._code
        outside = ~self._mask(within)
        proven = known = self._mask(known)
        # the assignment as an int with the bit of each true literal set: a
        # clause is falsified exactly when its literal mask misses them all
        true = 0
        for i, v in enumerate(self._solver._names):
            true |= (1 if model[v] else 2) << 2 * i
        falsified = []
        if left_out:
            for i in self._with_bit.get(left_out, ()):
                if not labels[i] & outside and not true & literal_masks[i]:
                    falsified.append(i)
            falsified.reverse()  # in formula order
        stack = [(true, falsified)]
        whole = bool(falsified)  # no model of ``within`` has been met yet
        while stack:
            true, falsified = stack.pop()
            if falsified:
                # each falsified row's variables, in its literal order
                flips = dict.fromkeys(code[x] & -2 for i in falsified for x in rows[i][0])
            else:
                flips = by_variable
            for s in flips:
                lit = s if true >> s & 1 else s + 1  # the literal the flip falsifies
                pair = 3 << s
                true ^= pair
                # the falsified rows without the variable, and those lit alone satisfied
                now = [i for i in falsified if not literal_masks[i] & pair] if falsified else []
                for i in occurs[lit]:
                    if not true & literal_masks[i] and not labels[i] & outside:
                        now.append(i)
                if now:
                    shared = labels[now[0]] & ~proven
                    for i in now[1:]:
                        shared &= labels[i]
                    if shared:
                        proven |= shared
                        stack.append((true, now))
                elif whole:
                    whole = False
                    stack.append((true, now))
                true ^= pair
        return proven & ~known

    def entails_clause(self, mask: int, clause) -> bool:
        """Whether the subformula induced by the labels of ``mask`` entails
        ``clause``.

        A literal on a variable the formula lacks can always be made false,
        and a clause holding both a literal and its negation is always
        entailed; ``Solver.solve`` answers both ways.  Afterwards ``model``
        or ``core`` holds the evidence for the answer.
        """
        lits = sort_literals(map(int, clause))
        self._evidence = None
        outcome = self._solver.solve([-l for l in lits], self._mask(mask))
        if not outcome.satisfiable:
            self._evidence = ("core", None)
            return True
        model = outcome.model
        # the solver puts the variables of the clause that it lacks in its model
        for l in lits:
            if abs(l) not in self.formula.variables:
                model.pop(abs(l), None)
        self._evidence = ("model", model)
        return False

    def is_equivalent_subformula(self, mask: int, within: int | None = None) -> bool:
        """Whether inducing with the labels of ``mask`` preserves equivalence.

        Compares against the whole formula by default, or against the
        subformula induced by ``within`` (which must contain ``mask``).
        Checked clause by clause, latest first (reverse formula order): every
        removed clause, one with a label in the comparison set but not in
        ``mask``, must be entailed by the kept ones; the first non-entailed
        clause short-circuits, and ``model`` then holds a model of the kept
        clauses that falsifies it.  The order changes which clause that is,
        never the answer.  Each removed clause costs one solve, up to the
        first that is not entailed; no answer is kept for later queries.
        """
        kept = self._mask(mask)
        sup = self._full if within is None else self._mask(within)
        if kept & ~sup:
            raise ValueError("labels must be contained in the comparison set")
        self._evidence = None
        rows = self._rows
        gone = sup ^ kept
        if gone & (gone - 1):
            removed = range(len(rows) - 1, -1, -1)  # every clause, latest first
        else:
            removed = self._with_bit.get(gone, ())
        outside = ~sup
        # the formula's own rows, checked when it made them, need none of the
        # checks entails_clause makes on a caller's clause
        for i in removed:
            lits, m = rows[i]
            if m & gone and not m & outside:
                outcome = self._solver.solve(map(neg, lits), kept)
                if outcome.satisfiable:
                    self._evidence = ("model", outcome.model)
                    return False
        return True

    def record_subsumers(self) -> list[list[int]]:
        """Per clause, the label mask of each other clause that subsumes it.

        When clause d's literals are a subset of clause c's, phi|K entails c
        for K the labels of d, with no solve (syntactic subsumption; Een &
        Biere, SAT 2005), so a caller may skip c's solve wherever it keeps
        K.  Each clause gets the label masks of the other clauses whose
        literals lie inside its own, one per such clause and in no set
        order; a clause with no subsumer gets an empty list.  Rows are
        sorted, so each in-order sub-tuple of a row is a literal tuple that
        may key other rows; per clause and per width the formula has, the
        lookup enumerates those sub-tuples or scans the keys of that width,
        whichever are fewer, so wide clauses cost no more than a scan.
        Worth its cost where many queries ask about the same clauses, as
        ``classify_all``'s equivalence pass does; witness sweeps never call
        it.
        """
        rows = self._rows
        with_literals: dict[tuple, list[int]] = {}
        for j, (lits, _) in enumerate(rows):
            with_literals.setdefault(lits, []).append(j)
        keys_of_width: dict[int, list[tuple]] = {}
        for key in with_literals:
            keys_of_width.setdefault(len(key), []).append(key)
        subsumers: list[list[int]] = [[] for _ in rows]
        for i, (lits, _) in enumerate(rows):
            for width, keys in keys_of_width.items():
                if width > len(lits):
                    continue
                if comb(len(lits), width) <= len(keys):
                    inside = combinations(lits, width)
                else:
                    own = set(lits)
                    inside = [key for key in keys if own.issuperset(key)]
                for key in inside:
                    for j in with_literals.get(key, ()):
                        if j != i:
                            subsumers[i].append(rows[j][1])
        return subsumers
