"""Solver and labelled-formula oracle, cross-checked by model enumeration."""
import random

import pytest

from lcnf.bruteforce import (
    GenerationProfile,
    _classify_truth_tables,
    _closure_pass,
    random_lcnf,
)
from lcnf.core import LcnfFormula
from lcnf.errors import ResourceLimitError
from lcnf.oracle import (
    LcnfOracle,
    Solver,
    solve,
)

from conftest import cnf, models_of, sweep_formula


def random_cnf(rng, max_vars=5, max_clauses=14, max_width=3):
    n = rng.randint(1, max_vars)
    m = rng.randint(0, max_clauses)
    clauses = []
    for _ in range(m):
        width = rng.randint(1, min(max_width, n))
        vs = rng.sample(range(1, n + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return clauses, n


def test_empty_formula_is_sat():
    assert solve([]).satisfiable
    assert solve([]).model == {}


def test_empty_clause_is_unsat():
    assert not solve([()]).satisfiable


def test_sat_model_satisfies_every_clause():
    clauses = [(1, 2), (-1, 3), (-2, -3), (2, 3)]
    out = solve(clauses)
    assert out.satisfiable
    for c in clauses:
        assert any(out.model[abs(l)] == (l > 0) for l in c)


def test_full_contradiction_is_unsat():
    assert not solve([(1, 2), (1, -2), (-1, 2), (-1, -2)]).satisfiable


def test_outcome_truthiness():
    assert solve([(1,)])
    assert not solve([(1,), (-1,)])


def test_assumptions_restrict_models():
    clauses = [(1, 2)]
    out = solve(clauses, assumptions=(-1,))
    assert out.satisfiable and out.model[1] is False and out.model[2] is True
    assert not solve(clauses, assumptions=(-1, -2)).satisfiable


def test_conflicting_assumptions_are_unsat():
    assert not solve([(1, 2)], assumptions=(3, -3)).satisfiable


def test_assumptions_reject_zero():
    with pytest.raises(ValueError):
        solve([(1,)], assumptions=(0,))
    with pytest.raises(ValueError):
        solve([()], assumptions=(0,))


def test_assumption_variables_reported_in_model():
    out = solve([(1, 2)], assumptions=(7, -8))
    assert out.model[7] is True and out.model[8] is False


def test_solver_reusable_across_assumption_sets():
    s = Solver([(1, 2), (-1, 2), (1, -2)])
    assert s.solve().satisfiable
    assert not s.solve(assumptions=(-1, -2)).satisfiable
    assert s.solve(assumptions=(1,)).satisfiable
    assert not s.solve(assumptions=(-2,)).satisfiable
    assert s.solve().satisfiable


def test_conflict_budget_zero_raises_on_search():
    # needs at least one conflict to refute, so a zero budget trips
    with pytest.raises(ResourceLimitError):
        solve([(1, 2), (1, -2), (-1, 2), (-1, -2)], conflict_budget=0)


def test_conflict_budget_bounds_the_solver_life():
    # under 10 the clauses forbid every value of (1, 2), under 11 every value
    # of (3, 4): each refutation takes 2 conflicts, both together take 4
    clauses = [
        (-a, s * x, t * y)
        for a, x, y in ((10, 1, 2), (11, 3, 4))
        for s in (1, -1)
        for t in (1, -1)
    ]
    s = Solver(clauses, conflict_budget=2)
    assert not s.solve([10]) and s.conflicts == 2
    with pytest.raises(ResourceLimitError, match="conflict budget of 2 exceeded"):
        s.solve([11])
    assert not Solver(clauses, conflict_budget=2).solve([11])


def test_conflict_budget_generous_enough_succeeds():
    out = solve([(1, 2), (1, -2), (-1, 2), (-1, -2)], conflict_budget=100)
    assert not out.satisfiable


def test_budget_does_not_trip_on_propagation_only():
    # chain solved by unit propagation alone: zero conflicts consumed
    out = solve([(1,), (-1, 2), (-2, 3)], conflict_budget=0)
    assert out.satisfiable and out.model == {1: True, 2: True, 3: True}


def test_solver_agrees_with_model_enumeration():
    rng = random.Random(2024)
    for _ in range(300):
        clauses, n = random_cnf(rng)
        vs = range(1, n + 1)
        expected = bool(models_of(clauses, vs))
        out = solve(clauses)
        assert out.satisfiable == expected
        if out.satisfiable:
            for c in clauses:
                assert any(out.model[abs(l)] == (l > 0) for l in c)


def test_solver_agrees_under_assumptions():
    rng = random.Random(77)
    for _ in range(150):
        clauses, n = random_cnf(rng)
        asm_vars = rng.sample(range(1, n + 1), rng.randint(0, n))
        asms = tuple(v if rng.random() < 0.5 else -v for v in asm_vars)
        augmented = clauses + [(a,) for a in asms]
        expected = bool(models_of(augmented, range(1, n + 1)))
        assert solve(clauses, assumptions=asms).satisfiable == expected


def test_one_solver_answers_a_query_sequence_like_fresh_solvers():
    # one Solver answers a sequence of solves: each assumption list shares a
    # prefix with the previous one, reorders it, drops some of its literals
    # or inserts new ones anywhere; the labels switched on go up and down
    # between solves; clauses, labelled or not and units among them, arrive
    # between solves, unlabelled units among them while labelled clauses are
    # off; and a budget runs out mid-sequence.  Every answer must match a
    # fresh solver's on the clauses the labels switch on, every model must
    # satisfy them and the assumptions and assign every variable, and every
    # UNSAT answer's failed assumptions and labels must lie inside the
    # solve's and, together, refute the clauses those labels switch on.
    # Label l is bit l - 1 of a mask.  Labels are switched on before any
    # clause carries them, and label 7, which no clause carries, has a bit
    # past every clause's
    rng = random.Random(31)
    budget_trips = 0
    cores = 0
    label_cores = 0
    units_while_off = 0
    steps = [0, 0, 0, 0]
    moves = {"up": 0, "down": 0}
    uncarried = 0

    def labels_for():
        return () if rng.random() < 0.3 else tuple(rng.sample(range(1, 7), rng.randint(1, 2)))

    def mask(labels):
        return sum(1 << (l - 1) for l in labels)

    def labels_in(mask):
        return {l for l in range(1, 8) if mask >> (l - 1) & 1}

    def induced(labels):
        return [c for c, ls in clauses if set(ls) <= labels]

    for _ in range(40):
        n = rng.randint(5, 9)
        clauses = [
            (tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3)), labels_for())
            for _ in range(rng.randint(3 * n, 5 * n))
        ]
        s = Solver()
        for c, ls in clauses:
            s.add_clause(c, mask(ls))
        asms = []
        on = set()
        for _ in range(60):
            r = rng.random()
            if r < 0.1:
                width = rng.randint(1, 2)
                c = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width))
                ls = labels_for() if rng.random() < 0.5 else ()
                s.add_clause(c, mask(ls))
                clauses.append((c, ls))
                if width == 1 and not ls and any(not set(l) <= on for _, l in clauses):
                    units_while_off += 1
                continue
            step = rng.randrange(4)
            steps[step] += 1
            new = [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 3), rng.randint(0, 3))]
            if step == 0:  # a shared prefix, then new literals
                asms = asms[: rng.randint(0, len(asms))] + new
            elif step == 1:  # the same literals in another order
                rng.shuffle(asms)
            elif step == 2:  # a subset, in the same order
                asms = [a for a in asms if rng.random() < 0.7]
            else:  # a superset, new literals anywhere
                for a in new:
                    asms.insert(rng.randint(0, len(asms)), a)
            if rng.random() < 0.5:
                moves["up"] += 1
                on |= set(rng.sample(range(1, 8), rng.randint(1, 3)))
            elif on:
                moves["down"] += 1
                on -= set(rng.sample(sorted(on), rng.randint(1, len(on))))
            labels = mask(on)
            uncarried += not on <= {l for _, ls in clauses for l in ls}
            outcomes = []
            if r < 0.2:
                # the query that exceeds its budget is asked again without one
                s.conflict_budget = 0
                try:
                    outcomes.append(s.solve(asms, labels))
                except ResourceLimitError:
                    budget_trips += 1
                finally:
                    s.conflict_budget = None
            outcomes.append(s.solve(asms, labels))
            kept = induced(on)
            expected = solve(kept, asms).satisfiable
            variables = {abs(l) for c, _ in clauses for l in c} | {abs(a) for a in asms}
            for out in outcomes:
                assert out.satisfiable == expected
                if out:
                    assert set(out.model) == variables
                    assert all(out.model[abs(a)] == (a > 0) for a in asms)
                    assert all(any(out.model[abs(l)] == (l > 0) for l in c) for c in kept)
            if not expected:
                failed, core = s.analyze_final()
                assert set(failed) <= set(asms)
                assert core & ~labels == 0
                refuted = induced(labels_in(core))
                assert not solve(refuted, failed).satisfiable, (asms, failed, on, core)
                cores += len(failed) < len(set(asms))
                label_cores += core != labels
    assert budget_trips > 0
    assert cores > 100  # most cores are proper subsets
    assert label_cores > 400, label_cores
    assert units_while_off > 50, units_while_off
    assert min(steps) > 400, steps
    assert min(moves.values()) > 600, moves
    assert uncarried > 600, uncarried


def _final(s):
    failed, labels = s.analyze_final()
    return sorted(failed), labels


def _unsat_solver():
    # unsatisfiable under 1 and 2 together, whatever 3 is; under 6 too,
    # but only after a conflict
    s = Solver([(-1, -2, 4), (-4, 5), (-4, -5), (1, 3)])
    for a, b in ((10, 11), (10, -11), (-10, 11), (-10, -11)):
        s.add_clause((-6, a, b))
    out = s.solve([1, 2, 3])
    assert not out and _final(s) == ([1, 2], 0)
    return s


def test_failed_assumptions_cover_each_kind_of_unsat_answer():
    s = Solver([(1, 2), (-1, 2)])
    assert not s.solve([-2, 7]) and _final(s) == ([-2], 0)
    # contradicting assumptions on a variable the clauses lack
    assert not s.solve([9, 3, -9]) and _final(s) == ([-9, 9], 0)
    # contradicting assumptions on a clause variable
    assert not s.solve([1, 3, -1]) and _final(s) == ([-1, 1], 0)
    # the clauses alone are unsatisfiable
    s.add_clause((-2,))
    assert not s.solve([1]) and _final(s) == ([], 0)
    assert not s.solve([1]) and _final(s) == ([], 0)


@pytest.mark.parametrize("after", ["sat answer", "add_clause", "budget", "bad call"])
def test_failed_assumptions_are_never_stale(after):
    s = _unsat_solver()
    if after == "sat answer":
        assert s.solve([1, 3])
    elif after == "add_clause":
        s.add_clause((6, 7))
    elif after == "budget":
        s.conflict_budget = 0
        with pytest.raises(ResourceLimitError):
            s.solve([6])
    else:
        with pytest.raises(ValueError):
            s.solve([1, 0])
    with pytest.raises(RuntimeError):
        s.analyze_final()


def test_failed_assumptions_follow_the_latest_solve():
    s = _unsat_solver()
    assert not s.solve([4])
    assert s.analyze_final() == ([4], 0)
    with pytest.raises(RuntimeError):
        Solver([(1,)]).analyze_final()  # nothing solved yet


def test_switched_off_clauses_still_have_their_variables_assigned():
    # labels 5 and 6 (bits 1 and 2) switch clauses on; a clause takes part
    # only when all its labels are on, a bit no clause carries (99) is
    # ignored, and every model is total, over exactly the clause variables,
    # even those only switched-off clauses have (7), and satisfies every
    # clause switched on
    bit = {5: 1, 6: 2, 99: 4}
    clauses = [((1, 2), ()), ((-1, 3), ()), ((2, 3, 4), ()), ((1,), (5,)), ((-2,), (5, 6)), ((4, -3), (6,))]
    s = Solver()
    for c, ls in clauses:
        s.add_clause(c, sum(bit[l] for l in ls))
    s.add_clause((1, -4, 7), bit[6])
    clauses.append(((1, -4, 7), (6,)))
    for labels, asms in (
        ({5, 6}, []), ({6}, []), ({5}, []), (set(), []), (set(), [1]), (set(), [-1]),
        ({6, 99}, []), ({5}, [-1]), ({6}, [-1, 2]), ({5, 6}, [-7]), ({6}, [-1, -7]),
    ):
        kept = [c for c, ls in clauses if set(ls) <= labels]
        on = sum(bit[l] for l in labels)
        out = s.solve(asms, on)
        expected = solve(kept, asms).satisfiable
        assert out.satisfiable == expected, (labels, asms)
        if not out:
            failed, core = s.analyze_final()
            assert core & ~on == 0 and set(failed) <= set(asms)
            switched_on = [c for c, ls in clauses if sum(bit[l] for l in ls) & ~core == 0]
            assert not solve(switched_on, failed)
            continue
        assert set(out.model) == {1, 2, 3, 4, 7}
        assert all(out.model[abs(a)] == (a > 0) for a in asms)
        assert all(any(out.model[abs(l)] == (l > 0) for l in c) for c in kept)


def test_variables_no_switched_on_clause_holds_keep_their_saved_phase():
    # with label 1 off, variables 1-3 sit only in switched-off clauses: no
    # decision goes to them, and the model gives each its saved phase, the
    # value it had when it was last assigned; every model stays total
    s = Solver()
    s.add_clause((1, 2), 1)
    s.add_clause((-2, 3), 1)
    s.add_clause((4, 5))
    picks = []
    pick_branch = s._pick_branch
    s._pick_branch = lambda: picks.append(None) or pick_branch()
    for first in (1, -1, 1, -1):
        on = s.solve([first], 1).model
        assert on[1] == (first > 0)
        picks.clear()
        off = s.solve().model
        assert set(off) == set(on) == {1, 2, 3, 4, 5}
        assert [off[v] for v in (1, 2, 3)] == [on[v] for v in (1, 2, 3)]
        # one decision on 4 or 5, which sets both, then none is left
        assert len(picks) == 2


def _reference_solver(phi):
    """A solver fed each formula clause through the public add_clause, its
    literals reversed and the first one repeated, and its labels as the
    formula's mask of them."""
    s = Solver()
    for lits, ls in phi.rows:
        lits = sorted(lits, reverse=True)
        s.add_clause([*lits, lits[0]] if lits else lits, phi.mask_of(ls))
    return s


def _assert_oracle_matches_reference(phi, rng, queries=12):
    ora = LcnfOracle(phi)
    ref = _reference_solver(phi)
    active = sorted(phi.active_labels)
    for _ in range(queries):
        labels = frozenset(l for l in active if rng.random() < 0.5)
        within = labels | {l for l in active if rng.random() < 0.5}
        mask = phi.mask_of(labels)
        sat = ora.is_sat_induced(mask)
        assert sat == ref.solve((), mask).satisfiable, (phi, labels)
        if sat:
            assert set(ora.model()) == phi.variables
        removed = [lits for lits, ls in phi.rows if ls <= within and not ls <= labels]
        expected = all(
            not ref.solve([-l for l in c], mask).satisfiable for c in removed
        )
        equivalent = ora.is_equivalent_subformula(mask, phi.mask_of(within))
        assert equivalent == expected, (phi, labels, within)
        if not expected:
            assert set(ora.model()) == phi.variables


def test_oracle_built_from_rows_answers_like_clause_by_clause_solver():
    # the oracle hands the solver its formula's rows as they are; a solver
    # fed the same clauses one by one through add_clause, which checks and
    # collapses them, must answer every query the same
    rng = random.Random(16)
    profile = GenerationProfile(variables=6, clauses=16, labels=5, clause_labels=2)
    for seed in range(150):
        _assert_oracle_matches_reference(random_lcnf(seed, profile), rng)
    hand_made = [
        # unlabelled units before and after the clauses they satisfy (1) or
        # shorten (-2) at level 0
        ([(1,), (-2,), (1, 3), (2, 4, -3), (2, 5), (-1, 2, 3), (-2,), (1,)],
         [(), (), (1,), (2,), (3,), (1, 2), (), ()]),
        ([(1, 3), (2, 4, -3), (-1, 2, 3), (1,), (-2,)], [(1,), (2,), (3,), (), ()]),
        # (1 6 7) is dropped at level 0, and 6 and 7 appear nowhere else
        ([(1,), (1, 6, 7), (-1, 2), (2, 3), (-3, 4)], [(), (), (1,), (2,), (1, 2)]),
        ([(1,), (1, 6, 7), (-1, 2), (2, 3)], [(), (1,), (1,), (2,)]),
        # duplicate clauses, labelled alike and apart
        ([(1, 2), (1, 2), (-1, 2), (-1, 2), (-2, 3), (-2, 3), (-3,)],
         [(1,), (1,), (2,), (3,), (), (4,), (5,)]),
    ]
    for clauses, labelling in hand_made:
        phi = LcnfFormula.from_clauses(clauses, labelling)
        _assert_oracle_matches_reference(phi, rng, queries=40)
    phi = LcnfFormula.from_clauses(*hand_made[2])
    ora = LcnfOracle(phi)
    assert ora.is_sat_induced(0)
    assert set(ora.model()) == {1, 2, 3, 4, 6, 7}


def random_lcnf_inputs(rng, max_vars=4, max_clauses=8, max_labels=4):
    clauses, n = random_cnf(rng, max_vars=max_vars, max_clauses=max_clauses)
    labelling = []
    for _ in clauses:
        if rng.random() < 0.2:
            labelling.append(())
        else:
            k = rng.randint(1, 2)
            labelling.append(tuple(rng.sample(range(1, max_labels + 1), k)))
    return LcnfFormula.from_clauses(clauses, labelling), n


def test_induced_sat_matches_plain_solver_on_induced_cnf():
    rng = random.Random(11)
    for _ in range(200):
        phi, _ = random_lcnf_inputs(rng)
        ora = LcnfOracle(phi)
        active = sorted(phi.active_labels)
        subset = frozenset(l for l in active if rng.random() < 0.5)
        direct = solve(cnf(phi.induced(subset))).satisfiable
        assert ora.is_sat_induced(phi.mask_of(subset)) == direct


def test_equivalence_matches_model_sets_over_parent_universe():
    rng = random.Random(12)
    for _ in range(200):
        phi, n = random_lcnf_inputs(rng)
        ora = LcnfOracle(phi)
        universe = phi.variables
        full_models = models_of(cnf(phi), universe)
        subset = frozenset(
            l for l in sorted(phi.active_labels) if rng.random() < 0.5
        )
        sub_models = models_of(cnf(phi.induced(subset)), universe)
        assert ora.is_equivalent_subformula(phi.mask_of(subset)) == (sub_models == full_models)


def test_one_oracle_answers_a_mixed_query_sequence():
    # consecutive label sets differ in one label, in several at once, or
    # shrink to a subset that the next step grows back from; the solver
    # switches clauses off and back on between neighbouring queries
    rng = random.Random(32)
    steps = {"one": 0, "several": 0, "shrink": 0, "grow back": 0}
    for _ in range(60):
        phi, n = random_lcnf_inputs(rng, max_vars=5, max_clauses=10, max_labels=5)
        ora = LcnfOracle(phi)
        active = sorted(phi.active_labels)
        universe = set(range(1, n + 1))
        labels = set(active)
        before = None  # the set a shrink step left, to grow back to
        for _ in range(30):
            r = rng.random()
            if before is not None:
                labels, before = before, None
                steps["grow back"] += 1
            elif len(active) > 1 and r < 0.25:
                labels ^= set(rng.sample(active, rng.randint(2, len(active))))
                steps["several"] += 1
            elif labels and r < 0.45:
                before = set(labels)
                labels = {l for l in labels if rng.random() < 0.5}
                steps["shrink"] += 1
            elif active and r < 0.85:
                labels ^= {rng.choice(active)}
                steps["one"] += 1
            models = models_of(cnf(phi.induced(labels)), universe)
            mask = phi.mask_of(labels)
            kind = rng.randrange(3)
            if kind == 0:
                assert ora.is_sat_induced(mask) == bool(models)
            elif kind == 1:
                # goal variables reach past the formula's; a repeated variable
                # may make a tautology
                vs = rng.choices(range(1, n + 4), k=rng.randint(1, 3))
                goal = tuple(v if rng.random() < 0.5 else -v for v in vs)
                wide = sorted(universe | set(vs))
                index = {v: i for i, v in enumerate(wide)}
                expected = all(
                    any(m[index[abs(l)]] == (l > 0) for l in goal)
                    for m in models_of(cnf(phi.induced(labels)), wide)
                )
                assert ora.entails_clause(mask, goal) == expected, (labels, goal)
            elif kind == 2:
                within = labels | {l for l in active if rng.random() < 0.5}
                wider = models_of(cnf(phi.induced(within)), universe)
                equivalent = ora.is_equivalent_subformula(mask, phi.mask_of(within))
                assert equivalent == (models == wider)
    assert min(steps.values()) > 200, steps


def test_oracle_models_range_over_exactly_the_formula_variables():
    # whatever queries came before, a model the oracle hands out assigns
    # each variable of the formula and nothing else: no helper variable,
    # and no variable of an entailment goal the formula lacks, though the
    # solver assigns such a variable of its assumptions
    rng = random.Random(35)
    models = {"sat": 0, "non-entailed": 0, "non-equivalent": 0}
    for _ in range(100):
        phi, n = random_lcnf_inputs(rng, max_vars=5, max_clauses=10, max_labels=5)
        ora = LcnfOracle(phi)
        active = sorted(phi.active_labels)
        for _ in range(15):
            mask = phi.mask_of(l for l in active if rng.random() < 0.6)
            kind = rng.randrange(3)
            if kind == 0:
                if ora.is_sat_induced(mask):
                    assert set(ora.model()) == phi.variables
                    models["sat"] += 1
            elif kind == 1:
                goal = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 4), 2))
                if not ora.entails_clause(mask, goal):
                    assert set(ora.model()) == phi.variables
                    models["non-entailed"] += 1
            elif not ora.is_equivalent_subformula(mask):
                assert set(ora.model()) == phi.variables
                models["non-equivalent"] += 1
    assert min(models.values()) > 100, models


def _satisfied(model, clause):
    return any(model.get(abs(l)) == (l > 0) for l in clause)


def test_oracle_evidence_backs_each_answer():
    # a model of the induced clauses after SAT, an unsatisfiable core inside
    # the queried labels after UNSAT, and after non-equivalence a model of
    # the kept clauses that falsifies a removed one; nothing else is left
    rng = random.Random(34)
    answers = {"sat": 0, "unsat": 0, "non-equivalent": 0, "equivalent": 0}
    for _ in range(120):
        phi, n = random_lcnf_inputs(rng, max_vars=5, max_clauses=12, max_labels=5)
        ora = LcnfOracle(phi)
        active = sorted(phi.active_labels)
        for _ in range(12):
            labels = frozenset(l for l in active if rng.random() < 0.6)
            kept = cnf(phi.induced(labels))
            mask = phi.mask_of(labels)
            if rng.random() < 0.5:
                if ora.is_sat_induced(mask):
                    answer = "sat"
                    assert all(_satisfied(ora.model(), c) for c in kept)
                else:
                    answer = "unsat"
                    core = ora.core()
                    assert not core & ~mask
                    assert not models_of(cnf(phi.induced(phi.labels_in(core))), range(1, n + 1))
            elif not ora.is_equivalent_subformula(mask):
                answer = "non-equivalent"
                model = ora.model()
                assert all(_satisfied(model, c) for c in kept)
                assert not all(_satisfied(model, c) for c in cnf(phi))
            else:
                answer = "equivalent"
            answers[answer] += 1
            if answer != "unsat":
                with pytest.raises(RuntimeError):
                    ora.core()
            if answer in ("unsat", "equivalent"):
                with pytest.raises(RuntimeError):
                    ora.model()
    assert min(answers.values()) > 50, answers


def test_entailment_evidence_backs_each_answer():
    # after an entailed answer, a core inside the queried labels whose
    # clauses entail the goal, and whose clauses are unsatisfiable on their
    # own when core_unsatisfiable says so; after a non-entailed one, a model
    # of the kept clauses over the formula's variables that falsifies each
    # goal literal on them.  Goals reach past the formula's variables
    rng = random.Random(37)
    answers = {"entailed": 0, "refuted": 0, "not entailed": 0}
    for _ in range(150):
        phi, n = random_lcnf_inputs(rng, max_vars=5, max_clauses=12, max_labels=5)
        ora = LcnfOracle(phi)
        active = sorted(phi.active_labels)
        universe = range(1, n + 1)
        for _ in range(10):
            labels = frozenset(l for l in active if rng.random() < 0.6)
            mask = phi.mask_of(labels)
            goal = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 3), 2))
            if ora.entails_clause(mask, goal):
                core = ora.core()
                assert not core & ~mask
                models = models_of(cnf(phi.induced(phi.labels_in(core))), universe)
                if ora.core_unsatisfiable():
                    answer = "refuted"
                    assert not models
                else:
                    answer = "entailed"
                    assert all(_satisfied(dict(zip(universe, m)), goal) for m in models)
                with pytest.raises(RuntimeError):
                    ora.model()
            else:
                answer = "not entailed"
                model = ora.model()
                assert set(model) == phi.variables
                assert all(_satisfied(model, c) for c in cnf(phi.induced(labels)))
                assert not _satisfied(model, goal)
                with pytest.raises(RuntimeError):
                    ora.core()
            answers[answer] += 1
    assert min(answers.values()) > 50, answers


def subsumer_formulas():
    """Seeded formulas, then hand-made ones full of subsumed clauses."""
    weakened = GenerationProfile(variables=4, clauses=20, labels=5, clause_width=4)
    yield from (sweep_formula(i) for i in range(60))
    yield from (random_lcnf(i, weakened) for i in range(60))
    # duplicates under different, nested and equal label sets
    yield LcnfFormula.from_clauses(
        [(1, 2, 3), (1, 2, 3), (1, 2, 3), (1, 2, 3), (-1, 2)],
        [(1,), (2,), (1, 2), (1,), (3,)],
    )
    # one-literal weakenings, and weakenings of those
    yield LcnfFormula.from_clauses(
        [(1, 2), (1, 2, 3), (1, 2, -3), (1, 2, 3, 4), (2, 3), (1, 2, 3, -4)],
        [(1,), (2,), (3,), (1, 3), (4,), (2, 4)],
    )
    # an unlabelled subsumer, which settles its clauses under every label set
    yield LcnfFormula.from_clauses(
        [(1,), (1, 2), (1, -3), (-1, 3), (1, 2), (2, 3)],
        [(), (1,), (2,), (3,), (), (1, 2)],
    )
    # an empty clause subsumes every clause
    yield LcnfFormula.from_clauses([(), (1, 2), (-2,)], [(3,), (1,), (2, 3)])


def test_subsumers_seed_the_equivalence_pass():
    # record_subsumers gives each clause the label mask of every other
    # clause whose literals lie inside its own, found here pair by pair;
    # each such K makes phi|K entail the clause by the model sets.  The
    # equivalence pass seeds the masks it knows entailing each clause with
    # them, and still gives the truth tables' statuses
    seeded = 0
    for n, phi in enumerate(subsumer_formulas()):
        ora = LcnfOracle(phi)
        returned = ora.record_subsumers()
        assert len(returned) == len(phi.rows), n
        active = sorted(phi.active_labels)
        bit = {l: 1 << i for i, l in enumerate(active)}
        masks = [sum(bit[l] for l in ls) for _, ls in phi.rows]
        universe = sorted(phi.variables)
        for i, (lits, _) in enumerate(phi.rows):
            subsumers = [
                masks[j] for j, (other, _) in enumerate(phi.rows)
                if j != i and set(other) <= set(lits)
            ]
            assert sorted(returned[i]) == sorted(subsumers), (n, i)
            for k in set(subsumers):
                clause = set(lits)
                for model in models_of(cnf(phi.induced(phi.labels_in(k))), universe):
                    assert any(model[universe.index(abs(x))] == (x > 0) for x in clause), (n, i, k)
                seeded += 1
        truth = _classify_truth_tables(phi)[1]
        assert _closure_pass(ora, True)["equivalent_bits"] == truth, n
    assert seeded > 300, seeded


def test_rotation_proves_only_necessary_labels():
    # start from the model an answer leaves: of ``within`` itself, of
    # ``within - {l}`` falsifying one of l's clauses, or of ``within - {l}``
    # when ``within`` is unsatisfiable, each with the bit of the label l its
    # query left out; a fresh oracle confirms that each label returned is
    # necessary in ``within``, and none is in ``known``
    rng = random.Random(909)
    proven = {"satisfiable": 0, "unsatisfiable": 0}
    for i in range(400):
        phi = sweep_formula(i)
        ora, fresh = LcnfOracle(phi), LcnfOracle(phi)
        mask_of = phi.mask_of
        within = frozenset(l for l in phi.active_labels if rng.random() < 0.8)
        whole = mask_of(within)
        satisfiable = ora.is_sat_induced(whole)
        # each model with the bit of the label its query left out of ``within``
        models = [(ora.model(), 0)] if satisfiable else []
        for l in sorted(within):
            less = mask_of(within - {l})
            if satisfiable:
                if not ora.is_equivalent_subformula(less, whole):
                    models.append((ora.model(), phi.label_bits[l]))
            elif ora.is_sat_induced(less):
                models.append((ora.model(), phi.label_bits[l]))
        for model, left_out in models:
            before = dict(model)
            known = frozenset(l for l in within if rng.random() < 0.2)
            labels = phi.labels_in(ora.rotate(model, whole, mask_of(known), left_out))
            assert model == before
            assert labels <= within - known, (i, within, known, labels)
            for l in labels:
                less = mask_of(within - {l})
                assert not fresh.is_equivalent_subformula(less, whole), (i, l)
                if not satisfiable:
                    assert fresh.is_sat_induced(less), (i, l)
            proven["satisfiable" if satisfiable else "unsatisfiable"] += len(labels)
    assert min(proven.values()) > 100, proven


def _rotate_by_full_scan(phi, model, within, known):
    """Recursive model rotation on label sets, starting from a scan of every
    clause for those the model falsifies inside ``within``."""
    rows = phi.rows
    occurs = {}
    for c in rows:
        for x in c[0]:
            occurs.setdefault(x, []).append(c)
    variables = sorted(phi.variables)
    proven = set(known)
    true = {v if model[v] else -v for v in variables}
    falsified = [c for c in rows if true.isdisjoint(c[0]) and c[1] <= within]
    stack = [(true, falsified)]
    whole = bool(falsified)
    while stack:
        true, falsified = stack.pop()
        flips = dict.fromkeys(abs(x) for c in falsified for x in c[0]) if falsified else variables
        for v in flips:
            lit = v if v in true else -v
            true.remove(lit)
            true.add(-lit)
            now = [c for c in falsified if -lit not in c[0]]
            now += [c for c in occurs.get(lit, ()) if true.isdisjoint(c[0]) and c[1] <= within]
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
    return proven - set(known)


def test_rotation_scans_only_the_left_out_label_for_falsified_clauses():
    # a model of ``within - {l}`` can falsify inside ``within`` only clauses
    # that carry l, and a model of ``within`` none; rotation that scans only
    # l's clauses, or none, proves exactly the labels that a scan of every
    # clause does
    rng = random.Random(910)
    rotations = {"left out": 0, "none": 0}
    for i in range(300):
        phi = sweep_formula(i)
        ora = LcnfOracle(phi)
        mask_of = phi.mask_of
        within = frozenset(l for l in phi.active_labels if rng.random() < 0.8)
        whole = mask_of(within)
        satisfiable = ora.is_sat_induced(whole)
        models = [(ora.model(), 0)] if satisfiable else []
        for l in sorted(within):
            less = mask_of(within - {l})
            if satisfiable:
                if not ora.is_equivalent_subformula(less, whole):
                    models.append((ora.model(), phi.label_bits[l]))
            elif ora.is_sat_induced(less):
                models.append((ora.model(), phi.label_bits[l]))
        for model, left_out in models:
            known = frozenset(l for l in within if rng.random() < 0.2)
            expected = _rotate_by_full_scan(phi, model, within, known)
            mask = ora.rotate(model, whole, mask_of(known), left_out)
            assert phi.labels_in(mask) == expected, (i, left_out)
            rotations["left out" if left_out else "none"] += bool(expected)
    assert min(rotations.values()) > 30, rotations


def _rotate_on_literal_sets(ora, model, within, known=0, left_out=0):
    """Recursive model rotation on sets of true literals: the reference for
    ``LcnfOracle.rotate`` on literal masks, with the same flips in the same
    order over the same rows."""
    rows = ora._rows
    occurs = {}
    for row in rows:
        for x in row[0]:
            occurs.setdefault(x, []).append(row)
    variables = sorted({abs(x) for x in occurs})
    outside = ~ora._mask(within)
    proven = known = ora._mask(known)
    true = {v if model[v] else -v for v in variables}
    falsified = []
    if left_out:
        for i in ora._with_bit.get(left_out, ()):
            c = rows[i]
            if not c[1] & outside and true.isdisjoint(c[0]):
                falsified.append(c)
        falsified.reverse()
    stack = [(true, falsified)]
    whole = bool(falsified)
    while stack:
        true, falsified = stack.pop()
        if falsified:
            flips = dict.fromkeys(abs(x) for c in falsified for x in c[0])
        else:
            flips = variables
        for v in flips:
            lit = v if v in true else -v
            true.remove(lit)
            true.add(-lit)
            now = [c for c in falsified if -lit not in c[0]] if falsified else []
            for c in occurs.get(lit, ()):
                if true.isdisjoint(c[0]) and not c[1] & outside:
                    now.append(c)
            if now:
                shared = now[0][1] & ~proven
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
    return proven & ~known


def test_rotation_on_literal_masks_matches_the_set_reference():
    # free (multi-label), group, clause- and variable-labelled formulas, with
    # random total models, masks and left-out bits, 0 among them: the kernel
    # proves exactly the labels the set-based reference does
    rng = random.Random(911)
    proven = {"left out": 0, "none": 0}
    for i in range(400):
        phi = sweep_formula(i)
        ora = LcnfOracle(phi)
        bits = list(phi.label_bits.values())
        for _ in range(6):
            model = {v: rng.random() < 0.5 for v in phi.variables}
            within = rng.getrandbits(len(bits))
            known = rng.getrandbits(len(bits)) & rng.getrandbits(len(bits))
            left_out = rng.choice([0, *bits]) if bits else 0
            expected = _rotate_on_literal_sets(ora, model, within, known, left_out)
            assert ora.rotate(model, within, known, left_out) == expected, (i, within, left_out)
            proven["left out" if left_out else "none"] += expected.bit_count()
    assert min(proven.values()) > 200, proven


def test_rotation_reads_the_rows_when_level_0_facts_reshape_the_clauses():
    # an unlabelled unit clause first: the solver keeps it as a level-0
    # fact, drops the rows it satisfies and strips the literal it falsifies
    # from the others, so its clauses are no longer the rows and _with_bit
    # is not read off the solver; rotation still reads the rows
    rng = random.Random(914)
    seen = {"dropped": 0, "stripped": 0, "proven": 0}
    for i in range(300):
        rows = sweep_formula(i).rows
        if not rows:
            continue
        unit = rng.choice(rng.choice(rows)[0]) * rng.choice((1, -1))
        phi = LcnfFormula([((unit,), frozenset()), *rows])
        ora = LcnfOracle(phi)
        s = ora._solver
        assert s._trail[0] == s._code[unit] and "_with_bit" not in ora.__dict__
        seen["dropped"] += sum(unit in lits for lits, _ in rows)
        seen["stripped"] += sum(-unit in lits for lits, _ in rows)
        bits = list(phi.label_bits.values())
        for _ in range(4):
            model = {x: rng.random() < 0.5 for x in phi.variables}
            within = rng.getrandbits(len(bits))
            known = rng.getrandbits(len(bits)) & rng.getrandbits(len(bits))
            left_out = rng.choice([0, *bits]) if bits else 0
            expected = _rotate_on_literal_sets(ora, model, within, known, left_out)
            assert ora.rotate(model, within, known, left_out) == expected, (i, within, left_out)
            seen["proven"] += expected.bit_count()
    assert min(seen.values()) > 50, seen


def test_per_bit_rows_are_read_off_the_solver_exactly_when_it_stored_every_row():
    # free (multi-label), group, clause- and variable-labelled rows, an
    # unlabelled unit in every fifth formula and an unlabelled empty row in
    # some: with no unlabelled row of fewer than two literals, _add_rows
    # stores row i as clause i and the oracle reads _with_bit off the
    # solver, equal to the one built from the rows; with one, level 0 gets
    # a fact or a refutation and _with_bit waits for its first use
    seen = {"read off": 0, "fact": 0, "refuted": 0}
    for i in range(400):
        rows = list(sweep_formula(i).rows)
        if i % 5 == 4 and rows:
            rows.insert(len(rows) // 2, (rows[0][0][:1], frozenset()))
        if i % 7 == 3:
            rows.insert(len(rows) // 3, ((), frozenset()))
        ora = LcnfOracle(LcnfFormula(rows))
        stored = not any(not labels and len(lits) < 2 for lits, labels in rows)
        assert ("_with_bit" in ora.__dict__) == stored, i
        if stored:
            assert ora._with_bit == LcnfOracle._with_bit.func(ora), i
            seen["read off"] += 1
        else:
            seen["fact" if ora._solver._ok else "refuted"] += 1
    assert min(seen.values()) > 30, seen


@pytest.mark.parametrize("added", [0, 5, 40])
def test_labels_are_filed_per_bit_in_clause_order(added):
    # masks with bits at byte edges and past 64 bits, and popcounts 1 to 20,
    # on added clauses and then learned ones: each bit's clause list is the
    # one a plain loop over the set bits builds, and switching every label
    # on and off again leaves each clause's count of off labels as it was
    rng = random.Random(912 + added)
    edges = [0, 7, 8, 15, 16, 63, 64, 129]
    masks = [1 << b for b in edges] + [sum(1 << b for b in edges)]
    masks += [sum(1 << b for b in rng.sample(edges + list(range(130)), n)) for n in range(1, 21)]
    masks += [sum(1 << b for b in rng.sample(range(130), rng.randint(1, 20))) for _ in range(30)]
    s = Solver()
    s.add_clause([1, -1, 2, 3, 4, 5])  # a tautology: only its variables enter
    for i, mask in enumerate(masks):
        lits = rng.sample([1, 2, 3, -4, 5], rng.randint(1, 3))
        if i < added:
            s.add_clause(lits, mask)
        else:
            s._store([s._code[l] for l in lits], mask, True)
    expected = [[] for _ in range(130)]
    for ci, mask in enumerate(s._labels):
        for b in range(mask.bit_length()):
            if mask >> b & 1:
                expected[b].append(ci)
    assert s._with_bit == expected
    off, holds = list(s._off), list(s._holds)
    assert off == [m.bit_count() for m in s._labels]
    s._switch((1 << 130) - 1)
    assert s._off == [0] * len(masks)
    s._switch(0)
    assert (s._off, s._holds) == (off, holds)


def test_mask_bits_past_every_label_change_no_answer():
    # two solvers live through the same queries, one asked with a bit past
    # every clause's on, and two oracles, one asked with exact masks and one
    # with spare bits past the active labels added: every answer, model,
    # core, failed assumption list, rotation and ValueError must agree.
    # Label sets draw on labels no clause carries and labels that are not
    # active; a mask has no bit for those
    rng = random.Random(37)
    seen = dict.fromkeys(("sat", "unsat", "equivalent", "non-equivalent", "ValueError", "rotation"), 0)
    for i in range(160):
        phi = sweep_formula(i)
        active = sorted(phi.active_labels)
        spare = [l for l in range(max(active, default=0) + 3) if l not in phi.active_labels]
        pool = active + spare
        exact, padded = LcnfOracle(phi), LcnfOracle(phi)
        s_exact, s_spare = Solver(), Solver()
        bit = {}  # a numbering other than the formula's: labels by bit, first seen
        for lits, ls in phi.rows:
            for l in sorted(ls):
                bit.setdefault(l, 1 << len(bit))
            s_exact.add_clause(lits, sum(bit[l] for l in ls))
            s_spare.add_clause(lits, sum(bit[l] for l in ls))
        assert phi.label_bits == {l: 1 << j for j, l in enumerate(active)}

        def draw():
            labels = frozenset(l for l in pool if rng.random() < 0.6)
            mask = phi.mask_of(labels)
            return labels, mask, mask | rng.getrandbits(3) << len(active)

        for _ in range(12):
            labels, mask, mask_padded = draw()
            asms = [v if rng.random() < 0.5 else -v for v in rng.sample(sorted(phi.variables), 1)]
            on = sum(bit.get(l, 0) for l in labels)
            out_exact = s_exact.solve(asms, on)
            out_spare = s_spare.solve(asms, on | 1 << len(bit))
            assert out_exact.model == out_spare.model, i
            if not out_exact:
                assert s_exact.analyze_final() == s_spare.analyze_final(), i
            if exact.is_sat_induced(mask) != padded.is_sat_induced(mask_padded):
                raise AssertionError((i, labels, mask_padded))
            if exact._evidence[0] == "model":
                seen["sat"] += 1
                assert exact.model() == padded.model(), i
            else:
                seen["unsat"] += 1
                assert exact.core() == padded.core(), i
            clause = rng.choice(phi.rows)[0] if phi.rows else (1,)
            assert exact.entails_clause(mask, clause) == padded.entails_clause(mask_padded, clause)
            within, within_mask, within_padded = draw()
            if rng.random() < 0.7:
                within_mask, within_padded = within_mask | mask, within_padded | mask_padded
            try:
                equivalent = exact.is_equivalent_subformula(mask, within_mask)
            except ValueError:
                seen["ValueError"] += 1
                with pytest.raises(ValueError):
                    padded.is_equivalent_subformula(mask_padded, within_padded)
                continue
            assert equivalent == padded.is_equivalent_subformula(mask_padded, within_padded), i
            if equivalent:
                seen["equivalent"] += 1
                continue
            seen["non-equivalent"] += 1
            model = exact.model()
            assert model == padded.model(), i
            for b in phi.label_bits.values():
                assert exact.satisfies(model, b, within_mask) == padded.satisfies(model, b, within_padded)
            _, known, known_padded = draw()
            # from a model of ``mask``, as a model of ``within`` less one label
            left_out = within_mask & ~mask
            if left_out and not left_out & (left_out - 1):
                rotated = exact.rotate(model, within_mask, known, left_out)
                assert rotated == padded.rotate(model, within_padded, known_padded, left_out), i
                seen["rotation"] += 1
        with pytest.raises(ValueError):
            s_spare.solve((), -1)
    assert min(seen.values()) > 40, seen


def test_oracle_model_check_reads_every_clause_inside_the_set(worked_example):
    ora = LcnfOracle(worked_example)
    # all false: clauses {1}: (-2) holds, (2 -4) holds, (3 4) fails
    bit, mask_of = worked_example.label_bits, worked_example.mask_of
    model = {1: False, 2: False, 3: False, 4: False}
    assert not ora.satisfies(model, bit[1], mask_of({1}))
    # label 2: ({1 2}: -1) holds; ({2 3}: -1 2) holds
    assert ora.satisfies(model, bit[2], mask_of({2}))
    # label 3: ({3}: -2 4) holds; ({2 3}: -1 2) counts only inside {2, 3}
    model[1] = True
    assert ora.satisfies(model, bit[3], mask_of({3}))
    assert not ora.satisfies(model, bit[3], mask_of({2, 3}))


def test_equivalence_requires_containment(worked_example):
    ora = LcnfOracle(worked_example)
    with pytest.raises(ValueError):
        ora.is_equivalent_subformula(worked_example.mask_of({1, 2}), worked_example.mask_of({1}))


def test_oracle_queries_on_worked_example(worked_example):
    ora = LcnfOracle(worked_example)
    mask_of = worked_example.mask_of
    assert ora.is_sat_induced(mask_of({1}))
    assert ora.is_equivalent_subformula(mask_of({1, 2}))
    assert not ora.is_equivalent_subformula(mask_of({1}))


def test_oracle_accepts_inactive_labels(worked_example):
    # an inactive label has no bit, and a bit past the active labels
    # switches on no clause
    ora = LcnfOracle(worked_example)
    one = worked_example.mask_of({1})
    assert worked_example.mask_of({1, 99}) == one
    assert ora.is_sat_induced(one | 1 << 10) == ora.is_sat_induced(one)


def test_model_check_and_rotation_ignore_inactive_labels():
    # a bit past the active labels carries no clause: no model falsifies one
    # of its clauses, and leaving it out of a query leaves out no clause
    phi = LcnfFormula.from_clauses([(1,), (2,)], [(1,), (2,)])
    ora = LcnfOracle(phi)
    full = phi.mask_of({1, 2})
    spare = 1 << 2
    falsifying = {1: False, 2: False}
    assert not ora.satisfies(falsifying, phi.label_bits[1], full)
    assert ora.satisfies(falsifying, spare, full | spare)
    model = {1: True, 2: True}
    assert ora.rotate(model, full | spare, left_out=spare) == ora.rotate(model, full) == full


def test_oracle_conflict_budget_propagates():
    # checking that (1 v 2), (1 v -2) entail (1) takes one real conflict
    phi = LcnfFormula.from_clauses([(1,), (1, 2), (1, -2)], [(1,), (), ()])
    ora = LcnfOracle(phi, conflict_budget=0)
    with pytest.raises(ResourceLimitError):
        ora.is_equivalent_subformula(0)
    relaxed = LcnfOracle(phi, conflict_budget=50)
    assert relaxed.is_equivalent_subformula(0)


def test_unlabelled_clauses_survive_every_induced_query(phi_u):
    # attach an unlabelled contradiction: every subset becomes unsat
    clauses = [(1,), (-1,)]
    phi = LcnfFormula.from_clauses(clauses, [(), ()])
    ora = LcnfOracle(phi)
    assert not ora.is_sat_induced(0)
    ora_u = LcnfOracle(phi_u)
    assert ora_u.is_sat_induced(0)
    assert not ora_u.is_sat_induced(phi_u.mask_of(phi_u.active_labels))
