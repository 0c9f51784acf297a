"""Solver and labelled-formula oracle, cross-checked by model enumeration."""
import random

import pytest

from lcnf.core import LcnfFormula
from lcnf.errors import ResourceLimitError
from lcnf.oracle import (
    LcnfOracle,
    Solver,
    entails,
    solve,
)

from conftest import models_of, sweep_formula


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
    # one Solver keeps its trail between calls: consecutive assumption lists
    # share prefixes or repeat, clauses (units among them) arrive between
    # solves, and a budget runs out mid-sequence; every answer must match a
    # fresh solver's, every model must satisfy the clauses and assumptions,
    # and every UNSAT answer's failed assumptions must be a subset of its
    # assumptions that a fresh solver also finds unsatisfiable
    rng = random.Random(31)
    budget_trips = 0
    cores = 0
    for _ in range(40):
        n = rng.randint(5, 9)
        clauses = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(rng.randint(3 * n, 5 * n))
        ]
        s = Solver(clauses)
        asms = []
        for _ in range(60):
            r = rng.random()
            if r < 0.08:
                width = rng.randint(1, 2)
                c = tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), width))
                s.add_clause(c)
                clauses.append(c)
                continue
            asms = asms[: rng.randint(0, len(asms))]
            for v in rng.sample(range(1, n + 3), rng.randint(0, 5)):
                asms.append(v if rng.random() < 0.5 else -v)
            outcomes = []
            if r < 0.2:
                # the query that exceeds its budget is asked again without one
                s.conflict_budget = 0
                try:
                    outcomes.append(s.solve(asms))
                except ResourceLimitError:
                    budget_trips += 1
                finally:
                    s.conflict_budget = None
            outcomes.append(s.solve(asms))
            expected = solve(clauses, asms).satisfiable
            for out in outcomes:
                assert out.satisfiable == expected
                if out:
                    assert all(out.model[abs(a)] == (a > 0) for a in asms)
                    assert all(any(out.model[abs(l)] == (l > 0) for l in c) for c in clauses)
            if not expected:
                failed = s.analyze_final()
                assert set(failed) <= set(asms)
                assert not solve(clauses, failed).satisfiable, (asms, failed)
                cores += len(failed) < len(set(asms))
    assert budget_trips > 0
    assert cores > 100  # most cores are proper subsets


def _unsat_solver():
    # unsatisfiable under 1 and 2 together, whatever 3 is; under 6 too,
    # but only after a conflict
    s = Solver([(-1, -2, 4), (-4, 5), (-4, -5), (1, 3)])
    for a, b in ((10, 11), (10, -11), (-10, 11), (-10, -11)):
        s.add_clause((-6, a, b))
    out = s.solve([1, 2, 3])
    assert not out and sorted(s.analyze_final()) == [1, 2]
    return s


def test_failed_assumptions_cover_each_kind_of_unsat_answer():
    s = Solver([(1, 2), (-1, 2)])
    assert not s.solve([-2, 7]) and sorted(s.analyze_final()) == [-2]
    # contradicting assumptions on a variable the clauses lack
    assert not s.solve([9, 3, -9]) and sorted(s.analyze_final()) == [-9, 9]
    # contradicting assumptions on a clause variable
    assert not s.solve([1, 3, -1]) and sorted(s.analyze_final()) == [-1, 1]
    # the clauses alone are unsatisfiable
    s.add_clause((-2,))
    assert not s.solve([1]) and s.analyze_final() == []
    assert not s.solve([1]) and s.analyze_final() == []


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
    assert s.analyze_final() == [4]
    with pytest.raises(RuntimeError):
        Solver([(1,)]).analyze_final()  # nothing solved yet


def test_assumption_only_variables_are_still_assigned():
    # the scan skips them, yet one the call leaves unassumed still gets a
    # value, so every model is total and satisfies every clause
    clauses = [(1, 2), (-1, 3), (2, 3, 4), (5, 6)]
    s = Solver(clauses)
    s.set_assumption_only([5, 6, 99])  # 99 is not a clause variable: ignored
    for asms in ([5, 6], [-6], [], [1]):
        out = s.solve(asms)
        assert out and set(out.model) == {1, 2, 3, 4, 5, 6}
        assert all(out.model[abs(a)] == (a > 0) for a in asms)
        assert all(any(out.model[abs(l)] == (l > 0) for l in c) for c in clauses)


def test_entails_basic():
    assert entails([(1,), (-1, 2)], (2,))
    assert entails([(1,)], (1, 5))
    assert not entails([(1,)], (2,))
    assert not entails([], (1,))
    assert entails([(1,), (-1,)], (2,))  # inconsistent premise entails anything


def test_entails_agrees_with_model_enumeration():
    rng = random.Random(4242)
    for _ in range(150):
        clauses, n = random_cnf(rng, max_vars=4, max_clauses=8)
        goal_vars = rng.sample(range(1, 5), rng.randint(1, 4))
        goal = tuple(v if rng.random() < 0.5 else -v for v in goal_vars)
        universe = sorted(set(range(1, n + 1)) | {abs(l) for l in goal})
        index = {v: i for i, v in enumerate(universe)}
        expected = all(
            any(m[index[abs(l)]] == (l > 0) for l in goal)
            for m in models_of(clauses, universe)
        )
        assert entails(clauses, goal) == expected


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
        direct = solve(phi.induced(subset).cnf()).satisfiable
        assert ora.is_sat_induced(subset) == direct


def test_equivalence_matches_model_sets_over_parent_universe():
    rng = random.Random(12)
    for _ in range(200):
        phi, n = random_lcnf_inputs(rng)
        ora = LcnfOracle(phi)
        universe = phi.variables
        full_models = models_of(phi.cnf(), universe)
        subset = frozenset(
            l for l in sorted(phi.active_labels) if rng.random() < 0.5
        )
        sub_models = models_of(phi.induced(subset).cnf(), universe)
        assert ora.is_equivalent_subformula(subset) == (sub_models == full_models)


def test_one_oracle_answers_a_mixed_query_sequence():
    # consecutive label sets differ in at most one label, so the selector
    # assumptions of neighbouring queries share prefixes or repeat
    rng = random.Random(32)
    for _ in range(60):
        phi, n = random_lcnf_inputs(rng, max_vars=5, max_clauses=10, max_labels=5)
        ora = LcnfOracle(phi)
        active = sorted(phi.active_labels)
        universe = set(range(1, n + 1))
        labels = set(active)
        for _ in range(30):
            if active and rng.random() < 0.8:
                labels ^= {rng.choice(active)}
            models = models_of(phi.induced(labels).cnf(), universe)
            kind = rng.randrange(3)
            if kind == 0:
                assert ora.is_sat_induced(labels) == bool(models)
            elif kind == 1:
                # goal variables reach past the formula's, where the selector
                # variables are numbered; a repeated variable may make a tautology
                vs = rng.choices(range(1, n + 4), k=rng.randint(1, 3))
                goal = tuple(v if rng.random() < 0.5 else -v for v in vs)
                wide = sorted(universe | set(vs))
                index = {v: i for i, v in enumerate(wide)}
                expected = all(
                    any(m[index[abs(l)]] == (l > 0) for l in goal)
                    for m in models_of(phi.induced(labels).cnf(), wide)
                )
                assert ora.entails_clause(labels, goal) == expected, (labels, goal)
            elif kind == 2:
                within = labels | {l for l in active if rng.random() < 0.5}
                wider = models_of(phi.induced(within).cnf(), universe)
                assert ora.is_equivalent_subformula(labels, within) == (models == wider)


def _satisfied(model, clause):
    return any(model.get(abs(l)) == (l > 0) for l in clause.literals)


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
            kept = phi.induced(labels).clauses
            if rng.random() < 0.5:
                if ora.is_sat_induced(labels):
                    answer = "sat"
                    assert all(_satisfied(ora.model(), c) for c in kept)
                else:
                    answer = "unsat"
                    core = ora.core()
                    assert core <= labels
                    assert not models_of(phi.induced(core).cnf(), range(1, n + 1))
            elif not ora.is_equivalent_subformula(labels):
                answer = "non-equivalent"
                model = ora.model()
                assert all(_satisfied(model, c) for c in kept)
                assert not all(_satisfied(model, c) for c in phi.clauses)
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


def test_rotation_proves_only_necessary_labels():
    # start from the model an answer leaves: of ``within`` itself, of
    # ``within - {l}`` falsifying one of l's clauses, or of ``within - {l}``
    # when ``within`` is unsatisfiable; a fresh oracle confirms that each
    # label returned is necessary in ``within``, and none is in ``known``
    rng = random.Random(909)
    proven = {"satisfiable": 0, "unsatisfiable": 0}
    for i in range(400):
        phi = sweep_formula(i)
        ora, fresh = LcnfOracle(phi), LcnfOracle(phi)
        within = frozenset(l for l in phi.active_labels if rng.random() < 0.8)
        satisfiable = ora.is_sat_induced(within)
        models = [ora.model()] if satisfiable else []
        for l in sorted(within):
            if satisfiable:
                if not ora.is_equivalent_subformula(within - {l}, within):
                    models.append(ora.model())
            elif ora.is_sat_induced(within - {l}):
                models.append(ora.model())
        for model in models:
            before = dict(model)
            known = frozenset(l for l in within if rng.random() < 0.2)
            labels = ora.rotate(model, set(within), known)
            assert model == before
            assert labels <= within - known, (i, within, known, labels)
            for l in labels:
                assert not fresh.is_equivalent_subformula(within - {l}, within), (i, l)
                if not satisfiable:
                    assert fresh.is_sat_induced(within - {l}), (i, l)
            proven["satisfiable" if satisfiable else "unsatisfiable"] += len(labels)
    assert min(proven.values()) > 100, proven


def test_oracle_model_check_reads_every_clause_inside_the_set(worked_example):
    ora = LcnfOracle(worked_example)
    # all false: clauses {1}: (-2) holds, (2 -4) holds, (3 4) fails
    model = {1: False, 2: False, 3: False, 4: False}
    assert not ora.satisfies(model, 1, {1})
    # label 2: ({1 2}: -1) holds; ({2 3}: -1 2) holds
    assert ora.satisfies(model, 2, {2})
    # label 3: ({3}: -2 4) holds; ({2 3}: -1 2) counts only inside {2, 3}
    model[1] = True
    assert ora.satisfies(model, 3, {3})
    assert not ora.satisfies(model, 3, {2, 3})


def test_equivalence_requires_containment(worked_example):
    ora = LcnfOracle(worked_example)
    with pytest.raises(ValueError):
        ora.is_equivalent_subformula(frozenset({1, 2}), within=frozenset({1}))


def test_oracle_queries_on_worked_example(worked_example):
    ora = LcnfOracle(worked_example)
    assert ora.is_sat_induced(frozenset({1}))
    assert ora.is_equivalent_subformula(frozenset({1, 2}))
    assert not ora.is_equivalent_subformula(frozenset({1}))


def test_oracle_accepts_inactive_labels(worked_example):
    ora = LcnfOracle(worked_example)
    assert ora.is_sat_induced(frozenset({1, 99})) == ora.is_sat_induced(
        frozenset({1})
    )


def test_oracle_conflict_budget_propagates():
    # checking that (1 v 2), (1 v -2) entail (1) takes one real conflict
    phi = LcnfFormula.from_clauses([(1,), (1, 2), (1, -2)], [(1,), (), ()])
    ora = LcnfOracle(phi, conflict_budget=0)
    with pytest.raises(ResourceLimitError):
        ora.is_equivalent_subformula(frozenset())
    relaxed = LcnfOracle(phi, conflict_budget=50)
    assert relaxed.is_equivalent_subformula(frozenset())


def test_unlabelled_clauses_survive_every_induced_query(phi_u):
    # attach an unlabelled contradiction: every subset becomes unsat
    clauses = [(1,), (-1,)]
    phi = LcnfFormula.from_clauses(clauses, [(), ()])
    ora = LcnfOracle(phi)
    assert not ora.is_sat_induced(frozenset())
    ora_u = LcnfOracle(phi_u)
    assert ora_u.is_sat_induced(frozenset())
    assert not ora_u.is_sat_induced(phi_u.active_labels)
