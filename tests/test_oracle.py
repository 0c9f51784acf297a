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

from conftest import models_of


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
    # fresh solver's and every model must satisfy the clauses and assumptions
    rng = random.Random(31)
    budget_trips = 0
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
    assert budget_trips > 0


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
