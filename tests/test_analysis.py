"""Deletion/grow witnesses: minimal equivalent and maximal satisfiable sets."""
import random

import pytest

from lcnf.analysis import (
    _normalize_order,
    compute_lmes,
    compute_lmns,
    compute_lmss,
    compute_lmus,
    is_label_redundant,
    duality_preconditions,
)
from lcnf.bruteforce import classify_all, random_lcnf
from lcnf.core import LcnfFormula, label
from lcnf.errors import PreconditionError
from lcnf.oracle import LcnfOracle, Solver

from conftest import WORKED_LMES, WORKED_LMNS, PHI_U_LMSS, PHI_U_LMUS, sweep_formula


def test_lmes_default_order(worked_example):
    assert compute_lmes(worked_example) == frozenset({2, 3, 4})


def test_lmes_respects_order(worked_example):
    assert compute_lmes(worked_example, (3, 4, 1, 2)) == frozenset({1, 2})


def test_lmes_results_are_published_family_members(worked_example):
    for order in [(1, 2, 3, 4), (4, 3, 2, 1), (2, 1, 4, 3), (3, 4, 1, 2)]:
        assert compute_lmes(worked_example, order) in WORKED_LMES


def test_lmes_partial_order_extends_ascending(worked_example):
    # the given labels are tried first, the rest ascend
    assert compute_lmes(worked_example, (3,)) == compute_lmes(worked_example, (3, 1, 2, 4))


def test_order_keeps_first_occurrences_then_ascends():
    # a label given twice keeps its first place, the labels not given follow
    # in ascending order, and the first inactive label is refused; on a
    # clause-labelled formula of 3000 labels an order naming each label
    # twice is resolved the same way
    rng = random.Random(5)
    for i in range(200):
        phi = sweep_formula(i)
        active = sorted(phi.active_labels)
        order = rng.choices(active, k=rng.randint(0, 2 * len(active))) if active else []
        expected = []
        for l in order + active:
            if l not in expected:
                expected.append(l)
        assert _normalize_order(phi, order) == expected, (i, order)
        with pytest.raises(ValueError):
            _normalize_order(phi, order + [max(active, default=0) + 1])
    phi = label([(1, 2)] * 3000, "clause")
    order = [l for l in range(3000, 0, -1) for _ in range(2)]
    assert _normalize_order(phi, order) == list(range(3000, 0, -1))
    assert _normalize_order(phi, order[:10]) == [3000, 2999, 2998, 2997, 2996, *range(1, 2996)]


def test_lmes_rejects_unknown_label(worked_example):
    with pytest.raises(ValueError):
        compute_lmes(worked_example, (1, 7))


def test_lmes_result_is_equivalent_and_minimal(worked_example):
    ora = LcnfOracle(worked_example)
    got = compute_lmes(worked_example, oracle=ora)
    mask_of = worked_example.mask_of
    assert ora.is_equivalent_subformula(mask_of(got))
    for l in got:
        assert not ora.is_equivalent_subformula(mask_of(got - {l}))


def test_lmes_on_unlabelled_formula_is_empty():
    phi = LcnfFormula.from_clauses([(1,), (2,)])
    assert compute_lmes(phi) == frozenset()


def test_lmus_orders(phi_u):
    assert compute_lmus(phi_u) == frozenset({3})
    assert compute_lmus(phi_u, (3, 1, 2)) == frozenset({1, 2})
    for order in [(1, 2, 3), (2, 3, 1), (3, 2, 1)]:
        assert compute_lmus(phi_u, order) in PHI_U_LMUS


def test_lmus_requires_unsat(worked_example):
    with pytest.raises(PreconditionError):
        compute_lmus(worked_example)


def test_lmus_with_unsat_unlabelled_part_is_empty():
    phi = LcnfFormula.from_clauses([(1,), (-1,), (2,)], [(), (), (1,)])
    assert compute_lmus(phi) == frozenset()


def test_lmss_grow(phi_u):
    assert compute_lmss(phi_u) == frozenset({1})
    assert compute_lmss(phi_u, seed=(2,)) == frozenset({2})
    for seed, order in [((), None), ((1,), None), ((2,), (1, 3))]:
        assert compute_lmss(phi_u, seed, order) in PHI_U_LMSS


def test_lmss_on_sat_formula_is_everything(worked_example):
    assert compute_lmss(worked_example) == worked_example.active_labels


def test_lmss_rejects_unsat_seed(phi_u):
    with pytest.raises(PreconditionError):
        compute_lmss(phi_u, seed=(3,))
    # an inactive seed label is rejected like an inactive label in ``order``
    with pytest.raises(ValueError, match="label 7 is not active"):
        compute_lmss(phi_u, seed=(1, 7))


def test_lmss_rejects_unsat_unlabelled_part():
    phi = LcnfFormula.from_clauses([(1,), (-1,), (2,)], [(), (), (1,)])
    with pytest.raises(PreconditionError):
        compute_lmss(phi)


def test_lmss_maximality(phi_u):
    ora = LcnfOracle(phi_u)
    got = compute_lmss(phi_u, oracle=ora)
    assert ora.is_sat_induced(phi_u.mask_of(got))
    for l in phi_u.active_labels - got:
        assert not ora.is_sat_induced(phi_u.mask_of(got | {l}))


def test_lmns_grow(worked_example):
    assert compute_lmns(worked_example) == frozenset({1, 3, 4})
    assert compute_lmns(worked_example, seed=(2,), order=(3, 4)) == frozenset({2, 3})
    for seed, order in [((), None), ((2,), (4, 3)), ((4,), None)]:
        assert compute_lmns(worked_example, seed, order) in WORKED_LMNS


def test_lmns_rejects_equivalent_seed(worked_example):
    with pytest.raises(PreconditionError):
        compute_lmns(worked_example, seed=(1, 2))
    with pytest.raises(ValueError, match="label 7 is not active"):
        compute_lmns(worked_example, seed=(7,))


def test_lmns_needs_active_labels():
    phi = LcnfFormula.from_clauses([(1,), (2,)])
    with pytest.raises(PreconditionError):
        compute_lmns(phi)


def test_lmns_needs_a_nonequivalent_subformula():
    # the unlabelled clause subsumes everything, so every subset is equivalent
    phi = LcnfFormula.from_clauses([(1,), (1, 2), (1, 3)], [(), (1,), (2,)])
    with pytest.raises(PreconditionError):
        compute_lmns(phi)


def test_lmns_maximality(worked_example):
    ora = LcnfOracle(worked_example)
    got = compute_lmns(worked_example, oracle=ora)
    mask_of = worked_example.mask_of
    assert not ora.is_equivalent_subformula(mask_of(got))
    for l in worked_example.active_labels - got:
        assert ora.is_equivalent_subformula(mask_of(got | {l}))


def test_label_redundancy(worked_example):
    assert is_label_redundant(worked_example, 4)
    assert not is_label_redundant(worked_example, 2)
    with pytest.raises(ValueError):
        is_label_redundant(worked_example, 9)


def test_duality_preconditions(worked_example):
    assert duality_preconditions(worked_example) == (True, None)
    bare = LcnfFormula.from_clauses([(1,)])
    ok, reason = duality_preconditions(bare)
    assert not ok and "active" in reason
    shadowed = LcnfFormula.from_clauses([(1,), (1, 2), (1, 3)], [(), (1,), (2,)])
    ok, reason = duality_preconditions(shadowed)
    assert not ok and "redundant" in reason


def test_preconditions_hold_without_unlabelled_clauses(phi_u):
    assert duality_preconditions(phi_u) == (True, None)


def test_compute_results_land_in_bruteforce_families():
    rng = random.Random(99)
    checked = 0
    for seed in range(60):
        phi = random_lcnf(seed)
        report = classify_all(phi)
        order = sorted(phi.active_labels)
        rng.shuffle(order)
        assert compute_lmes(phi, order) in report.lmes.members
        if not report.satisfiable:
            assert compute_lmus(phi, order) in report.lmus.members
        if report.lmss_exists:
            assert compute_lmss(phi, (), order) in report.lmss.members
        if report.lmns_exists:
            assert compute_lmns(phi, (), order) in report.lmns.members
        checked += 1
    assert checked == 60


# Plain sweeps: one query per step, nothing carried from one query to the
# next.  None stands for a failed precondition.
def _plain_lmes(phi, order, ora):
    current = set(phi.active_labels)
    for l in order:
        if ora.is_equivalent_subformula(phi.mask_of(current - {l}), phi.mask_of(current)):
            current.discard(l)
    return frozenset(current)


def _plain_lmss(phi, seed, order, ora):
    if not ora.is_sat_induced(phi.mask_of(seed)):
        return None
    current = set(seed)
    for l in order:
        if l not in current and ora.is_sat_induced(phi.mask_of(current | {l})):
            current.add(l)
    return frozenset(current)


def _plain_lmns(phi, seed, order, ora):
    if ora.is_equivalent_subformula(phi.mask_of(seed)):
        return None
    current = set(seed)
    for l in order:
        if l not in current and not ora.is_equivalent_subformula(phi.mask_of(current | {l})):
            current.add(l)
    return frozenset(current)


def _or_none(compute, *args, **kwargs):
    try:
        return compute(*args, **kwargs)
    except PreconditionError:
        return None


def test_sweeps_that_reuse_evidence_match_plain_sweeps():
    # models, non-equivalence witnesses and the labels model rotation proves
    # only skip solves whose answer they imply, so every LMES, LMSS and LMNS
    # equals the plain sweep's, for every profile, order and seed; the LMUS
    # sweep continues inside each core, so it returns some LMUS, which a
    # wrongly skipped solve would miss; one oracle answers every function
    # under test, so evidence left by one cannot leak into the next
    rng = random.Random(808)
    counts = {"lmes": 0, "lmus": 0, "lmss": 0, "lmns": 0}
    for i in range(600):
        phi = sweep_formula(i)
        active = sorted(phi.active_labels)
        order = rng.sample(active, rng.randint(0, len(active)))
        full = order + [l for l in active if l not in order]
        seed = frozenset(l for l in active if rng.random() < 0.25)
        ora, plain = LcnfOracle(phi), LcnfOracle(phi)

        lmes = compute_lmes(phi, order, oracle=ora)
        assert lmes == _plain_lmes(phi, full, plain), (i, order)
        lmus = _or_none(compute_lmus, phi, order, oracle=ora)
        if plain.is_sat_induced(phi.mask_of(phi.active_labels)):
            assert lmus is None, (i, order)
        else:
            assert lmus in classify_all(phi).lmus.members, (i, order)
        lmss = _or_none(compute_lmss, phi, seed, order, oracle=ora)
        expected = None
        if plain.is_sat_induced(0):
            expected = _plain_lmss(phi, seed, full, plain)
        assert lmss == expected, (i, seed, order)
        lmns = _or_none(compute_lmns, phi, seed, order, oracle=ora)
        assert lmns == _plain_lmns(phi, seed, full, plain), (i, seed, order)
        for name, got in (("lmes", lmes), ("lmus", lmus), ("lmss", lmss), ("lmns", lmns)):
            counts[name] += got is not None and len(got) > 1
    assert min(counts.values()) > 100, counts


class _RecordingOracle(LcnfOracle):
    """An oracle that records each satisfiability query: the label set it
    asked about, its answer and, for a False answer, its core; masks are
    recorded as the label sets they stand for."""

    def __init__(self, phi):
        super().__init__(phi)
        self.queries = []

    def is_sat_induced(self, mask):
        sat = super().is_sat_induced(mask)
        labels_in = self.formula.labels_in
        core = None if sat else labels_in(self.core())
        self.queries.append((labels_in(mask), sat, core))
        return sat


def _random_3sat(seed, variables, ratio=5.5):
    """Clause-labelled random 3-SAT at ``ratio`` clauses per variable: each
    clause on three distinct variables."""
    rng = random.Random(seed)
    clauses = [
        [v if rng.random() < 0.5 else -v for v in rng.sample(range(1, variables + 1), 3)]
        for _ in range(round(ratio * variables))
    ]
    return label(clauses, "clause")


def test_lmus_sweep_continues_inside_each_core():
    # clause-set refinement: once a deletion step answers UNSAT, every later
    # query of the sweep asks about a subset of that answer's core, and the
    # result is still an LMUS; the first query asks about every label, and
    # a satisfiable formula has no LMUS
    rng = random.Random(1414)
    small = [sweep_formula(i) for i in range(600)]
    large = [_random_3sat(seed, 15 + seed % 6) for seed in range(8)]
    bounded = 0
    unsat = [0, 0]  # small, large
    for i, phi in enumerate(small + large):
        order = sorted(phi.active_labels)
        rng.shuffle(order)
        ora = _RecordingOracle(phi)
        lmus = _or_none(compute_lmus, phi, order, oracle=ora)
        if lmus is None:
            continue
        unsat[i >= len(small)] += 1
        core = None
        for labels, sat, answer_core in ora.queries[1:]:
            if core is not None:
                assert labels <= core, (i, order)
                bounded += 1
            if not sat:
                core = answer_core
        if i < len(small):
            assert lmus in classify_all(phi).lmus.members, (i, order)
        else:
            check = LcnfOracle(phi)
            assert not check.is_sat_induced(phi.mask_of(lmus)), i
            assert all(check.is_sat_induced(phi.mask_of(lmus - {l})) for l in lmus), i
    assert unsat[0] > 100 and unsat[1] >= 6 and bounded > 200, (unsat, bounded)


def test_lmns_look_ahead_settles_the_sweep_before_the_last_label(monkeypatch):
    # with the last clause irredundant, every label but the last is
    # non-equivalent, so from an empty seed the first query due is a
    # look-ahead that adds them all; then the sweep asks about the whole
    # and rejects the last label.  The seed query, the look-ahead and the
    # query on the whole make at most one solve each
    solves = 0
    real_solve = Solver.solve

    def counted_solve(self, *args, **kwargs):
        nonlocal solves
        solves += 1
        return real_solve(self, *args, **kwargs)

    checked = 0
    for seed in range(80):
        phi = _random_3sat(seed, 20 + seed % 11, ratio=3.6)
        check = LcnfOracle(phi)
        last = max(phi.active_labels)
        if not check.is_sat_induced(phi.mask_of(phi.active_labels)):
            continue
        if is_label_redundant(phi, last, oracle=check):
            continue
        monkeypatch.setattr(Solver, "solve", counted_solve)
        solves = 0
        lmns = compute_lmns(phi, oracle=LcnfOracle(phi))
        monkeypatch.setattr(Solver, "solve", real_solve)
        assert solves <= 3, seed
        assert lmns == phi.active_labels - {last}, seed
        checked += 1
    assert checked >= 30, checked


def _redundant_last(phi, rng):
    """``phi`` with one more row, under a new label above every other: a
    copy of one of its clauses, or that clause weakened by a literal on
    another variable, so the new label is redundant."""
    rows = [(lits, labels) for lits, labels in phi.rows]
    lits, _ = rng.choice([row for row in rows if row[0]])
    others = sorted(set(phi.variables) - {abs(x) for x in lits})
    if others and rng.random() < 0.5:
        v = rng.choice(others)
        lits = (*lits, v if rng.random() < 0.5 else -v)
    rows.append((lits, (max(phi.active_labels, default=0) + 1,)))
    return LcnfFormula.from_clauses([l for l, _ in rows], [labels for _, labels in rows])


def test_lmns_matches_the_plain_sweep_where_the_look_ahead_fails():
    # the last label of every order is redundant, so a look-ahead on every
    # label but the last, asked before any rejection, is equivalent and
    # refused; the sweep falls back to its usual queries, halves the run,
    # and rejects labels mid-order.  Every result equals the plain sweep's
    rng = random.Random(3030)
    mid_order = 0
    for i in range(400):
        phi = _redundant_last(sweep_formula(i), rng)
        last = max(phi.active_labels)
        others = sorted(phi.active_labels - {last})
        order = rng.sample(others, rng.randint(0, len(others)))  # the last comes last
        full = _normalize_order(phi, order)
        seed = frozenset(l for l in others if rng.random() < 0.2)
        plain = LcnfOracle(phi)
        lmns = _or_none(compute_lmns, phi, seed, order, oracle=LcnfOracle(phi))
        assert lmns == _plain_lmns(phi, seed, full, plain), (i, seed, order)
        assert plain.is_equivalent_subformula(phi.mask_of(phi.active_labels - {last})), i
        mid_order += lmns is not None and bool(phi.active_labels - lmns - {last})
    assert mid_order > 250, mid_order


def test_each_lmss_query_adds_one_label():
    # the LMSS sweep asks no look-ahead: after the precondition queries on
    # the empty set and the seed, each query asks about the current set
    # and one label l, the current set being the seed and the result's
    # labels before l in the order
    rng = random.Random(4242)
    asked = 0
    formulas = [sweep_formula(i) for i in range(200)]
    formulas += [_random_3sat(seed, 15 + seed % 6) for seed in range(8)]
    for i, phi in enumerate(formulas):
        order = sorted(phi.active_labels)
        rng.shuffle(order)
        place = {l: j for j, l in enumerate(order)}
        seed = frozenset(l for l in order if rng.random() < 0.2)
        ora = _RecordingOracle(phi)
        lmss = _or_none(compute_lmss, phi, seed, order, oracle=ora)
        if lmss is None:
            continue
        for labels, _, _ in ora.queries[1 + bool(seed):]:
            l = max(labels - seed, key=place.get)
            assert labels == seed | {m for m in lmss if place[m] < place[l]} | {l}, (i, order)
            asked += 1
    assert asked > 300, asked
