"""Deletion/grow witnesses: minimal equivalent and maximal satisfiable sets."""
import random

import pytest

from lcnf.analysis import (
    compute_lmes,
    compute_lmns,
    compute_lmss,
    compute_lmus,
    is_label_redundant,
    duality_preconditions,
)
from lcnf.bruteforce import classify_all, random_lcnf
from lcnf.core import LcnfFormula
from lcnf.errors import PreconditionError
from lcnf.oracle import LcnfOracle

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


def test_lmes_rejects_unknown_label(worked_example):
    with pytest.raises(ValueError):
        compute_lmes(worked_example, (1, 7))


def test_lmes_result_is_equivalent_and_minimal(worked_example):
    ora = LcnfOracle(worked_example)
    got = compute_lmes(worked_example, oracle=ora)
    assert ora.is_equivalent_subformula(got)
    for l in got:
        assert not ora.is_equivalent_subformula(got - {l})


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
    assert ora.is_sat_induced(got)
    for l in phi_u.active_labels - got:
        assert not ora.is_sat_induced(got | {l})


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
    assert not ora.is_equivalent_subformula(got)
    for l in worked_example.active_labels - got:
        assert ora.is_equivalent_subformula(got | {l})


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
        if ora.is_equivalent_subformula(current - {l}, current):
            current.discard(l)
    return frozenset(current)


def _plain_lmus(phi, order, ora):
    if ora.is_sat_induced(phi.active_labels):
        return None
    current = set(phi.active_labels)
    for l in order:
        if not ora.is_sat_induced(current - {l}):
            current.discard(l)
    return frozenset(current)


def _plain_lmss(phi, seed, order, ora):
    if not ora.is_sat_induced(seed):
        return None
    current = set(seed)
    for l in order:
        if l not in current and ora.is_sat_induced(current | {l}):
            current.add(l)
    return frozenset(current)


def _plain_lmns(phi, seed, order, ora):
    if ora.is_equivalent_subformula(seed):
        return None
    current = set(seed)
    for l in order:
        if l not in current and not ora.is_equivalent_subformula(current | {l}):
            current.add(l)
    return frozenset(current)


def _or_none(compute, *args, **kwargs):
    try:
        return compute(*args, **kwargs)
    except PreconditionError:
        return None


def test_sweeps_that_reuse_evidence_match_plain_sweeps():
    # cores, models, non-equivalence witnesses and the labels model
    # rotation proves only skip solves whose answer they imply, so every
    # witness equals the plain sweep's, for every profile, order and seed;
    # one oracle answers every function under test, so evidence left by one
    # cannot leak into the next
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
        assert lmus == _plain_lmus(phi, full, plain), (i, order)
        lmss = _or_none(compute_lmss, phi, seed, order, oracle=ora)
        expected = None
        if plain.is_sat_induced(frozenset()):
            expected = _plain_lmss(phi, seed, full, plain)
        assert lmss == expected, (i, seed, order)
        lmns = _or_none(compute_lmns, phi, seed, order, oracle=ora)
        assert lmns == _plain_lmns(phi, seed, full, plain), (i, seed, order)
        for name, got in (("lmes", lmes), ("lmus", lmus), ("lmss", lmss), ("lmns", lmns)):
            counts[name] += got is not None and len(got) > 1
    assert min(counts.values()) > 100, counts
