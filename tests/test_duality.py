"""Set families, irreducible hitting sets, and the duality checks."""
import random

import pytest

from lcnf.analysis import duality_preconditions
from lcnf.bruteforce import classify_all, random_lcnf
from lcnf.core import LcnfFormula
from lcnf.duality import (
    DualityVerdict,
    SetFamily,
    enumerate_minimal_hitting_sets,
    verify_duality,
)
from lcnf.errors import ResourceLimitError

from conftest import WORKED_COLMNS, WORKED_LMES, WORKED_LMNS


def is_irreducible_hitting_set(candidate, family):
    """Whether ``candidate`` hits every member of ``family`` and no proper
    subset does: each of its elements is the sole intersection with some
    member (a private member).  A frozenset scan, independent of the MMCS
    search over masks that it checks."""
    h = frozenset(candidate)
    members = [frozenset(m) for m in family]
    return all(h & m for m in members) and all(
        any(h & m == {e} for m in members) for e in h
    )


def test_set_family_canonical_order():
    fam = SetFamily([{2}, {1, 3}, {1, 4}])
    assert fam.canonical() == [[1, 3], [1, 4], [2]]
    assert list(fam) == [frozenset({1, 3}), frozenset({1, 4}), frozenset({2})]


def test_set_family_equality_and_containment():
    fam = SetFamily([{1, 2}, {3}])
    assert fam == SetFamily([{3}, {1, 2}])
    assert fam == {frozenset({1, 2}), frozenset({3})}
    assert frozenset({3}) in fam
    assert frozenset({1}) not in fam
    assert len(fam) == 2


def test_set_family_deduplicates():
    fam = SetFamily([{1}, {1}, (1,)])
    assert len(fam) == 1


def test_set_family_universe_default_is_union():
    fam = SetFamily([{1, 2}, {4}])
    assert fam.universe == frozenset({1, 2, 4})


def test_set_family_rejects_members_outside_universe():
    with pytest.raises(ValueError):
        SetFamily([{1, 9}], universe={1, 2})


def test_set_family_complements():
    fam = SetFamily([{1, 3, 4}, {2, 3}, {2, 4}], universe={1, 2, 3, 4})
    assert fam.complements() == SetFamily([{2}, {1, 4}, {1, 3}], universe={1, 2, 3, 4})


def test_hitting_set_predicates():
    family = [{1, 2}, {2, 3, 4}]
    assert is_irreducible_hitting_set({2}, family)
    assert is_irreducible_hitting_set({1, 3}, family)
    assert is_irreducible_hitting_set({1, 4}, family)
    # {1,2} hits everything but 1 has no private member
    assert not is_irreducible_hitting_set({1, 2}, family)


def test_minimal_hitting_sets_of_published_families():
    assert enumerate_minimal_hitting_sets(WORKED_LMES) == WORKED_COLMNS
    assert enumerate_minimal_hitting_sets(WORKED_COLMNS) == WORKED_LMES


def test_minimal_hitting_sets_singleton():
    assert enumerate_minimal_hitting_sets([{5}]) == {frozenset({5})}


def test_minimal_hitting_sets_empty_family_is_empty_set():
    fam = enumerate_minimal_hitting_sets([])
    assert fam == {frozenset()}


def test_minimal_hitting_sets_of_family_with_empty_member_is_none():
    fam = enumerate_minimal_hitting_sets([{1, 2}, set()])
    assert len(fam) == 0


def test_minimal_hitting_sets_limit():
    # 2x2 cross product has four transversals; a budget of three trips
    with pytest.raises(ResourceLimitError):
        enumerate_minimal_hitting_sets([{1, 2}, {3, 4}], limit=3)
    fam = enumerate_minimal_hitting_sets([{1, 2}, {3, 4}], limit=4)
    assert fam == {frozenset({1, 3}), frozenset({1, 4}),
                   frozenset({2, 3}), frozenset({2, 4})}
    # a negative limit is refused before any search, even with nothing to find
    for family in ([{1, 2}, {3, 4}], [], [set()]):
        with pytest.raises(ValueError):
            enumerate_minimal_hitting_sets(family, limit=-1)


def random_family(rng):
    universe = list(range(1, rng.randint(2, 6) + 1))
    k = rng.randint(1, 5)
    members = []
    for _ in range(k):
        size = rng.randint(1, len(universe))
        members.append(frozenset(rng.sample(universe, size)))
    return members


def test_hitting_set_enumeration_is_sound_complete_and_involutive():
    rng = random.Random(5)
    for _ in range(120):
        members = random_family(rng)
        fam = enumerate_minimal_hitting_sets(members)
        universe = sorted(frozenset().union(*members))
        # sound: every output is an irreducible hitting set
        for h in fam:
            assert is_irreducible_hitting_set(h, members)
        # complete: check against direct subset scan
        direct = set()
        for mask in range(1 << len(universe)):
            cand = frozenset(
                universe[i] for i in range(len(universe)) if mask >> i & 1
            )
            if is_irreducible_hitting_set(cand, members):
                direct.add(cand)
        assert fam.members == frozenset(direct)
        # involutive on minimal families: dualizing twice returns the input
        minimal = [
            m for m in set(members)
            if not any(o < m for o in set(members))
        ]
        twice = enumerate_minimal_hitting_sets(enumerate_minimal_hitting_sets(minimal))
        assert twice.members == frozenset(minimal)


def test_mask_search_matches_a_subset_scan_on_sparse_labels():
    # labels from 0 to 60, so bit i of a mask is the i-th smallest label and
    # not label i; the reference is the frozenset scan of
    # is_irreducible_hitting_set over every subset of the universe.  Each
    # family goes in as a list, a plain SetFamily and one built from masks
    rng = random.Random(23)
    with_zero = above_bits = nontrivial = 0
    for n in range(400):
        universe = sorted(rng.sample(range(61), rng.randint(1, 7)))
        if n % 2:
            universe = sorted({0, *universe[1:]})
        members = [
            frozenset(rng.sample(universe, rng.randint(0 if n % 25 == 0 else 1, len(universe))))
            for _ in range(rng.randint(0, 6))
        ]
        direct = set()
        for mask in range(1 << len(universe)):
            cand = frozenset(l for i, l in enumerate(universe) if mask >> i & 1)
            if is_irreducible_hitting_set(cand, members):
                direct.add(cand)
        distinct = sorted(set(members), key=sorted)
        masks = [sum(1 << universe.index(l) for l in m) for m in distinct]
        inputs = (
            members,
            SetFamily(members, universe),
            SetFamily.from_masks(masks, tuple(universe)),
        )
        for family in inputs:
            fam = enumerate_minimal_hitting_sets(family)
            where = (n, universe, distinct, type(family).__name__)
            assert fam.members == frozenset(direct), where
            assert len(fam) == len(direct) == len(set(fam.masks)), where
            # the limit counts minimal sets: it trips at one more than it allows
            assert enumerate_minimal_hitting_sets(family, limit=len(direct)) == fam, where
            if direct:
                with pytest.raises(ResourceLimitError):
                    enumerate_minimal_hitting_sets(family, limit=len(direct) - 1)
        with_zero += 0 in universe and any(0 in h for h in direct)
        above_bits += universe[-1] >= len(universe)
        nontrivial += len(direct) >= 3
    assert with_zero >= 100 and above_bits >= 350 and nontrivial >= 100


def test_verify_duality_passes_on_worked_example(worked_example):
    verdict = verify_duality(worked_example, classify_all(worked_example))
    assert verdict.applicable
    assert verdict.passed
    assert all(verdict.checks().values())
    assert verdict.lmes_union == frozenset({1, 2, 3, 4})
    assert verdict.lmns_intersection == frozenset()


def test_verify_duality_not_applicable_reports_reason():
    bare = LcnfFormula.from_clauses([(1,), (2,)])
    verdict = verify_duality(bare, classify_all(bare))
    assert isinstance(verdict, DualityVerdict)
    assert not verdict.applicable
    assert not verdict.passed
    assert verdict.reason
    assert verdict.colmns_from_lmes is None


def test_verify_duality_on_unsat_collapse(phi_u):
    verdict = verify_duality(phi_u, classify_all(phi_u))
    assert verdict.applicable and verdict.passed


def test_verify_duality_random_corpus():
    passed = 0
    for seed in range(120):
        phi = random_lcnf(seed)
        report = classify_all(phi)
        verdict = verify_duality(phi, report)
        assert (verdict.applicable, verdict.reason) == duality_preconditions(phi), seed
        if verdict.applicable:
            assert verdict.passed, f"seed {seed}"
            passed += 1
    assert passed >= 60


def test_complements_consistent_reads_the_statuses(worked_example):
    report = classify_all(worked_example)
    lmes, lmns, colmns = report.lmes, report.lmns, report.colmns  # cached from here on
    assert verify_duality(worked_example, report).complements_consistent
    active = sorted(report.active_labels)
    member = next(iter(colmns))
    mask = sum(1 << i for i, l in enumerate(active) if l not in member)
    # the check reads the packed statuses: set the bit of mask, a non-equivalent set
    assert not report.equivalent_bits >> mask & 1
    report.equivalent_bits |= 1 << mask
    verdict = verify_duality(worked_example, report)
    assert verdict.applicable
    assert not verdict.complements_consistent
    assert not verdict.passed
    # the families read before the corruption still agree with each other
    assert colmns == lmns.complements() and report.lmes is lmes
