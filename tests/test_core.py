"""Formula representation: rows, labelling, induced subformulas, schemes."""
import random

import pytest

from lcnf.bruteforce import GenerationProfile, random_lcnf
from lcnf.core import LcnfFormula, label, sort_literals
from lcnf.oracle import LcnfOracle, Solver

from conftest import WORKED_CLAUSES, WORKED_LABELS, cnf


def test_clause_rejects_zero_literal():
    for make in (LcnfFormula.from_clauses, label):
        with pytest.raises(ValueError, match="^literal 0 is not allowed in a clause$"):
            make([(2,), (1, 0)])


def test_clause_rejects_complementary_pair():
    for make in (LcnfFormula.from_clauses, label):
        with pytest.raises(ValueError, match="^clause 1 contains both 2 and its negation$"):
            make([(1,), (2, -2, 3)])


def test_clause_sorted_literals_by_variable_then_sign():
    phi = LcnfFormula.from_clauses([(-3, 1, 2), (-2, 5, -4, 5)])
    assert cnf(phi) == [(1, 2, -3), (-2, -4, 5)]


def test_sort_literals_is_the_variable_then_sign_order():
    # the one definition of the order rows, clauses and serializers use; it
    # keeps duplicates and complementary pairs, as a serializer may get them
    rng = random.Random(7)
    for _ in range(500):
        lits = [rng.choice((1, -1)) * rng.randint(1, 6) for _ in range(rng.randint(0, 7))]
        assert sort_literals(lits) == tuple(sorted(lits, key=lambda l: (abs(l), l < 0)))


def test_relabelling_a_formula_reads_its_rows(worked_example):
    for scheme in ("clause", "variable", "literal"):
        assert label(worked_example, scheme) == label(cnf(worked_example), scheme)
    sub = worked_example.induced({1, 2})
    assert label(sub, "clause") == label(cnf(sub), "clause")


def test_labels_rejects_negative():
    with pytest.raises(ValueError):
        LcnfFormula.from_clauses([(1,)], [(-1,)])


def test_from_clauses_defaults_to_unlabelled():
    phi = LcnfFormula.from_clauses([(1,), (2,)])
    assert phi.active_labels == frozenset()
    assert phi.rows == (((1,), frozenset()), ((2,), frozenset()))


def test_labelling_length_mismatch():
    with pytest.raises(ValueError):
        LcnfFormula.from_clauses([(1,), (2,)], [(1,)])


def test_active_labels_and_per_label_clauses(worked_example):
    assert worked_example.active_labels == frozenset({1, 2, 3, 4})
    assert worked_example.label_masks.count(0) == 1


def test_labels_of_by_clause_and_index(worked_example):
    # a clause is named by its index in the formula's rows
    assert worked_example.labels_of(3) == frozenset({1, 2})
    assert worked_example.labels_of(4) == frozenset()
    assert [worked_example.labels_of(i) for i in range(8)] == [ls for _, ls in worked_example.rows]


def test_labels_of_refuses_an_index_out_of_range(worked_example):
    # a negative index does not wrap round to the last row
    for index in (-1, -8, len(worked_example)):
        with pytest.raises(ValueError, match=f"^clause {index} is not part of this formula$"):
            worked_example.labels_of(index)


def test_labels_of_rejects_clause_outside_induced_subformula(worked_example):
    # the induced formula keeps clauses 4 and 7 of its parent, as its 0 and 1
    sub = worked_example.induced({4})
    assert sub.labels_of(0) == frozenset()
    assert sub.labels_of(1) == frozenset({4})
    for index in (2, 7, -1):
        with pytest.raises(ValueError, match=f"^clause {index} is not part of this formula$"):
            sub.labels_of(index)


def test_variables(worked_example):
    assert worked_example.variables == frozenset({1, 2, 3, 4})


def test_induced_keeps_clauses_within_label_set(worked_example):
    sub = worked_example.induced({1, 2})
    # clauses 1-4 carry labels within {1,2}; clause 5 is unlabelled
    assert len(sub) == 5
    assert all(labels <= frozenset({1, 2}) for _, labels in sub.rows)


def test_induced_empty_set_keeps_only_unlabelled(worked_example):
    sub = worked_example.induced(frozenset())
    assert len(sub) == 1
    assert sub.rows == (((1, 2, 3), frozenset()),)


def test_induced_ignores_inactive_labels(worked_example):
    assert worked_example.induced({1, 2, 99}) == worked_example.induced({1, 2})


def test_induced_monotone_under_label_growth(worked_example):
    rng = random.Random(7)
    active = sorted(worked_example.active_labels)
    for _ in range(25):
        small = frozenset(l for l in active if rng.random() < 0.4)
        big = small | frozenset(l for l in active if rng.random() < 0.4)
        # the rows of the smaller set are a subsequence of the larger's
        outer = iter(worked_example.induced(big).rows)
        assert all(row in outer for row in worked_example.induced(small).rows)


def test_induced_is_the_formula_of_the_kept_rows():
    # a fresh formula numbered from 0: it keeps no numbering of its parent's
    rng = random.Random(13)
    for n, phi in enumerate(numbered_formulas()):
        labels = frozenset(l for l in range(8) if rng.random() < 0.5)
        kept = [(lits, ls) for lits, ls in phi.rows if ls <= labels]
        sub = phi.induced(labels)
        assert sub == LcnfFormula.from_clauses([c for c, _ in kept], [ls for _, ls in kept]), n
        assert [sub.labels_of(i) for i in range(len(sub))] == [ls for _, ls in kept], n


def test_formula_equality_is_content_based(worked_example):
    again = LcnfFormula.from_clauses(WORKED_CLAUSES, WORKED_LABELS)
    assert again == worked_example
    assert hash(again) == hash(worked_example)
    assert worked_example.induced(worked_example.active_labels) == worked_example


def test_rows_pair_sorted_literals_with_label_sets(worked_example):
    rows = worked_example.rows
    assert len(rows) == len(worked_example) == 8
    assert rows[0] == ((-2,), frozenset({1}))
    assert rows[5] == ((-1, 2), frozenset({2, 3}))


def test_label_scheme_clause():
    phi = label([(1, 2), (-1,)], "clause")
    assert phi.labels_of(0) == frozenset({1})
    assert phi.labels_of(1) == frozenset({2})


def test_label_scheme_variable():
    clauses = [(1, -3), (2,), (-1, 2, 4)]
    phi = label(clauses, "variable")
    for lits, labels in phi.rows:
        assert labels == {abs(l) for l in lits}


def test_label_scheme_literal_separates_signs():
    phi = label([(1, -2)], "literal")
    assert phi.labels_of(0) == frozenset({2 * 1, 2 * 2 + 1})
    pos = label([(2,)], "literal")
    neg = label([(-2,)], "literal")
    assert pos.labels_of(0) != neg.labels_of(0)


def test_label_rejects_unknown_scheme():
    # group labelling is read from a gcnf file, and explicit label sets go
    # through LcnfFormula.from_clauses; neither is a scheme of label
    for scheme in ("bogus", "group", "explicit"):
        with pytest.raises(ValueError, match="unknown labelling scheme"):
            label([(1,)], scheme)


def numbered_formulas():
    """Seeded formulas with labels 1..6, and views induced by some of them."""
    rng = random.Random(23)
    profile = GenerationProfile(variables=5, clauses=14, labels=6, clause_labels=3)
    for seed in range(80):
        phi = random_lcnf(seed, profile)
        yield phi
        yield phi.induced(l for l in range(1, 7) if rng.random() < 0.6)


def test_label_bits_number_the_active_labels_in_sorted_order():
    for n, phi in enumerate(numbered_formulas()):
        active = sorted(phi.active_labels)
        assert phi.label_bits == {l: 1 << i for i, l in enumerate(active)}, n
        assert len(phi.label_masks) == len(phi.rows), n
        for mask, (_, labels) in zip(phi.label_masks, phi.rows):
            assert mask == sum(1 << active.index(l) for l in labels), n


def test_mask_of_and_labels_in_convert_both_ways():
    # a label set keeps its active labels; every mask below 2^k names a
    # distinct label set
    rng = random.Random(29)
    for n, phi in enumerate(numbered_formulas()):
        active = phi.active_labels
        k = len(active)
        for _ in range(10):
            labels = frozenset(l for l in range(9) if rng.random() < 0.5)
            mask = phi.mask_of(labels)
            assert phi.labels_in(mask) == labels & active, n
            assert phi.mask_of(list(labels)) == mask, n
        assert phi.mask_of(active) == (1 << k) - 1, n
        assert len({phi.labels_in(m) for m in range(1 << k)}) == 1 << k, n
        assert all(phi.mask_of(phi.labels_in(m)) == m for m in range(1 << k)), n


def test_a_negative_mask_is_refused():
    phi = LcnfFormula.from_clauses([(1,), (-1, 2)], [(3,), (5,)])
    ora = LcnfOracle(phi)
    model = {1: True, 2: True}
    for query in (
        lambda: ora.is_sat_induced(-1),
        lambda: ora.entails_clause(-1, (2,)),
        lambda: ora.is_equivalent_subformula(-1),
        lambda: ora.is_equivalent_subformula(0, -1),
        lambda: ora.satisfies(model, 1, -1),
        lambda: ora.rotate(model, -1),
        lambda: ora.rotate(model, 3, -2),
    ):
        with pytest.raises(ValueError, match="nonnegative"):
            query()
    s = Solver()
    with pytest.raises(ValueError, match="nonnegative"):
        s.add_clause((1, 2), -2)
    with pytest.raises(ValueError, match="nonnegative"):
        s.solve((), -1)
