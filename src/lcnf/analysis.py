"""Redundancy analysis: minimal and maximal label sets of a labelled formula.

Four witness kinds are computed here, all defined over subsets of a formula's
active labels:

* a minimal equivalent subset (LMES): inducing with it preserves logical
  equivalence, and dropping any of its labels breaks equivalence;
* a minimal unsatisfiable subset (LMUS): the same with unsatisfiability in
  place of equivalence (the two notions coincide on unsatisfiable formulas);
* a maximal non-equivalent subset (LMNS): inducing with it loses equivalence,
  and adding any further label restores it;
* a maximal satisfiable subset (LMSS): inducing with it stays satisfiable,
  and adding any further label makes it unsatisfiable.

Minimal sets are extracted by a deletion loop that re-tests each label's
redundancy against the current reduced formula; maximal sets by a single grow
pass from a seed.  One pass suffices both ways: equivalence with the formula
is upward-closed over label sets and satisfiability is downward-closed, so a
label kept while shrinking (or rejected while growing) stays so as the
current set keeps shrinking (or growing).  Both are deterministic given the
formula and the label order.

Every sweep also skips the steps that earlier solves already decide, so it
returns exactly what a sweep solving every step returns.  A deletion step
for a label outside the latest UNSAT core (the oracle's ``core``) drops
the label unsolved: the smaller set still contains that core.  A deletion
step for a label that recursive model rotation (the oracle's ``rotate``)
proved necessary keeps it unsolved.  After each SAT answer of the LMES and
LMUS sweeps, rotation derives from the answer's model assignments that
satisfy every clause of the current set without some label l and falsify
one with l.  The current set less l is then satisfiable and misses a
clause of the formula; as satisfiability and non-equivalence are
downward-closed, so is every smaller set less l, and the sweep keeps l
wherever it meets it.  A grow step adds a label unsolved when the latest
model satisfies its clauses inside the grown set: the grown subformula is
then satisfiable, or, for LMNS, still misses the removed clause that the
model falsifies.
"""
from __future__ import annotations

from typing import Callable, Iterable

from .core import LcnfFormula
from .errors import PreconditionError
from .oracle import LcnfOracle


# Why a witness kind does not exist for a formula; raised here by the
# single-witness functions and by the CLI's exhaustive ``enum`` gate.
REASON_SATISFIABLE = "formula is satisfiable; no unsatisfiable label subset exists"
REASON_NO_ACTIVE_LABELS = "no active labels: the only subformula is the formula itself"
REASON_ALL_REDUNDANT = (
    "all labels are redundant: the unlabelled clauses entail every "
    "clause, so every subformula is equivalent"
)
REASON_UNSAT_UNLABELLED = (
    "unlabelled clauses are unsatisfiable; no satisfiable label set exists"
)


def _active(phi: LcnfFormula, label) -> int:
    """``label`` as an int; ValueError unless it is active in ``phi``."""
    label = int(label)
    if label not in phi.active_labels:
        raise ValueError(f"label {label} is not active in this formula")
    return label


def _normalize_order(phi: LcnfFormula, order: Iterable[int] | None) -> list[int]:
    """Resolve a label order: the given labels first, missing ones appended
    in ascending order.  Unknown labels are rejected."""
    active = sorted(phi.active_labels)
    if order is None:
        return active
    out: list[int] = []
    for l in order:
        l = _active(phi, l)
        if l not in out:
            out.append(l)
    out.extend(l for l in active if l not in out)
    return out


def is_label_redundant(
    phi: LcnfFormula, label: int, *, oracle: LcnfOracle | None = None
) -> bool:
    """Whether removing ``label`` preserves equivalence with ``phi``."""
    label = _active(phi, label)
    ora = oracle if oracle is not None else LcnfOracle(phi)
    return ora.is_equivalent_subformula(phi.active_labels - {label})


def compute_lmes(
    phi: LcnfFormula,
    order: Iterable[int] | None = None,
    *,
    oracle: LcnfOracle | None = None,
) -> frozenset:
    """One minimal equivalence-preserving label set, by deletion.

    Each label is dropped if it is redundant in the current reduced
    subformula; a label kept irredundant once stays irredundant in every
    further reduction, so a single pass suffices.  After each irredundant
    answer, model rotation from its model marks further labels irredundant,
    and their steps make no solve.
    """
    ora = oracle if oracle is not None else LcnfOracle(phi)
    current = set(phi.active_labels)
    kept: set = set()
    for l in _normalize_order(phi, order):
        if l in kept:
            continue
        if ora.is_equivalent_subformula(current - {l}, current):
            current.discard(l)
        else:
            kept.add(l)
            kept |= ora.rotate(ora.model(), current, kept)
    return frozenset(current)


def compute_lmus(
    phi: LcnfFormula,
    order: Iterable[int] | None = None,
    *,
    oracle: LcnfOracle | None = None,
) -> frozenset:
    """One minimal unsatisfiability-preserving label set, by deletion.

    The formula must be unsatisfiable.  The result can be empty when the
    unlabelled clauses are themselves unsatisfiable.  A label outside the
    latest core is dropped with no solve; after each satisfiable answer,
    model rotation from its model marks further labels necessary, and they
    are kept with no solve.
    """
    ora = oracle if oracle is not None else LcnfOracle(phi)
    if ora.is_sat_induced(phi.active_labels):
        raise PreconditionError(REASON_SATISFIABLE)
    core = ora.core()
    current = set(phi.active_labels)
    kept: set = set()
    for l in _normalize_order(phi, order):
        if l in kept:
            continue
        # core <= current holds throughout: a core label leaves only on an
        # UNSAT answer, which brings a new core inside the smaller set
        if l in core:
            if ora.is_sat_induced(current - {l}):
                kept.add(l)
                kept |= ora.rotate(ora.model(), current, kept)
                continue
            core = ora.core()
        current.discard(l)
    return frozenset(current)


def compute_lmss(
    phi: LcnfFormula,
    seed: Iterable[int] = (),
    order: Iterable[int] | None = None,
    *,
    oracle: LcnfOracle | None = None,
) -> frozenset:
    """One maximal satisfiable label set containing ``seed``, by growing.

    Requires the unlabelled clauses (and the seed-induced subformula) to be
    satisfiable; otherwise no satisfiable label set exists at all and a
    PreconditionError is raised.  A seed label that is not active is a
    ValueError, as it is in ``order``.
    """
    ora = oracle if oracle is not None else LcnfOracle(phi)
    seed = frozenset(_active(phi, l) for l in seed)
    if not ora.is_sat_induced(frozenset()):
        raise PreconditionError(REASON_UNSAT_UNLABELLED)
    if seed and not ora.is_sat_induced(seed):
        raise PreconditionError("seed labels induce an unsatisfiable subformula")
    return _grow(ora, seed, _normalize_order(phi, order), ora.is_sat_induced)


def compute_lmns(
    phi: LcnfFormula,
    seed: Iterable[int] = (),
    order: Iterable[int] | None = None,
    *,
    oracle: LcnfOracle | None = None,
) -> frozenset:
    """One maximal non-equivalence-preserving label set containing ``seed``.

    Requires the seed-induced subformula to differ from the formula.  With an
    empty seed this is exactly the existence condition: no such set exists
    when there are no active labels, or when the unlabelled clauses already
    entail every clause (all labels redundant at once).  A seed label that
    is not active is a ValueError, as it is in ``order``.
    """
    ora = oracle if oracle is not None else LcnfOracle(phi)
    seed = frozenset(_active(phi, l) for l in seed)
    if ora.is_equivalent_subformula(seed):
        if not phi.active_labels:
            raise PreconditionError(REASON_NO_ACTIVE_LABELS)
        if seed and not ora.is_equivalent_subformula(frozenset()):
            raise PreconditionError("seed labels induce an equivalent subformula")
        raise PreconditionError(REASON_ALL_REDUNDANT)
    return _grow(
        ora, seed, _normalize_order(phi, order),
        lambda labels: not ora.is_equivalent_subformula(labels),
    )


def _grow(ora: LcnfOracle, seed: frozenset, order: list[int], holds) -> frozenset:
    """The grow pass from ``seed``: add each label of ``order`` that keeps
    the subformula satisfiable or non-equivalent, as ``holds`` says.

    The latest query, on ``seed``, held, and its model satisfies the current
    subformula (falsifying a formula clause when non-equivalence is grown).
    A label whose clauses inside the grown set the model satisfies as well
    is added with no query: the model shows the grown subformula is
    satisfiable, or misses that clause.  Only a query that holds brings a
    new model.
    """
    model = ora.model()
    current = set(seed)
    for l in order:
        if l in current:
            continue
        grown = current | {l}
        if ora.satisfies(model, l, grown):
            current.add(l)
        elif holds(grown):
            current.add(l)
            model = ora.model()
    return frozenset(current)


def duality_obstacle(phi: LcnfFormula, has_irredundant_label: Callable[[], bool]) -> str | None:
    """Why the hitting-set duality does not apply to ``phi``, or None if it does.

    The duality between minimal equivalence-preserving sets and complements
    of maximal non-equivalent sets requires at least one active label and,
    when unlabelled clauses are present, at least one irredundant label; only
    then is ``has_irredundant_label`` called.
    """
    if not phi.active_labels:
        return "no active labels"
    if phi.unlabelled_clauses and not has_irredundant_label():
        return "unlabelled clauses are present and every label is redundant"
    return None


def duality_preconditions(
    phi: LcnfFormula, *, oracle: LcnfOracle | None = None
) -> tuple[bool, str | None]:
    """Check the duality's applicability conditions with oracle queries.

    Returns (ok, reason-if-not); see ``duality_obstacle``.
    """

    def has_irredundant_label() -> bool:
        ora = oracle if oracle is not None else LcnfOracle(phi)
        labels = phi.active_labels
        return not all(ora.is_equivalent_subformula(labels - {l}) for l in sorted(labels))

    reason = duality_obstacle(phi, has_irredundant_label)
    return reason is None, reason
