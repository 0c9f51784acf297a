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

``compute_lmes`` and ``compute_lmus`` run one deletion sweep, ``_shrink``;
``compute_lmss`` and ``compute_lmns`` run one grow sweep from a seed,
``_grow``.  One pass suffices both ways: equivalence with the formula is
upward-closed over label sets and satisfiability is downward-closed, so a
label kept while shrinking (or rejected while growing) stays so as the
current set keeps shrinking (or growing).  Each sweep skips the steps that
earlier solves already decide: a deletion step drops a label outside the
latest UNSAT core and keeps one that model rotation proved necessary, a
grow step adds a label whose clauses the latest model satisfies, and the
LMNS sweep adds a whole run of labels when one look-ahead query on them
holds; ``_shrink`` and ``_grow`` give the reasons.  So the LMES, LMSS and
LMNS sweeps return exactly what a sweep solving every step returns.  The
LMUS sweep also continues inside each UNSAT answer's core (clause-set
refinement), so its result is an LMUS that depends on the cores the solver
returns, and, on a shared oracle, on the oracle's earlier queries.

The sweeps take and return label sets, and inside keep their current,
kept and core sets as int masks over the formula's numbering of its
active labels (``LcnfFormula.label_bits``, read off the oracle's
formula): a step removes or adds one bit, asks the oracle by mask, and
the solver visits only the clauses of the label that changed.
"""
from __future__ import annotations

from itertools import accumulate
from operator import or_
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
    out = dict.fromkeys(_active(phi, l) for l in order)
    out.update(dict.fromkeys(active))  # a label already given keeps its place
    return list(out)


def is_label_redundant(
    phi: LcnfFormula, label: int, *, oracle: LcnfOracle | None = None
) -> bool:
    """Whether removing ``label`` preserves equivalence with ``phi``."""
    label = _active(phi, label)
    ora = oracle if oracle is not None else LcnfOracle(phi)
    return ora.is_equivalent_subformula(ora.formula.mask_of(phi.active_labels - {label}))


def compute_lmes(
    phi: LcnfFormula,
    order: Iterable[int] | None = None,
    *,
    oracle: LcnfOracle | None = None,
) -> frozenset:
    """One minimal equivalence-preserving label set, by deletion.

    Each label is dropped if it is redundant in the current reduced
    subformula (see ``_shrink``).
    """
    ora = oracle if oracle is not None else LcnfOracle(phi)
    full = ora.formula.mask_of(phi.active_labels)
    return _shrink(
        ora, full, full, _normalize_order(phi, order),
        lambda less, current: less if ora.is_equivalent_subformula(less, current) else None,
    )


def compute_lmus(
    phi: LcnfFormula,
    order: Iterable[int] | None = None,
    *,
    oracle: LcnfOracle | None = None,
) -> frozenset:
    """One minimal unsatisfiability-preserving label set, by deletion.

    The formula must be unsatisfiable.  The result can be empty when the
    unlabelled clauses are themselves unsatisfiable.  ``order`` decides
    every step up to and including the first UNSAT one; later steps test,
    in that order, the labels of the latest core (see ``_shrink``), so the
    result depends on the cores the solver returns, which on a passed
    ``oracle`` depend on its earlier queries too.
    """
    ora = oracle if oracle is not None else LcnfOracle(phi)
    full = ora.formula.mask_of(phi.active_labels)
    if ora.is_sat_induced(full):
        raise PreconditionError(REASON_SATISFIABLE)
    return _shrink(
        ora, full, ora.core(), _normalize_order(phi, order),
        lambda less, _: None if ora.is_sat_induced(less) else ora.core(),
    )


def _shrink(ora: LcnfOracle, current: int, core: int, order: list[int], test) -> frozenset:
    """The deletion pass: drop each label of ``order`` from ``current``
    unless ``test`` finds it needed, and return the labels left.

    ``test(less, current)`` asks about ``less``, the current set less one
    label.  None means the label is needed, and the oracle holds a model of
    ``less``'s subformula (falsifying a clause of ``current`` when
    equivalence is tested).  Any other answer is the set the pass goes on
    in: ``less`` for LMES, and for LMUS the query's UNSAT core, inside
    ``less``, so every label outside it goes at once and later queries ask
    about fewer labels (clause-set refinement, Marques-Silva & Lynce, SAT
    2011).

    ``core``, inside ``current``, keeps the property on its own: all of
    ``current`` for LMES, the latest UNSAT core for LMUS.  A label outside
    it is dropped with no query, as the smaller set still contains it.
    ``kept <= core <= current`` holds throughout: a core label leaves only
    on a test's answer, which becomes the current set and holds every label
    kept so far, as each of them is needed in every smaller set.  After each
    None, recursive model rotation (``LcnfOracle.rotate``) derives from the
    model assignments that satisfy every clause of ``current`` without some
    label l and falsify one with l.  ``current`` less l is then satisfiable
    and misses a clause of the formula; as satisfiability and
    non-equivalence are downward-closed, so is every smaller set less l,
    and the pass keeps l with no query wherever it meets it.
    """
    bits = ora.formula.label_bits
    kept = 0
    for l in order:
        b = bits[l]
        if kept & b:
            continue
        if not core & b:
            current &= ~b
            continue
        found = test(current & ~b, current)
        if found is None:
            kept |= b
            kept |= ora.rotate(ora.model(), current, kept, b)
        else:
            core = current = found
    return ora.formula.labels_in(current)


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
    seed = ora.formula.mask_of([_active(phi, l) for l in seed])
    if not ora.is_sat_induced(0):
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
    seed = ora.formula.mask_of([_active(phi, l) for l in seed])
    if ora.is_equivalent_subformula(seed):
        if not phi.active_labels:
            raise PreconditionError(REASON_NO_ACTIVE_LABELS)
        if seed and not ora.is_equivalent_subformula(0):
            raise PreconditionError("seed labels induce an equivalent subformula")
        raise PreconditionError(REASON_ALL_REDUNDANT)
    return _grow(
        ora, seed, _normalize_order(phi, order),
        lambda labels: not ora.is_equivalent_subformula(labels), look_ahead=True,
    )


def _grow(
    ora: LcnfOracle, seed: int, order: list[int], holds, look_ahead: bool = False
) -> frozenset:
    """The grow pass from ``seed``: add each label of ``order`` that keeps
    the subformula satisfiable or non-equivalent, as ``holds`` says.

    The latest query, on ``seed``, held, and its model satisfies the current
    subformula (falsifying a formula clause when non-equivalence is grown).
    A label whose clauses inside the grown set the model satisfies as well
    is added with no query: the model shows the grown subformula is
    satisfiable, or misses that clause.  Only a query that holds brings a
    new model.

    With ``look_ahead`` (the LMNS sweep), a query due at label l, when none
    was asked since the start or since the latest rejection, is preceded by
    look-aheads: ``holds`` on the current set, l and every later label but
    the last 1, then but the last 2, 4, ..., while that run holds more
    labels than the current set and l.  The first that holds adds its whole
    run, its model becomes the latest, and the sweep resumes at the first
    label left out; if none holds, the usual query on the current set and l
    follows.  Exact: every set the plain sweep would ask about from l to the
    end of the run lies inside the run, and what holds for the run holds
    for each of its subsets, as non-equivalence is downward-closed, so the
    plain sweep adds every label of the run too.  It pays because a prefix
    of the order becomes equivalent only once it entails every label after
    it, so rejections gather at the end of the order.  The LMSS sweep asks
    none: there a look-ahead mostly fails, and a failed one is a
    refutation, which costs more than the solves it would save.
    """
    model = ora.model()
    bits = [ora.formula.label_bits[l] for l in order]
    n = len(bits)
    after = list(accumulate(reversed(bits), or_, initial=0))[::-1]  # after[i]: order[i:]

    def ahead_of(i: int, grown: int):
        # the first look-ahead from label i that holds: its run and where
        # the sweep resumes, or None
        out = 1  # the last labels that the run leaves out
        while n - out > i + 1:
            run = grown | after[i] ^ after[n - out]
            if run != grown and holds(run):
                return run, n - out
            out *= 2
        return None

    current = seed
    ahead = look_ahead  # no look-ahead asked since the start or the latest rejection
    i = 0
    while i < n:
        grown = current | bits[i]
        if grown == current or ora.satisfies(model, bits[i], grown):
            current, i = grown, i + 1
            continue
        found = ahead and ahead_of(i, grown)
        ahead = False
        if found:
            current, i = found
        elif holds(grown):
            current, i = grown, i + 1
        else:
            ahead, i = look_ahead, i + 1
            continue
        model = ora.model()
    return ora.formula.labels_in(current)


def duality_obstacle(phi: LcnfFormula, has_irredundant_label: Callable[[], bool]) -> str | None:
    """Why the hitting-set duality does not apply to ``phi``, or None if it does.

    The duality between minimal equivalence-preserving sets and complements
    of maximal non-equivalent sets requires at least one active label and,
    when a clause is unlabelled (label mask 0), at least one irredundant
    label; only then is ``has_irredundant_label`` called.
    """
    if not phi.active_labels:
        return "no active labels"
    if 0 in phi.label_masks and not has_irredundant_label():
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
        return not all(
            is_label_redundant(phi, l, oracle=ora) for l in sorted(phi.active_labels)
        )

    reason = duality_obstacle(phi, has_irredundant_label)
    return reason is None, reason
