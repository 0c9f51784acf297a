"""Labelled CNF data model.

A labelled CNF formula is a clause list, an ordered multi-set of clauses,
with a total labelling function that maps every clause to a finite set of
integer labels.  Subformulas are obtained by removing labels, never
individual clauses: the subformula induced by a label set L keeps exactly
the clauses whose labels all lie in L.  Clauses with an empty label set are
unlabelled and survive in every subformula.

``LcnfFormula`` is its rows and nothing more: one ``(literals, labels)``
row per clause, in clause order.  The literals are a tuple, distinct and in
the canonical order of ``sort_literals`` (by variable, the positive one
first); the labels are a frozenset.  A clause is checked once, when its row
is made (literal 0, a complementary pair, a negative label); the oracle,
the truth tables and ``label`` read rows as they are.

Below the public API a label set is an int mask, bit i for the i-th
smallest active label (``label_bits``).  The formula owns that numbering:
``label_masks`` holds each clause's mask, ``mask_of`` and ``labels_in``
convert, and the solver, the oracle and the truth tables all read them.

The labelling generalises several classical ways of carving up a CNF formula;
``label`` builds a formula from a plain clause list under one of three
schemes (per-clause, per-variable or per-literal); ``from_clauses`` takes
explicit label sets.
"""
from __future__ import annotations

from functools import cached_property
from typing import Iterable

_SCHEMES = ("clause", "variable", "literal")


def sort_literals(literals: Iterable[int]) -> tuple:
    """``literals`` in the canonical order: by variable, the positive one first."""
    # descending puts l before -l, and the stable sort by variable keeps that
    return tuple(sorted(sorted(literals, reverse=True), key=abs))


def complementary_variable(literals: Iterable[int]) -> int:
    """The variable of the first literal, in input order, whose negation came
    before it; 0 when no variable occurs with both signs."""
    seen = set()
    for l in literals:
        if -l in seen:
            return abs(l)
        seen.add(l)
    return 0


def _canonical(clauses: Iterable[Iterable[int]]) -> list[tuple]:
    """The row literals of each clause: distinct, in the canonical order.
    ValueError for a literal 0 or a complementary pair."""
    rows = []
    for i, clause in enumerate(clauses):
        clause = list(map(int, clause))
        lits = sort_literals(set(clause))
        if 0 in lits:
            raise ValueError("literal 0 is not allowed in a clause")
        if len(set(map(abs, lits))) < len(lits):
            v = complementary_variable(clause)
            raise ValueError(f"clause {i} contains both {v} and its negation")
        rows.append(lits)
    return rows


def _as_label_set(labels) -> frozenset:
    out = frozenset(int(l) for l in labels)
    for l in out:
        if l < 0:
            raise ValueError(f"labels must be nonnegative integers, got {l}")
    return out


class LcnfFormula:
    """A labelled CNF formula: its ``rows``, one ``(sorted literal tuple,
    label frozenset)`` per clause, in clause order (see the module docstring).

    Instances are immutable; ``induced`` returns a fresh formula of the rows
    it keeps, numbered from 0 like any other.
    """

    def __init__(self, rows: Iterable[tuple]):
        """A formula of checked rows; build one from unchecked input with
        ``from_clauses``."""
        self.rows = tuple(rows)

    @classmethod
    def from_clauses(
        cls,
        clauses: Iterable[Iterable[int]],
        labelling: Iterable[Iterable[int]] | None = None,
    ) -> "LcnfFormula":
        """Build a formula from raw literal lists and per-clause label sets.

        ``labelling`` defaults to all-unlabelled.  Use ``label`` to apply one
        of the standard labelling schemes instead.
        """
        literals = _canonical(clauses)
        if labelling is None:
            labels = [frozenset()] * len(literals)
        else:
            labels = [_as_label_set(ls) for ls in labelling]
            if len(labels) != len(literals):
                raise ValueError("labelling must assign a label set to every clause")
        return cls(zip(literals, labels))

    def __len__(self):
        return len(self.rows)

    def labels_of(self, index: int) -> frozenset:
        """The label set of the clause at ``index``."""
        if not 0 <= index < len(self.rows):
            raise ValueError(f"clause {index} is not part of this formula")
        return self.rows[index][1]

    # -- label structure ----------------------------------------------------

    @cached_property
    def active_labels(self) -> frozenset:
        """Union of the label sets of all clauses."""
        return frozenset().union(*(ls for _, ls in self.rows))

    @cached_property
    def label_bits(self) -> dict:
        """Active label -> its bit, ``1 << i`` for the i-th smallest: the one
        numbering of label masks, from the oracle to the truth tables."""
        return {l: 1 << i for i, l in enumerate(sorted(self.active_labels))}

    @cached_property
    def label_masks(self) -> tuple:
        """The label mask of each clause, in clause order."""
        bits = self.label_bits
        masks = []
        for _, labels in self.rows:
            mask = 0
            for l in labels:
                mask |= bits[l]
            masks.append(mask)
        return tuple(masks)

    def mask_of(self, labels: Iterable[int]) -> int:
        """The mask of the active labels among ``labels``; a label that is
        not active has no bit."""
        bits = self.label_bits
        mask = 0
        for l in labels:
            mask |= bits.get(int(l), 0)
        return mask

    def labels_in(self, mask: int) -> frozenset:
        """The active labels whose bits ``mask`` holds."""
        return frozenset(l for l, b in self.label_bits.items() if mask & b)

    @cached_property
    def variables(self) -> frozenset:
        return frozenset(abs(l) for lits, _ in self.rows for l in lits)

    def induced(self, labels: Iterable[int]) -> "LcnfFormula":
        """The subformula induced by a label set: the rows whose label set
        lies in ``labels``, which need not be a subset of the active labels."""
        want = frozenset(map(int, labels))
        return LcnfFormula(row for row in self.rows if row[1] <= want)

    # -- identity -----------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LcnfFormula):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        labels = ",".join(str(l) for l in sorted(self.active_labels))
        return f"LcnfFormula({len(self)} clauses, labels {{{labels}}})"


def label(formula, scheme: str = "clause") -> LcnfFormula:
    """Build a labelled formula from a plain CNF under a labelling scheme.

    Schemes:

    * ``clause``: clause i (0-based) gets the singleton label set {i + 1},
      so label subsets correspond one-to-one to clause subsets.
    * ``variable``: each clause is labelled by the set of its variables.
    * ``literal``: each clause is labelled by its literals, encoding literal
      l of variable v as label 2v when positive and 2v + 1 when negated.

    ``formula`` is an iterable of clauses, each an iterable of nonzero
    integer literals, or a labelled formula, whose clauses are labelled
    afresh from its rows.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown labelling scheme {scheme!r}")
    if isinstance(formula, LcnfFormula):
        literals = [lits for lits, _ in formula.rows]
    else:
        literals = _canonical(formula)
    if scheme == "clause":
        # clause i's label i + 1 is the i-th smallest, so its bit is 1 << i:
        # the numbering is filled in here, where the cached properties
        # would find it row by row
        labels = range(1, len(literals) + 1)
        masks = tuple([1 << i for i in range(len(literals))])
        phi = LcnfFormula(zip(literals, map(frozenset, zip(labels))))
        phi.__dict__.update(
            active_labels=frozenset(labels),
            label_bits=dict(zip(labels, masks)),
            label_masks=masks,
        )
        return phi
    if scheme == "variable":
        labelling = [frozenset(map(abs, lits)) for lits in literals]
    else:  # literal
        labelling = [frozenset(2 * abs(l) + (l < 0) for l in lits) for lits in literals]
    return LcnfFormula(zip(literals, labelling))
