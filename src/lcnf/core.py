"""Labelled CNF data model.

A labelled CNF formula pairs a CNF formula (an ordered multi-set of clauses)
with a total labelling function mapping every clause to a finite set of
integer labels.  Subformulas are obtained by removing labels, never individual
clauses: the subformula induced by a label set L keeps exactly the clauses
whose labels all lie in L.  Clauses with an empty label set are unlabelled and
survive in every subformula.

A formula stores one row per clause: its literals as a tuple, distinct and
in the canonical order of ``sort_literals`` (by variable, the positive one
first), and its labels as a frozenset.  A clause is checked once, when its
row is made (literal 0, a complementary pair, a negative label); the
oracle, the truth tables and ``label`` read rows as they are.

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
from operator import neg
from typing import Iterable, NamedTuple

Label = int
LabelSet = frozenset  # frozenset[int]

_SCHEMES = ("clause", "variable", "literal")


def sort_literals(literals: Iterable[int]) -> tuple:
    """``literals`` in the canonical order: by variable, the positive one first."""
    # descending puts l before -l, and the stable sort by variable keeps that
    return tuple(sorted(sorted(literals, reverse=True), key=abs))


def _checked_literals(literals: Iterable[int], index: int) -> frozenset:
    """The literals of clause ``index`` as a set of ints; ValueError for a
    literal 0 or a complementary pair."""
    lits = frozenset(map(int, literals))
    if 0 in lits:
        raise ValueError("literal 0 is not allowed in a clause")
    if not lits.isdisjoint(map(neg, lits)):
        v = next(abs(l) for l in lits if -l in lits)
        raise ValueError(f"clause {index} contains both {v} and its negation")
    return lits


# a NamedTuple body cannot define __new__, so a subclass checks the fields
class _ClauseFields(NamedTuple):
    literals: frozenset
    index: int


class Clause(_ClauseFields):
    """A propositional clause: a set of nonzero integer literals.

    ``index`` is the clause's ordinal position in its formula's clause list;
    two syntactically identical clauses at different positions are distinct
    occurrences (clause lists are multi-sets).
    """

    __slots__ = ()

    def __new__(cls, literals: Iterable[int], index: int):
        return tuple.__new__(cls, (_checked_literals(literals, index), index))

    @classmethod
    def _of_row(cls, literals: tuple, index: int) -> "Clause":
        """The clause of a formula row's literals, which are already checked."""
        return tuple.__new__(cls, (frozenset(literals), index))

    @property
    def variables(self) -> frozenset:
        return frozenset(abs(l) for l in self.literals)

    def sorted_literals(self) -> tuple:
        return sort_literals(self.literals)

    def __repr__(self):
        body = " ".join(str(l) for l in self.sorted_literals())
        return f"Clause({self.index}: {body})"


def _canonical(clauses: Iterable[Iterable[int]]) -> list[tuple]:
    """The sorted literal tuple of each clause, checked."""
    return [sort_literals(_checked_literals(c, i)) for i, c in enumerate(clauses)]


def _as_label_set(labels) -> frozenset:
    out = frozenset(int(l) for l in labels)
    for l in out:
        if l < 0:
            raise ValueError(f"labels must be nonnegative integers, got {l}")
    return out


class LcnfFormula:
    """A labelled CNF formula.

    It keeps the rows of its clauses (see the module docstring), and makes
    ``Clause`` objects from them when first asked for.

    Instances are immutable.  ``induced`` returns a view sharing the parent's
    rows, so clause identity (the ``index`` field) is stable across
    subformulas.
    """

    def __init__(self, rows: Iterable[tuple], *, _indices: tuple | None = None):
        """A formula of checked ``(sorted literal tuple, label frozenset)``
        rows; build one from unchecked input with ``from_clauses``."""
        self._all_rows = tuple(rows)
        if _indices is None:
            _indices = tuple(range(len(self._all_rows)))
        self._indices = _indices

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

    # -- clause access ------------------------------------------------------

    @cached_property
    def rows(self) -> tuple:
        """``(sorted literal tuple, label frozenset)`` per surviving clause,
        in original order."""
        rows = self._all_rows
        if len(self._indices) == len(rows):
            return rows
        return tuple(rows[i] for i in self._indices)

    @cached_property
    def _all_clauses(self) -> tuple:
        return tuple(Clause._of_row(lits, i) for i, (lits, _) in enumerate(self._all_rows))

    @property
    def clauses(self) -> tuple:
        """Surviving clauses, in original order."""
        return tuple(self._all_clauses[i] for i in self._indices)

    def __iter__(self):
        return iter(self.clauses)

    def __len__(self):
        return len(self._indices)

    def labels_of(self, clause) -> frozenset:
        """Label set of a clause (accepts a ``Clause`` or its index)."""
        index = clause.index if isinstance(clause, Clause) else int(clause)
        if index not in self._index_set:
            raise ValueError(f"clause {index} is not part of this formula")
        literals, labels = self._all_rows[index]
        if isinstance(clause, Clause) and clause.literals != frozenset(literals):
            raise ValueError(f"clause {index} does not match this formula's clause")
        return labels

    @cached_property
    def _index_set(self) -> frozenset:
        return frozenset(self._indices)

    # -- label structure ----------------------------------------------------

    @cached_property
    def active_labels(self) -> frozenset:
        """Union of the label sets of all surviving clauses."""
        return frozenset().union(*(ls for _, ls in self.rows))

    @cached_property
    def label_bits(self) -> dict:
        """Active label -> its bit, ``1 << i`` for the i-th smallest: the one
        numbering of label masks, from the oracle to the truth tables."""
        return {l: 1 << i for i, l in enumerate(sorted(self.active_labels))}

    @cached_property
    def label_masks(self) -> tuple:
        """The label mask of each surviving clause, in original order."""
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

    @property
    def unlabelled_clauses(self) -> tuple:
        """Clauses with an empty label set; they survive in every subformula."""
        return tuple(c for c, (_, ls) in zip(self.clauses, self.rows) if not ls)

    @cached_property
    def variables(self) -> frozenset:
        return frozenset(abs(l) for lits, _ in self.rows for l in lits)

    def cnf(self) -> tuple:
        """The CNF part: surviving clauses as frozensets of literals."""
        return tuple(c.literals for c in self.clauses)

    # -- subformulas --------------------------------------------------------

    def induced(self, labels: Iterable[int]) -> "LcnfFormula":
        """The subformula induced by a label set.

        Keeps exactly the surviving clauses whose label set is contained in
        ``labels``; unlabelled clauses always survive.  ``labels`` need not be
        a subset of the active labels.
        """
        want = frozenset(int(l) for l in labels)
        rows = self._all_rows
        kept = tuple(i for i in self._indices if rows[i][1] <= want)
        return LcnfFormula(rows, _indices=kept)

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
        labelling = [frozenset((i + 1,)) for i in range(len(literals))]
    elif scheme == "variable":
        labelling = [frozenset(map(abs, lits)) for lits in literals]
    else:  # literal
        labelling = [frozenset(2 * abs(l) + (l < 0) for l in lits) for lits in literals]
    return LcnfFormula(zip(literals, labelling))
