"""Labelled CNF data model.

A labelled CNF formula pairs a CNF formula (an ordered multi-set of clauses)
with a total labelling function mapping every clause to a finite set of
integer labels.  Subformulas are obtained by removing labels, never individual
clauses: the subformula induced by a label set L keeps exactly the clauses
whose labels all lie in L.  Clauses with an empty label set are unlabelled and
survive in every subformula.

The labelling generalises several classical ways of carving up a CNF formula;
``label`` builds a formula from a plain clause list under one of five schemes
(per-clause, per-group, per-variable, per-literal, or explicit label sets).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

Label = int
LabelSet = frozenset  # frozenset[int]

_SCHEMES = ("clause", "group", "variable", "literal", "explicit")


@dataclass(frozen=True)
class Clause:
    """A propositional clause: a set of nonzero integer literals.

    ``index`` is the clause's ordinal position in its formula's clause list;
    two syntactically identical clauses at different positions are distinct
    occurrences (clause lists are multi-sets).
    """

    literals: frozenset
    index: int

    def __post_init__(self):
        lits = frozenset(int(l) for l in self.literals)
        object.__setattr__(self, "literals", lits)
        for l in lits:
            if l == 0:
                raise ValueError("literal 0 is not allowed in a clause")
            if -l in lits:
                raise ValueError(
                    f"clause {self.index} contains both {abs(l)} and its negation"
                )

    @property
    def variables(self) -> frozenset:
        return frozenset(abs(l) for l in self.literals)

    def sorted_literals(self) -> tuple:
        return tuple(sorted(self.literals, key=lambda l: (abs(l), l < 0)))

    def __repr__(self):
        body = " ".join(str(l) for l in self.sorted_literals())
        return f"Clause({self.index}: {body})"


def _as_label_set(labels) -> frozenset:
    out = frozenset(int(l) for l in labels)
    for l in out:
        if l < 0:
            raise ValueError(f"labels must be nonnegative integers, got {l}")
    return out


class LcnfFormula:
    """A labelled CNF formula.

    Instances are immutable.  ``induced`` returns a view sharing the parent's
    clause storage, so clause identity (the ``index`` field) is stable across
    subformulas.
    """

    def __init__(
        self,
        clauses: Sequence[Clause],
        labelling: Sequence[frozenset],
        *,
        _indices: tuple | None = None,
    ):
        if len(clauses) != len(labelling):
            raise ValueError("labelling must assign a label set to every clause")
        self._all_clauses = tuple(clauses)
        self._all_labels = tuple(labelling)
        if _indices is None:
            _indices = tuple(range(len(self._all_clauses)))
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
        clause_objs = [Clause(frozenset(c), i) for i, c in enumerate(clauses)]
        if labelling is None:
            labels = [frozenset()] * len(clause_objs)
        else:
            labels = [_as_label_set(ls) for ls in labelling]
        return cls(clause_objs, labels)

    # -- clause access ------------------------------------------------------

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
        if isinstance(clause, Clause) and clause.literals != self._all_clauses[index].literals:
            raise ValueError(f"clause {index} does not match this formula's clause")
        return self._all_labels[index]

    @cached_property
    def _index_set(self) -> frozenset:
        return frozenset(self._indices)

    # -- label structure ----------------------------------------------------

    @cached_property
    def active_labels(self) -> frozenset:
        """Union of the label sets of all surviving clauses."""
        out = set()
        for i in self._indices:
            out.update(self._all_labels[i])
        return frozenset(out)

    @property
    def unlabelled_clauses(self) -> tuple:
        """Clauses with an empty label set; they survive in every subformula."""
        return tuple(
            self._all_clauses[i] for i in self._indices if not self._all_labels[i]
        )

    def clauses_with_label(self, label: int) -> tuple:
        """Clauses whose label set contains ``label``."""
        return tuple(
            self._all_clauses[i]
            for i in self._indices
            if label in self._all_labels[i]
        )

    @cached_property
    def variables(self) -> frozenset:
        out = set()
        for i in self._indices:
            out.update(abs(l) for l in self._all_clauses[i].literals)
        return frozenset(out)

    def cnf(self) -> tuple:
        """The CNF part: surviving clauses as frozensets of literals."""
        return tuple(self._all_clauses[i].literals for i in self._indices)

    # -- subformulas --------------------------------------------------------

    def induced(self, labels: Iterable[int]) -> "LcnfFormula":
        """The subformula induced by a label set.

        Keeps exactly the surviving clauses whose label set is contained in
        ``labels``; unlabelled clauses always survive.  ``labels`` need not be
        a subset of the active labels.
        """
        want = frozenset(int(l) for l in labels)
        kept = tuple(i for i in self._indices if self._all_labels[i] <= want)
        return LcnfFormula(self._all_clauses, self._all_labels, _indices=kept)

    # -- identity -----------------------------------------------------------

    def _content(self) -> tuple:
        return tuple(
            (self._all_clauses[i].literals, self._all_labels[i])
            for i in self._indices
        )

    def __eq__(self, other):
        if not isinstance(other, LcnfFormula):
            return NotImplemented
        return self._content() == other._content()

    def __hash__(self):
        return hash(self._content())

    def __repr__(self):
        labels = ",".join(str(l) for l in sorted(self.active_labels))
        return f"LcnfFormula({len(self)} clauses, labels {{{labels}}})"


def is_subformula(candidate: LcnfFormula, phi: LcnfFormula) -> bool:
    """Whether ``candidate`` is a label-induced subformula of ``phi``.

    True exactly when ``candidate`` equals ``phi`` induced by some label set,
    with the same labelling on the common clauses.  A formula obtained by
    deleting individual clauses (rather than whole labels) is not a
    subformula.
    """
    return candidate == phi.induced(candidate.active_labels)


def label(
    formula,
    scheme: str = "clause",
    *,
    labels: Iterable[Iterable[int]] | None = None,
) -> LcnfFormula:
    """Build a labelled formula from a plain CNF under a labelling scheme.

    Schemes:

    * ``clause``: clause i (0-based) gets the singleton label set {i + 1},
      so label subsets correspond one-to-one to clause subsets.
    * ``group``: ``formula`` must be a partition, a sequence of clause groups
      with group 0 first.  Clauses of group 0 are unlabelled; clauses of
      group i get {i}.
    * ``variable``: each clause is labelled by the set of its variables.
    * ``literal``: each clause is labelled by its literals, encoding literal
      l of variable v as label 2v when positive and 2v + 1 when negated.
    * ``explicit``: per-clause label sets are taken from ``labels``.

    Except under ``group``, ``formula`` is an iterable of clauses, each an
    iterable of nonzero integer literals.
    """
    if scheme not in _SCHEMES:
        raise ValueError(f"unknown labelling scheme {scheme!r}")

    if scheme == "group":
        groups = [list(g) for g in formula]
        if not groups:
            raise ValueError("group labelling requires a partition with group 0")
        clauses = []
        labelling = []
        for gi, group in enumerate(groups):
            for c in group:
                clauses.append(c)
                labelling.append(() if gi == 0 else (gi,))
        return LcnfFormula.from_clauses(clauses, labelling)

    clauses = [tuple(c) for c in formula]
    if scheme == "clause":
        labelling = [(i + 1,) for i in range(len(clauses))]
    elif scheme == "variable":
        labelling = [sorted({abs(l) for l in c}) for c in clauses]
    elif scheme == "literal":
        labelling = [
            sorted({2 * abs(l) + (1 if l < 0 else 0) for l in c}) for c in clauses
        ]
    else:  # explicit
        if labels is None:
            raise ValueError("explicit labelling requires per-clause label sets")
        labelling = [tuple(ls) for ls in labels]
        if len(labelling) != len(clauses):
            raise ValueError(
                f"explicit labelling has {len(labelling)} entries "
                f"for {len(clauses)} clauses"
            )
    return LcnfFormula.from_clauses(clauses, labelling)
