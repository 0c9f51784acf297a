"""Hitting-set duality between minimal and maximal label-set families.

The complements of the maximal non-equivalent label sets of a formula are
exactly the irreducible hitting sets of its family of minimal equivalent
label sets, and vice versa; on unsatisfiable formulas the same statement
relates minimal unsatisfiable sets and complements of maximal satisfiable
ones.  This module enumerates minimal hitting sets and verifies the duality
against ground-truth families.

A hitting set H of a family is irreducible exactly when every element of H
has a private member: some family member whose intersection with H is that
single element.  For a set that hits every member, irreducible and
inclusion-minimal coincide.  A set whose element has lost its private member
never regains one as the set grows, so the enumeration prunes such sets at
once and reaches only minimal hitting sets.  It is an MMCS search over ints:
a family (``SetFamily``) is a list of label masks, and stays one through
dualization and comparison until the API or the CLI reads its label sets.
"""
from __future__ import annotations

from functools import cached_property, reduce
from operator import and_, or_
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .analysis import duality_obstacle
from .core import LcnfFormula
from .errors import ResourceLimitError

if TYPE_CHECKING:  # pragma: no cover
    from .bruteforce import AnalysisReport


class SetFamily:
    """An unordered family of label sets over a universe.

    The members are distinct int masks, ``masks``, over ``labels``, the
    sorted universe: bit i is the i-th smallest label, as in the formula's
    ``label_bits``.  ``from_masks`` makes a family of masks as they are,
    and ``members``, one frozenset per member, is built only when first
    read.  Equality and hashing consider the members only; iteration is in
    a canonical order (members sorted as tuples of sorted labels).
    """

    def __init__(self, members: Iterable[Iterable[int]], universe: Iterable[int] | None = None):
        self.members = frozenset(frozenset(int(l) for l in m) for m in members)
        if universe is None:
            universe = frozenset().union(*self.members)
        else:
            universe = frozenset(int(l) for l in universe)
        for m in self.members:
            if not m <= universe:
                raise ValueError(f"member {sorted(m)} is not within the universe")
        self.labels = tuple(sorted(universe))
        bits = {l: 1 << i for i, l in enumerate(self.labels)}
        self.masks = [sum(bits[l] for l in m) for m in self.members]

    @classmethod
    def from_masks(cls, masks: list, labels: tuple) -> "SetFamily":
        """The family of the distinct ``masks`` over the sorted ``labels``."""
        family = cls.__new__(cls)
        family.masks, family.labels = masks, labels
        return family

    universe = property(lambda self: frozenset(self.labels))
    members = cached_property(lambda self: frozenset(map(frozenset, self.canonical())))

    def __iter__(self):
        return map(frozenset, self.canonical())

    def __len__(self):
        return len(self.masks)

    def __contains__(self, labels):
        return frozenset(labels) in self.members

    def __eq__(self, other):
        if isinstance(other, SetFamily):
            if self.labels == other.labels:
                return set(self.masks) == set(other.masks)
            return self.members == other.members
        if isinstance(other, (set, frozenset)):
            return self.members == frozenset(frozenset(m) for m in other)
        return NotImplemented

    def __hash__(self):
        return hash(self.members)

    def canonical(self) -> list[list[int]]:
        """Members as sorted lists, in canonical family order."""
        labels = self.labels
        return sorted([l for i, l in enumerate(labels) if m >> i & 1] for m in self.masks)

    def complements(self) -> "SetFamily":
        """The family of member complements within the universe."""
        full = (1 << len(self.labels)) - 1
        return SetFamily.from_masks([full ^ m for m in self.masks], self.labels)

    def __repr__(self):
        body = ", ".join("{" + " ".join(map(str, m)) + "}" for m in self.canonical())
        return f"SetFamily([{body}])"


def enumerate_minimal_hitting_sets(
    family: SetFamily | Iterable, *, limit: int = 10**6
) -> SetFamily:
    """All irreducible hitting sets of a family of finite integer sets.

    An MMCS search (Murakami & Uno, 2014) over int masks that reaches only
    minimal sets, each once: it branches on the unhit member with the
    fewest candidates, tries them in numeric order, drops each tried one
    from the candidates of its later siblings, and prunes a partial set as
    soon as one of its elements has no private member.  Sets are masks
    over the family's ``labels``, and sets of members are masks over the
    members.  The empty family has the single hitting set {} and a family
    containing the empty set has none.

    Raises ResourceLimitError when more than ``limit`` minimal sets are found,
    and ValueError when ``limit`` is negative.
    """
    if limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    if not isinstance(family, SetFamily):
        family = SetFamily(family)
    members, k = family.masks, len(family.labels)
    if 0 in members:
        return SetFamily.from_masks([], family.labels)
    # element bit e -> the members holding it, member i as bit i
    hits = [sum(1 << i for i, m in enumerate(members) if m >> e & 1) for e in range(k)]
    found: list[int] = []

    def descend(chosen: int, private: list, unhit: int, candidates: int):
        # private: per chosen element, the members it alone hits (never 0)
        if not unhit:
            found.append(chosen)
            if len(found) > limit:
                raise ResourceLimitError(
                    f"hitting set enumeration exceeded the output limit of {limit}"
                )
            return
        branch = min(
            (m & candidates for i, m in enumerate(members) if unhit >> i & 1),
            key=int.bit_count,
        )
        while branch:
            e = branch & -branch
            branch ^= e
            candidates ^= e
            h = hits[e.bit_length() - 1]
            kept = [p & ~h for p in private]
            if all(kept):
                descend(chosen | e, [*kept, unhit & h], unhit & ~h, candidates)

    descend(0, [], (1 << len(members)) - 1, (1 << k) - 1)
    return SetFamily.from_masks(found, family.labels)


class DualityVerdict(NamedTuple):
    """Outcome of checking the duality on one formula.

    When the applicability conditions fail, ``applicable`` is False and the
    four check fields are None; that is not a failure of the duality.
    """

    applicable: bool
    reason: str | None
    colmns_from_lmes: bool | None
    lmes_from_colmns: bool | None
    union_intersection: bool | None
    complements_consistent: bool | None
    lmes_union: frozenset | None = None
    lmns_intersection: frozenset | None = None

    @property
    def passed(self) -> bool:
        return bool(self.applicable and all(self.checks().values()))

    def checks(self) -> dict:
        return {
            "colmns_from_lmes": self.colmns_from_lmes,
            "lmes_from_colmns": self.lmes_from_colmns,
            "union_intersection": self.union_intersection,
            "complements_consistent": self.complements_consistent,
        }


def verify_duality(phi: LcnfFormula, ground_truth: "AnalysisReport") -> DualityVerdict:
    """Check both duality directions against brute-force families.

    Applicability is read from the families: a label is irredundant exactly
    when it lies in every minimal equivalent set, so some label is
    irredundant iff the minimal family has a non-empty intersection.

    Four checks: dualizing the minimal family yields the complement family;
    dualizing back recovers the minimal family; the union of the minimal
    family equals the active labels minus the intersection of the maximal
    non-equivalent family; and each member C of the complement family is
    read against the per-subset statuses, which must say that the active
    labels minus C are not equivalent while adding back any one label of C
    makes them equivalent.  All of it reads label masks until the verdict
    names the union and the intersection.
    """
    full = (1 << len(phi.label_bits)) - 1
    lmes = ground_truth.lmes
    reason = duality_obstacle(phi, lambda: reduce(and_, lmes.masks, full) != 0)
    if reason is not None:
        return DualityVerdict(False, reason, None, None, None, None)
    lmns = ground_truth.lmns
    colmns = ground_truth.colmns

    a = enumerate_minimal_hitting_sets(lmes) == colmns
    b = enumerate_minimal_hitting_sets(colmns) == lmes
    union = reduce(or_, lmes.masks, 0)
    inter = reduce(and_, lmns.masks, full)
    c = union == full ^ inter
    d = _complements_consistent(ground_truth)
    return DualityVerdict(True, None, a, b, c, d, phi.labels_in(union), phi.labels_in(inter))


def _complements_consistent(report: "AnalysisReport") -> bool:
    """Whether every co-LMNS member complements a maximal non-equivalent set.

    Read off ``report.equivalent_bits`` (bit m: is label mask m of the
    formula equivalent), not off the families, so the check never asks
    for the satisfiability statuses.
    """
    k = len(report.formula.label_bits)
    full = (1 << k) - 1
    eq = report.equivalent_bits
    return all(
        not eq >> (full ^ c) & 1
        and all(eq >> ((full ^ c) | 1 << b) & 1 for b in range(k) if c >> b & 1)
        for c in report.colmns.masks
    )
