"""Hitting-set duality between minimal and maximal label-set families.

The complements of the maximal non-equivalent label sets of a formula are
exactly the irreducible hitting sets of its family of minimal equivalent
label sets, and vice versa; on unsatisfiable formulas the same statement
relates minimal unsatisfiable sets and complements of maximal satisfiable
ones.  This module enumerates minimal hitting sets and verifies the duality
against ground-truth families.

A hitting set H of a family is irreducible exactly when every element of H
has a private member: some family member whose intersection with H is that
single element.  This is what ``is_irreducible_hitting_set`` checks.  For a
set that hits every member, irreducible and inclusion-minimal coincide.  A
set whose element has lost its private member never regains one as the set
grows, so the enumeration prunes such sets at once and reaches only minimal
hitting sets.
"""
from __future__ import annotations

from functools import reduce
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .analysis import duality_obstacle
from .core import LcnfFormula
from .errors import ResourceLimitError

if TYPE_CHECKING:  # pragma: no cover
    from .bruteforce import AnalysisReport


def _canonical(sets: Iterable[frozenset]) -> list[frozenset]:
    return sorted(sets, key=lambda s: tuple(sorted(s)))


class SetFamily:
    """An unordered family of label sets over a universe.

    Equality and hashing consider the members only; iteration is in a
    canonical order (members sorted as tuples of sorted labels).
    """

    def __init__(self, members: Iterable[Iterable[int]], universe: Iterable[int] | None = None):
        self.members = frozenset(frozenset(int(l) for l in m) for m in members)
        if universe is None:
            self.universe = frozenset().union(*self.members) if self.members else frozenset()
        else:
            self.universe = frozenset(int(l) for l in universe)
        for m in self.members:
            if not m <= self.universe:
                raise ValueError(f"member {sorted(m)} is not within the universe")

    def __iter__(self):
        return iter(_canonical(self.members))

    def __len__(self):
        return len(self.members)

    def __contains__(self, labels):
        return frozenset(labels) in self.members

    def __eq__(self, other):
        if isinstance(other, SetFamily):
            return self.members == other.members
        if isinstance(other, (set, frozenset)):
            return self.members == frozenset(frozenset(m) for m in other)
        return NotImplemented

    def __hash__(self):
        return hash(self.members)

    def canonical(self) -> list[list[int]]:
        """Members as sorted lists, in canonical family order."""
        return [sorted(m) for m in self]

    def complements(self) -> "SetFamily":
        """The family of member complements within the universe."""
        return SetFamily((self.universe - m for m in self.members), self.universe)

    def __repr__(self):
        body = ", ".join("{" + " ".join(map(str, m)) + "}" for m in self.canonical())
        return f"SetFamily([{body}])"


def _as_family(family: SetFamily | Iterable) -> SetFamily:
    return family if isinstance(family, SetFamily) else SetFamily(family)


def is_irreducible_hitting_set(candidate: Iterable[int], family: SetFamily | Iterable) -> bool:
    """Whether ``candidate`` hits the family and no proper subset does.

    Irreducibility is checked by private members: each element of the
    candidate must be the sole intersection with some family member.
    """
    h = frozenset(int(l) for l in candidate)
    members = _as_family(family).members
    return all(h & m for m in members) and all(
        any(h & m == {e} for m in members) for e in h
    )


def enumerate_minimal_hitting_sets(
    family: SetFamily | Iterable, *, limit: int = 10**6
) -> SetFamily:
    """All irreducible hitting sets of a family of finite integer sets.

    An MMCS-style search (Murakami & Uno, 2014) that reaches only minimal
    sets, each once: it branches on the unhit member with the fewest
    candidates, tries them in numeric order, drops each tried one from the
    candidates of its later siblings, and prunes a partial set as soon as one
    of its elements has no private member.  The empty family has the single
    hitting set {} and a family containing the empty set has none.

    Raises ResourceLimitError when more than ``limit`` minimal sets are found,
    and ValueError when ``limit`` is negative.
    """
    if limit < 0:
        raise ValueError(f"limit must be at least 0, got {limit}")
    family = _as_family(family)
    universe = family.universe
    if frozenset() in family.members:
        return SetFamily([], universe)
    # member i is bit i of a mask; hits[e] masks the members that contain e
    members = list(family.members)
    hits = {e: sum(1 << i for i, m in enumerate(members) if e in m) for e in universe}
    found: list[frozenset] = []

    def descend(private: dict, unhit: int, candidates: frozenset):
        # private: each chosen element -> the members it alone hits (never 0)
        if not unhit:
            found.append(frozenset(private))
            if len(found) > limit:
                raise ResourceLimitError(
                    f"hitting set enumeration exceeded the output limit of {limit}"
                )
            return
        member = min(
            (m for i, m in enumerate(members) if unhit >> i & 1),
            key=lambda m: len(m & candidates),
        )
        branch = sorted(member & candidates)
        for i, e in enumerate(branch):
            kept = {f: p & ~hits[e] for f, p in private.items()}
            if all(kept.values()):
                kept[e] = unhit & hits[e]
                descend(kept, unhit & ~hits[e], candidates.difference(branch[: i + 1]))

    descend({}, (1 << len(members)) - 1, universe)
    return SetFamily(found, universe)


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
        return bool(
            self.applicable
            and self.colmns_from_lmes
            and self.lmes_from_colmns
            and self.union_intersection
            and self.complements_consistent
        )

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
    makes them equivalent.
    """
    lmes = ground_truth.lmes
    reason = duality_obstacle(
        phi, lambda: bool(reduce(frozenset.__and__, lmes.members))
    )
    if reason is not None:
        return DualityVerdict(False, reason, None, None, None, None)
    active = phi.active_labels
    lmns = ground_truth.lmns
    colmns = ground_truth.colmns

    a = enumerate_minimal_hitting_sets(lmes).members == colmns.members
    b = enumerate_minimal_hitting_sets(colmns).members == lmes.members
    union = frozenset().union(*lmes.members) if lmes.members else frozenset()
    inter = reduce(frozenset.__and__, lmns.members) if lmns.members else active
    c = union == active - inter
    d = _complements_consistent(ground_truth)
    return DualityVerdict(True, None, a, b, c, d, union, inter)


def _complements_consistent(report: "AnalysisReport") -> bool:
    """Whether every co-LMNS member complements a maximal non-equivalent set.

    Read off ``report.equivalent_statuses`` (one bool per label mask of
    the formula), not off the families, so the check never asks for the
    satisfiability statuses.
    """
    phi = report.formula
    bits = phi.label_bits
    full = phi.mask_of(phi.active_labels)
    equivalent = report.equivalent_statuses
    for member in report.colmns.members:
        mask = full ^ phi.mask_of(member)
        if equivalent[mask] or not all(equivalent[mask | bits[l]] for l in member):
            return False
    return True
