"""Hitting-set duality between minimal and maximal label-set families.

The complements of the maximal non-equivalent label sets of a formula are
exactly the irreducible hitting sets of its family of minimal equivalent
label sets, and vice versa; on unsatisfiable formulas the same statement
relates minimal unsatisfiable sets and complements of maximal satisfiable
ones.  This module enumerates minimal hitting sets, converts families across
the duality, and verifies the duality against ground-truth families.

A hitting set H of a family is irreducible exactly when every element of H
has a private member: some family member whose intersection with H is that
single element.  This is what ``is_irreducible_hitting_set`` checks.  For a
set that hits every member, irreducible and inclusion-minimal coincide, so
the enumeration only has to keep the inclusion-minimal hitting sets it finds.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import TYPE_CHECKING, Iterable

from .analysis import duality_obstacle, duality_preconditions
from .core import LcnfFormula
from .errors import PreconditionError, ResourceLimitError
from .oracle import LcnfOracle

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


def is_hitting_set(candidate: Iterable[int], family: SetFamily | Iterable) -> bool:
    """Whether ``candidate`` intersects every member of the family.

    Any set hits the empty family; no set hits a family containing the
    empty set.
    """
    h = frozenset(int(l) for l in candidate)
    members = family.members if isinstance(family, SetFamily) else [
        frozenset(m) for m in family
    ]
    return all(h & m for m in members)


def is_irreducible_hitting_set(candidate: Iterable[int], family: SetFamily | Iterable) -> bool:
    """Whether ``candidate`` hits the family and no proper subset does.

    Irreducibility is checked by private members: each element of the
    candidate must be the sole intersection with some family member.
    """
    h = frozenset(int(l) for l in candidate)
    members = family.members if isinstance(family, SetFamily) else [
        frozenset(m) for m in family
    ]
    if not all(h & m for m in members):
        return False
    for e in h:
        if not any(h & m == {e} for m in members):
            return False
    return True


def enumerate_minimal_hitting_sets(
    family: SetFamily | Iterable, *, limit: int = 10**6
) -> SetFamily:
    """All irreducible hitting sets of a family of finite integer sets.

    Branches on the smallest currently-unhit member (ties broken by numeric
    order), pruning any partial set that already contains a known hitting
    set.  Candidates are reduced to the inclusion-minimal ones, which are
    exactly the irreducible hitting sets.
    The empty family has the single hitting set {} and a family containing
    the empty set has none.

    Raises ResourceLimitError when more than ``limit`` candidates accumulate.
    """
    if isinstance(family, SetFamily):
        members = family.members
        universe = family.universe
    else:
        members = frozenset(frozenset(int(l) for l in m) for m in family)
        universe = frozenset().union(*members) if members else frozenset()
    ordered = sorted(members, key=lambda m: (len(m), tuple(sorted(m))))
    if any(not m for m in ordered):
        return SetFamily([], universe)

    found: list[frozenset] = []

    def descend(current: frozenset):
        if any(f <= current for f in found):
            return
        for m in ordered:
            if not current & m:
                for e in sorted(m):
                    descend(current | {e})
                return
        found.append(current)
        if len(found) > limit:
            raise ResourceLimitError(
                f"hitting set enumeration exceeded the output limit of {limit}"
            )

    descend(frozenset())
    minimal = [h for h in found if not any(o < h for o in found)]
    return SetFamily(minimal, universe)


def _gate(phi: LcnfFormula, oracle: LcnfOracle | None):
    ok, reason = duality_preconditions(phi, oracle=oracle)
    if not ok:
        raise PreconditionError(f"duality is not applicable: {reason}")


def enumerate_colmns_via_duality(
    phi: LcnfFormula,
    lmes_family: SetFamily | Iterable,
    *,
    oracle: LcnfOracle | None = None,
    limit: int = 10**6,
) -> SetFamily:
    """Complements of maximal non-equivalent sets, from the minimal family.

    Dualizes a complete family of minimal equivalence-preserving label sets.
    Gated on the duality's applicability conditions.
    """
    _gate(phi, oracle)
    hs = enumerate_minimal_hitting_sets(lmes_family, limit=limit)
    return SetFamily(hs.members, phi.active_labels)


def enumerate_lmes_via_duality(
    phi: LcnfFormula,
    colmns_family: SetFamily | Iterable,
    *,
    oracle: LcnfOracle | None = None,
    limit: int = 10**6,
) -> SetFamily:
    """Minimal equivalence-preserving sets, from the complement family.

    The inverse direction: dualizing the complements of the maximal
    non-equivalent sets recovers the minimal family.
    """
    _gate(phi, oracle)
    hs = enumerate_minimal_hitting_sets(colmns_family, limit=limit)
    return SetFamily(hs.members, phi.active_labels)


@dataclass(frozen=True)
class DualityVerdict:
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
    non-equivalent family; and the complement family is exactly the
    complements of the maximal non-equivalent family.
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
    d = colmns.members == frozenset(active - m for m in lmns.members)
    return DualityVerdict(True, None, a, b, c, d, union, inter)
