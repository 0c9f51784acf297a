"""Brute-force ground truth: exhaustive classification of all label subsets.

``classify_all`` walks every subset of a formula's active labels, decides
satisfiability and equivalence of each induced subformula, and assembles the
four witness families (and their complements) from those statuses.  Since
equivalence is upward-closed over label sets and satisfiability is
downward-closed, minimality and maximality are decided against the one-label
neighbours of each subset alone.  Equivalence is decided by comparing full
model sets whenever the formula has at most 12 variables: each clause's
satisfying assignments are packed into one big integer, so a subformula's
model set is a bitwise AND and equivalence is integer equality.  This path
shares nothing with the clause-learning oracle, which is the point: the two
can check each other.  Larger formulas fall back to the entailment oracle.

The module also hosts the seeded random-formula generator used to build test
corpora.
"""
from __future__ import annotations

import os
import random
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

from .core import LcnfFormula
from .duality import SetFamily
from .errors import ResourceLimitError
from .oracle import LcnfOracle

MODEL_ENUMERATION_LIMIT = 12  # variables; beyond this, equivalence uses the oracle


@dataclass(frozen=True)
class SubsetStatus:
    satisfiable: bool
    equivalent: bool


@dataclass(frozen=True)
class GenerationProfile:
    """Shape parameters for random labelled formulas.

    Counts are upper bounds; each generated formula draws its actual sizes
    from them.  ``labelling`` is ``"free"`` for arbitrary label sets of up to
    ``clause_labels`` labels per clause, or ``"group"`` for at most one label
    per clause (a valid group-mode instance).  ``unlabelled_probability`` is
    the chance that a clause gets no labels at all.
    """

    variables: int = 5
    clauses: int = 12
    labels: int = 4
    clause_labels: int = 2
    clause_width: int = 3
    unlabelled_probability: float = 0.15
    labelling: str = "free"

    def __post_init__(self):
        if not (1 <= self.variables <= 8):
            raise ValueError("profile allows 1 to 8 variables")
        if not (1 <= self.clauses <= 20):
            raise ValueError("profile allows 1 to 20 clauses")
        if not (1 <= self.labels <= 6):
            raise ValueError("profile allows 1 to 6 labels")
        if not (0 <= self.clause_labels <= 3):
            raise ValueError("profile allows 0 to 3 labels per clause")
        if self.labelling not in ("free", "group"):
            raise ValueError("labelling is 'free' or 'group'")


def random_lcnf(seed: int, profile: GenerationProfile | None = None) -> LcnfFormula:
    """A reproducible random labelled formula for a seed and profile."""
    prof = profile or GenerationProfile()
    rng = random.Random(seed)
    num_vars = rng.randint(1, prof.variables)
    num_clauses = rng.randint(1, prof.clauses)
    pool = list(range(1, prof.labels + 1))
    clauses = []
    labelling = []
    for _ in range(num_clauses):
        width = rng.randint(1, min(prof.clause_width, num_vars))
        variables = rng.sample(range(1, num_vars + 1), width)
        clauses.append(tuple(v if rng.random() < 0.5 else -v for v in variables))
        if prof.clause_labels == 0 or rng.random() < prof.unlabelled_probability:
            labelling.append(())
        elif prof.labelling == "group":
            labelling.append((rng.choice(pool),))
        else:
            count = rng.randint(1, max(1, prof.clause_labels))
            labelling.append(tuple(rng.sample(pool, min(count, len(pool)))))
    return LcnfFormula.from_clauses(clauses, labelling)


@dataclass
class AnalysisReport:
    """Complete subset classification of one formula.

    Families are exhaustive and mutually consistent: the complement families
    are the complements of their maximal counterparts within the active
    labels.  ``classification`` maps every label subset to its status; it is
    built from ``statuses`` (one (satisfiable, equivalent) pair per bitmask
    over the sorted active labels) on first read.
    The existence flags record the corner cases: maximal non-equivalent sets
    exist unless every subformula is equivalent, maximal satisfiable sets
    exist unless the unlabelled clauses are unsatisfiable, and the minimal
    equivalent family collapses to the empty set exactly when the empty
    subformula is already equivalent.
    """

    formula: LcnfFormula
    active_labels: frozenset
    satisfiable: bool
    lmes: SetFamily
    lmus: SetFamily
    lmns: SetFamily
    lmss: SetFamily
    colmns: SetFamily
    colmss: SetFamily
    lmns_exists: bool
    lmss_exists: bool
    empty_lmes: bool
    statuses: list = field(repr=False, default_factory=list)

    @cached_property
    def classification(self) -> dict:
        active = sorted(self.active_labels)
        return {_subset(active, m): SubsetStatus(*st) for m, st in enumerate(self.statuses)}


def _subset(active, mask: int) -> frozenset:
    """The labels of ``active`` (sorted) selected by the bits of ``mask``."""
    return frozenset(l for i, l in enumerate(active) if mask >> i & 1)


def _literal_masks(variables: tuple) -> dict:
    """Per-variable masks over all assignments: bit i is assignment i."""
    masks = {}
    total_bits = 1 << len(variables)
    for position, v in enumerate(variables):
        half = 1 << position
        block = ((1 << half) - 1) << half
        period = half << 1
        m = 0
        for offset in range(0, total_bits, period):
            m |= block << offset
        masks[v] = m
    return masks


def _clause_masks(phi: LcnfFormula, variables: tuple) -> list[int]:
    lit_masks = _literal_masks(variables)
    universe = (1 << (1 << len(variables))) - 1
    out = []
    for c in phi.clauses:
        m = 0
        for l in c.literals:
            m |= lit_masks[abs(l)] if l > 0 else (universe & ~lit_masks[abs(l)])
        out.append(m)
    return out


def _classify_range(phi, active, lo, hi):
    """(satisfiable, equivalent) of subsets lo..hi-1 (bitmasks over sorted labels)."""
    variables = tuple(sorted(phi.variables))
    label_bits = []
    positions = {l: i for i, l in enumerate(active)}
    for c in phi.clauses:
        bits = 0
        for l in phi.labels_of(c):
            bits |= 1 << positions[l]
        label_bits.append(bits)

    out = []
    if len(variables) <= MODEL_ENUMERATION_LIMIT:
        universe = (1 << (1 << len(variables))) - 1
        clause_masks = _clause_masks(phi, variables)
        full = universe
        for m in clause_masks:
            full &= m
        for mask in range(lo, hi):
            models = universe
            for bits, cm in zip(label_bits, clause_masks):
                if bits & ~mask == 0:
                    models &= cm
            out.append((models != 0, models == full))
    else:
        oracle = LcnfOracle(phi)
        for mask in range(lo, hi):
            subset = _subset(active, mask)
            out.append(
                (oracle.is_sat_induced(subset), oracle.is_equivalent_subformula(subset))
            )
    return out


def classify_all(
    phi: LcnfFormula,
    max_labels: int = 16,
    *,
    max_variables: int = 24,
    jobs: int = 1,
) -> AnalysisReport:
    """Classify every label subset and assemble all witness families.

    Exhaustive over the 2^k subsets of the k active labels, so ``max_labels``
    guards against blowup (exceeding it, or ``max_variables``, raises
    ResourceLimitError).  Equivalence is upward-closed and satisfiability
    downward-closed, so a subset is minimal (maximal) in its family exactly
    when no one-label neighbour below (above) it has the family's property.
    With ``jobs`` > 1 the subsets are split into ``jobs`` ranges, classified
    by at most min(jobs, ranges, CPU count) worker processes; the result does
    not depend on ``jobs``, which must be at least 1.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    active = tuple(sorted(phi.active_labels))
    k = len(active)
    if k > max_labels:
        raise ResourceLimitError(
            f"formula has {k} labels, over the limit of {max_labels}"
        )
    if len(phi.variables) > max_variables:
        raise ResourceLimitError(
            f"formula has {len(phi.variables)} variables, over the limit of {max_variables}"
        )

    total = 1 << k
    step = -(-total // jobs)
    ranges = [(phi, active, lo, min(lo + step, total)) for lo in range(0, total, step)]
    workers = min(jobs, len(ranges), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_classify_chunk, ranges))
    else:
        chunks = map(_classify_chunk, ranges)
    statuses = [st for chunk in chunks for st in chunk]

    sat = [s for s, _ in statuses]
    equiv = [e for _, e in statuses]
    full = total - 1
    bits = [1 << i for i in range(k)]
    lmes, lmus, lmns, lmss = [], [], [], []
    for mask in range(total):
        if equiv[mask]:
            if not any(equiv[mask ^ b] for b in bits if mask & b):
                lmes.append(_subset(active, mask))
        elif all(equiv[mask | b] for b in bits if not mask & b):
            lmns.append(_subset(active, mask))
        if sat[mask]:
            if not any(sat[mask | b] for b in bits if not mask & b):
                lmss.append(_subset(active, mask))
        elif all(sat[mask ^ b] for b in bits if mask & b):
            lmus.append(_subset(active, mask))

    active_set = frozenset(active)
    lmes_f = SetFamily(lmes, active_set)
    lmus_f = SetFamily(lmus, active_set)
    lmns_f = SetFamily(lmns, active_set)
    lmss_f = SetFamily(lmss, active_set)
    return AnalysisReport(
        formula=phi,
        active_labels=active_set,
        satisfiable=sat[full],
        lmes=lmes_f,
        lmus=lmus_f,
        lmns=lmns_f,
        lmss=lmss_f,
        colmns=lmns_f.complements(),
        colmss=lmss_f.complements(),
        lmns_exists=bool(lmns),
        lmss_exists=bool(lmss),
        empty_lmes=equiv[0],
        statuses=statuses,
    )


def _classify_chunk(args):
    return _classify_range(*args)
