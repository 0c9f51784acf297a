"""Brute-force ground truth: exhaustive classification of all label subsets.

``classify_all`` decides, for every subset of a formula's k active labels,
whether the induced subformula is satisfiable and whether it is equivalent
to the whole.  The report keeps each status kind as one packed 2^k-bit int,
bit m for label mask m (``LcnfFormula.label_bits``), and builds each witness
family from one of them when the family is first read, by one rule: the four
families are the minimal or maximal label sets on which one status has one
value.  Since equivalence is upward-closed over label sets and
satisfiability is downward-closed, minimality and maximality are decided
against the one-label neighbours of each subset alone, for all subsets at
once: each label's neighbours are one shift of the packed int, masked by
the subsets that hold (or lack) that label.  A family stays a list of label
masks (``SetFamily.from_masks``) until the API or the CLI reads its sets.

Whenever the formula has at most 12 variables, the statuses come from truth
tables: each clause's satisfying assignments are packed into one big
integer, so a subformula's model set is a bitwise AND and equivalence is
integer equality (``_classify_truth_tables``).  This path shares nothing
with the clause-learning oracle, which is the point: the two can check each
other.  The tables write the equivalence statuses as digits into a
``bytearray`` and pack it once.  Larger formulas go to one oracle, in one
pass per status kind, run only when a reader of the report first asks for
that kind (``_closure_pass``).  Both kinds are one question: a subformula
is unsatisfiable iff it entails the empty clause, and equivalent iff it
entails every clause it drops, so one loop decides both.  It keeps what
it has decided as packed ints too, and each oracle answer decides a whole
down- or up-set of masks at once: a model every mask whose subformula it
satisfies, a core every mask that holds it.

The module also hosts the seeded random-formula generator used to build test
corpora.
"""
from __future__ import annotations

import random
from functools import cache, cached_property, reduce
from itertools import repeat
from operator import and_
from typing import NamedTuple

from .core import LcnfFormula
from .duality import SetFamily
from .errors import ResourceLimitError
from .oracle import LcnfOracle

MODEL_ENUMERATION_LIMIT = 12  # variables; beyond this, statuses come from the oracle
TRUTH_TABLE_CHUNK = 1 << 10  # masks per transform chunk, rounded down to a power of two
MAX_VARIABLES = 24  # classify_all refuses formulas with more variables
MAX_LABELS = 24  # classify_all refuses more labels, whatever max_labels says
DEFAULT_MAX_LABELS = 16  # classify_all refuses more labels unless told otherwise


class SubsetStatus(NamedTuple):
    satisfiable: bool
    equivalent: bool


# a NamedTuple body cannot define __new__, so a subclass checks the fields
class _ProfileFields(NamedTuple):
    variables: int
    clauses: int
    labels: int
    clause_labels: int
    clause_width: int
    unlabelled_probability: float
    labelling: str


class GenerationProfile(_ProfileFields):
    """Shape parameters for random labelled formulas.

    Counts are upper bounds; each generated formula draws its actual sizes
    from them.  ``labelling`` is ``"free"`` for arbitrary label sets of up to
    ``clause_labels`` labels per clause, or ``"group"`` for at most one label
    per clause (a valid group-mode instance).  ``unlabelled_probability`` is
    the chance that a clause gets no labels at all.
    """

    __slots__ = ()

    def __new__(
        cls,
        variables: int = 5,
        clauses: int = 12,
        labels: int = 4,
        clause_labels: int = 2,
        clause_width: int = 3,
        unlabelled_probability: float = 0.15,
        labelling: str = "free",
    ):
        if not (1 <= variables <= 8):
            raise ValueError("profile allows 1 to 8 variables")
        if not (1 <= clauses <= 20):
            raise ValueError("profile allows 1 to 20 clauses")
        if not (1 <= labels <= 6):
            raise ValueError("profile allows 1 to 6 labels")
        if not (0 <= clause_labels <= 3):
            raise ValueError("profile allows 0 to 3 labels per clause")
        if clause_width < 1:
            raise ValueError("profile needs a clause width of at least 1")
        if not (0 <= unlabelled_probability <= 1):
            raise ValueError("unlabelled probability lies in [0, 1]")
        if labelling not in ("free", "group"):
            raise ValueError("labelling is 'free' or 'group'")
        return tuple.__new__(cls, (
            variables, clauses, labels, clause_labels,
            clause_width, unlabelled_probability, labelling,
        ))


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


# family -> (packed statuses, wanted value, minimal): the members are the
# label sets whose status has the wanted value while no one-label neighbour
# below (minimal) or above (maximal) has it.  Equivalence is upward-closed
# and satisfiability downward-closed, so the neighbours decide.
_FAMILIES = {
    "lmes": ("equivalent_bits", True, True),
    "lmus": ("sat_bits", False, True),
    "lmns": ("equivalent_bits", False, False),
    "lmss": ("sat_bits", True, False),
}


class AnalysisReport:
    """Complete subset classification of one formula.

    ``sat_bits`` and ``equivalent_bits`` pack the statuses of the 2^k label
    masks of the formula (``LcnfFormula.label_bits``) into one int each:
    bit m says whether mask m's subformula is satisfiable, or equivalent to
    the whole.  LMUS, LMSS, co-LMSS and ``satisfiable`` read only the
    first; LMES, LMNS, co-LMNS and ``empty_lmes`` only the second;
    ``classification`` (label subset -> status) both.  The truth tables
    give both at once (as ``tables``); on the oracle path each is made by
    its own pass on the shared ``oracle`` when first read
    (``_closure_pass``), so a command pays only for the kind it reads.
    Under an unsatisfiable whole a mask is equivalent iff it is
    unsatisfiable, so a pass that ends on the empty-clause test there
    gives both kinds, and both are kept: the second read makes no solve.
    A satisfiability read after any equivalence pass makes at most one:
    a satisfiable whole makes every mask satisfiable, and under an
    unsatisfiable one satisfiability is the complement of equivalence.
    Each family is a ``SetFamily`` of masks, which makes label sets only
    when they are read.  Everything else is also built when first read.
    Maximal non-equivalent sets exist unless every subformula is
    equivalent, maximal satisfiable sets unless the unlabelled clauses are
    unsatisfiable; ``empty_lmes`` says the empty subformula is already
    equivalent, so the minimal family is {}.
    """

    def __init__(self, formula: LcnfFormula, tables: tuple | None = None):
        self.formula = formula
        if tables is not None:  # (sat_bits, equivalent_bits)
            self.sat_bits, self.equivalent_bits = tables

    active_labels = property(lambda self: self.formula.active_labels)
    oracle = cached_property(lambda self: LcnfOracle(self.formula))

    def _passed(self, name: str) -> int:
        equivalent = self.__dict__.get("equivalent_bits")
        if name == "sat_bits" and equivalent is not None:
            # a satisfiable whole makes every mask satisfiable; under an
            # unsatisfiable one a mask is satisfiable iff it is not equivalent
            k = len(self.active_labels)
            everything = (1 << (1 << k)) - 1
            if self.oracle.is_sat_induced((1 << k) - 1):
                return everything
            return everything ^ equivalent
        # a pass may decide both kinds, and each it decides is kept
        self.__dict__.update(_closure_pass(self.oracle, name == "equivalent_bits"))
        return self.__dict__[name]

    sat_bits = cached_property(lambda self: self._passed("sat_bits"))
    equivalent_bits = cached_property(lambda self: self._passed("equivalent_bits"))

    def _extremal(self, name: str) -> SetFamily:
        statuses, wanted, minimal = _FAMILIES[name]
        k = len(self.formula.label_bits)
        has = getattr(self, statuses)  # bit m: mask m's status has the wanted value
        if not wanted:
            has ^= (1 << (1 << k)) - 1
        blocked = 0  # the masks with a wanted one-label neighbour below or above
        for b, pattern in enumerate(_label_patterns(k)):
            if minimal:
                blocked |= has << (1 << b) & pattern
            else:
                blocked |= has >> (1 << b) & ~pattern
        return SetFamily.from_masks(_set_bits(has & ~blocked), tuple(self.formula.label_bits))

    lmes = cached_property(lambda self: self._extremal("lmes"))
    lmus = cached_property(lambda self: self._extremal("lmus"))
    lmns = cached_property(lambda self: self._extremal("lmns"))
    lmss = cached_property(lambda self: self._extremal("lmss"))
    colmns = cached_property(lambda self: self.lmns.complements())
    colmss = cached_property(lambda self: self.lmss.complements())
    # the full mask's bit is the top one of 2^k
    satisfiable = property(lambda self: self.sat_bits.bit_length() == 1 << len(self.active_labels))
    empty_lmes = property(lambda self: bool(self.equivalent_bits & 1))
    lmns_exists = property(lambda self: bool(self.lmns))
    lmss_exists = property(lambda self: bool(self.lmss))

    @cached_property
    def classification(self) -> dict:
        width = f"0{1 << len(self.active_labels)}b"
        sat, equivalent = (format(b, width)[::-1] for b in (self.sat_bits, self.equivalent_bits))
        return {
            self.formula.labels_in(m): SubsetStatus(s == "1", e == "1")
            for m, (s, e) in enumerate(zip(sat, equivalent))
        }


_ONE = ord("1")  # a true status, as the digit it is written in before packing


def _packed(digits: bytearray) -> int:
    """The int whose bit m is ``digits[m]``, an ASCII "0" or "1"."""
    return int(digits[::-1], 2)


@cache
def _label_patterns(k: int) -> tuple:
    """Per bit b < ``k``, the 2^k-bit int whose bit m is bit b of m.

    Read as truth tables over k variables, pattern b is the set of
    assignments that make variable b true.  At most one entry per k is
    built, about 2^k * k / 8 bytes each.
    """
    patterns = []
    for b in range(k):
        half = 1 << b
        pattern = ((1 << half) - 1) << half  # a run of 2^b zeros, then 2^b ones
        # repeat it by doubling, linear in 2^k; CPython divides 2^k-bit ints
        # in quadratic time
        width = half << 1
        while width < 1 << k:
            pattern |= pattern << width
            width <<= 1
        patterns.append(pattern)
    return tuple(patterns)


def _set_bits(bits: int) -> list:
    """The positions of the set bits of ``bits``, ascending."""
    digits = format(bits, "b")[::-1]
    out = []
    m = digits.find("1")
    while m >= 0:
        out.append(m)
        m = digits.find("1", m + 1)
    return out


def _clause_masks(phi: LcnfFormula, variables: tuple) -> list[int]:
    # per variable, the assignments (bit i is assignment i) that make it true
    lit_masks = dict(zip(variables, _label_patterns(len(variables))))
    universe = (1 << (1 << len(variables))) - 1
    out = []
    for lits, _ in phi.rows:
        m = 0
        for l in lits:
            m |= lit_masks[abs(l)] if l > 0 else (universe & ~lit_masks[abs(l)])
        out.append(m)
    return out


def _subset_ands(base, groups, bits):
    """Per mask L below 2^``bits``: ``base`` ANDed with every group inside L.

    ``groups`` holds (nonzero label mask, model set) pairs over those bits.
    The table doubles once per bit t.  The masks whose top bit is t are the
    table built so far, ANDed with ``own`` (``base`` and the groups whose
    mask is bit t alone) and with the groups whose top bit is t that hold
    more: their bits below t recur, with ``own`` as the base.  A bit that
    tops no group copies the table.
    """
    tops = [[] for _ in range(bits)]
    for mask, models in groups:
        tops[mask.bit_length() - 1].append((mask, models))
    table = [base]
    for t, with_top in enumerate(tops):
        if not with_top:
            table += table
            continue
        own = base
        rest = []
        for mask, models in with_top:
            if mask == 1 << t:
                own &= models
            else:
                rest.append((mask ^ 1 << t, models))
        upper = _subset_ands(own, rest, t) if rest else repeat(own, 1 << t)
        table += map(and_, table, upper)  # upper's 2^t entries: map reads the old table
    return table


def _classify_truth_tables(phi):
    """Both packed statuses of every subset, by a sparse subset-AND transform.

    Clauses with the same label mask (``LcnfFormula.label_masks``) are
    merged into one group, their model sets ANDed.  Each one-label-smaller
    whole is one AND over the groups.  A label whose removal changes the
    whole's models (an irredundant label, in every LMES, and in every LMUS
    when the whole is unsatisfiable) fixes every mask without it: that mask
    lies under the smaller whole, so it is not equivalent, and it is
    satisfiable, since the smaller whole has models when the whole has
    (fewer clauses) and when the whole has none (it differs).  The
    transform runs only over the supersets of the fixed labels, renumbered
    onto the free label bits and walked in aligned chunks of
    ``TRUTH_TABLE_CHUNK`` masks.  In the chunk whose high free bits are H,
    the groups whose high free bits lie inside H take part: those with no
    low free bits make the base, and ``_subset_ands`` builds from the
    others the model set of every subset H + L, whose equivalence is
    written back to its own mask.  A subset of a satisfiable whole is
    satisfiable; under an unsatisfiable whole, a subset is equivalent iff
    it is unsatisfiable.
    """
    variables = tuple(sorted(phi.variables))
    k = len(phi.label_bits)
    universe = (1 << (1 << len(variables))) - 1
    groups = {}
    full = universe
    for mask, models in zip(phi.label_masks, _clause_masks(phi, variables)):
        groups[mask] = groups.get(mask, universe) & models
        full &= models
    fixed = 0
    for b in range(k):
        smaller = universe
        for mask, models in groups.items():
            if not mask >> b & 1:
                smaller &= models
        if smaller != full:
            fixed |= 1 << b
    free = [b for b in range(k) if not fixed >> b & 1]
    renumbered = {}  # free-bit mask -> the models of every group it stands for
    for mask, models in groups.items():
        r = sum(1 << i for i, b in enumerate(free) if mask >> b & 1)
        renumbered[r] = renumbered.get(r, universe) & models
    bits = min(len(free), TRUTH_TABLE_CHUNK.bit_length() - 1)
    low = (1 << bits) - 1
    spread = [0]  # the label mask of each low free-bit mask
    for b in free[:bits]:
        spread += [m | 1 << b for m in spread]
    digits = bytearray(b"0") * (1 << k)  # the equivalence statuses, packed once
    for high in range(0, 1 << len(free), low + 1):
        base = universe
        lows = []
        for mask, models in renumbered.items():
            if mask & ~(high | low) == 0:
                if mask & low:
                    lows.append((mask & low, models))
                else:
                    base &= models
        table = _subset_ands(base, lows, bits)
        offset = fixed | sum(1 << b for i, b in enumerate(free) if high >> i & 1)
        for m, models in zip(spread, table):
            if models == full:
                digits[offset | m] = _ONE
    equivalent = _packed(digits)
    everything = (1 << (1 << k)) - 1
    return (everything if full else everything ^ equivalent), equivalent


def _closure_pass(oracle, equivalence: bool) -> dict:
    """The packed statuses that ``oracle``'s answers and their closures
    decide, by ``AnalysisReport`` attribute name.

    The decided statuses are packed 2^k-bit ints, bit m for mask m.  Up(K),
    the masks that contain K, is the AND of K's ``_label_patterns``.  The
    pass keeps a list of tests, one per clause, each with a term: the masks
    known to entail the clause or to hold it.  Both kinds of status are an
    AND of terms.  Equivalence is the AND, over the labelled rows i, of
    Up(row i's mask) | U_i, where U_i holds the masks whose subformula
    entails row i; U_i is upward-closed and starts as the Up(K) of row i's
    subsumers (``LcnfOracle.record_subsumers``).  Unsatisfiability is
    entailment of the empty clause: the satisfiability pass has that one
    test, whose term is the masks known unsatisfiable, and asks it through
    ``is_sat_induced``.

    Each step asks about the highest mask S that is neither in the AND nor
    known satisfiable, and the latest test whose term lacks S.  A model M
    of S's subformula that falsifies the test's clause decides Sat(M), the
    masks whose subformula M satisfies: the AND, over the rows M
    falsifies, of the complement of Up(row mask).  None of them entails
    that clause, so none is equivalent, or unsatisfiable.  A core K adds
    Up(K) to the test's term.  A core whose refutation used none of the
    clause's negated literals proves phi|K, and so the whole,
    unsatisfiable, where a mask is equivalent iff it is unsatisfiable: the
    list becomes the one empty-clause test, its term the AND so far and
    Up(K), and the models found so far are kept.

    A pass whose list ends as the one empty-clause test decides
    satisfiability, the complement of its term, and under an unsatisfiable
    whole equivalence too, the term itself; any other pass decides
    equivalence alone.  A satisfiable whole costs the satisfiability pass
    one solve.
    """
    phi = oracle.formula
    everything = (1 << (1 << len(phi.label_bits))) - 1
    patterns = _label_patterns(len(phi.label_bits))
    ups = {0: everything}
    rows = list(zip((lits for lits, _ in phi.rows), phi.label_masks))

    def up(mask):
        got = ups.get(mask)
        if got is None:
            low = mask & -mask
            got = ups[mask] = up(mask ^ low) & patterns[low.bit_length() - 1]
        return got

    def closure(model):
        true = {v if x else -v for v, x in model.items()}
        got = everything
        for m in {m for lits, m in rows if true.isdisjoint(lits)}:
            got &= ~up(m)
        return got

    tests = [[(), 0]]  # per clause, latest first: [literals, term]
    if equivalence:
        tests = []
        for (lits, m), subsumers in zip(rows[::-1], oracle.record_subsumers()[::-1]):
            term = up(m)
            for k in subsumers:
                term |= up(k)
            if term != everything:
                tests.append([lits, term])
    sat = 0  # the masks a model decided: satisfiable, and outside the AND
    while True:
        known = reduce(and_, (t[1] for t in tests), everything)
        if known | sat == everything:
            break
        s = (everything ^ (known | sat)).bit_length() - 1
        test = next(t for t in tests if not t[1] >> s & 1)
        if test[0]:
            entailed = oracle.entails_clause(s, test[0])
        else:  # the empty clause
            entailed = not oracle.is_sat_induced(s)
        if not entailed:
            sat |= closure(oracle.model())
        elif oracle.core_unsatisfiable():  # so is the whole
            tests = [[(), known | up(oracle.core())]]
        else:
            test[1] |= up(oracle.core())
    if len(tests) != 1 or tests[0][0]:  # not the one empty-clause test
        return {"equivalent_bits": known}
    if known >> (everything.bit_length() - 1):  # the whole is unsatisfiable
        return {"sat_bits": everything ^ known, "equivalent_bits": known}
    return {"sat_bits": everything ^ known}


def classify_all(phi: LcnfFormula, max_labels: int = DEFAULT_MAX_LABELS) -> AnalysisReport:
    """Classify every label subset; the report computes what it is asked on first read.

    Exhaustive over the 2^k subsets of the k active labels, so ``max_labels``
    guards against blowup (exceeding it, ``MAX_LABELS`` or ``MAX_VARIABLES``
    raises ResourceLimitError before any 2^k-sized allocation).  Up to
    ``MODEL_ENUMERATION_LIMIT`` variables both status kinds come from truth
    tables before this returns (``_classify_truth_tables``), over chunks of
    at most ``TRUTH_TABLE_CHUNK`` subsets so that memory stays bounded.  Larger
    formulas are classified by one oracle, and each status kind only when
    a reader of the report first asks for it (``AnalysisReport``): LMUS and
    LMSS need only satisfiability, LMES, LMNS and the duality check only
    equivalence.  Both paths run in one process.
    """
    k = len(phi.active_labels)
    max_labels = min(max_labels, MAX_LABELS)
    if k > max_labels:
        raise ResourceLimitError(
            f"formula has {k} labels, over the limit of {max_labels}"
        )
    if len(phi.variables) > MAX_VARIABLES:
        raise ResourceLimitError(
            f"formula has {len(phi.variables)} variables, over the limit of {MAX_VARIABLES}"
        )
    if len(phi.variables) > MODEL_ENUMERATION_LIMIT:
        return AnalysisReport(phi)
    return AnalysisReport(phi, _classify_truth_tables(phi))
