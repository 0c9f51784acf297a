"""Exhaustive subset classification and the seeded formula generator."""
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import lcnf
from lcnf import bruteforce
from lcnf.analysis import REASON_SATISFIABLE
from lcnf.bruteforce import (
    AnalysisReport,
    GenerationProfile,
    SubsetStatus,
    classify_all,
    random_lcnf,
)
from lcnf.core import LcnfFormula
from lcnf.duality import verify_duality
from lcnf.errors import ResourceLimitError
from lcnf.oracle import LcnfOracle, Solver, solve

from conftest import (
    WORKED_COLMNS,
    WORKED_LMES,
    WORKED_LMNS,
    PHI_U_COLMSS,
    PHI_U_LMSS,
    PHI_U_LMUS,
    cnf,
    models_of,
    run_cli_streams,
)


def test_worked_example_families(worked_example):
    report = classify_all(worked_example)
    assert report.satisfiable
    assert report.lmes == WORKED_LMES
    assert report.lmns == WORKED_LMNS
    assert report.colmns == WORKED_COLMNS
    assert report.lmss == {frozenset({1, 2, 3, 4})}
    assert report.colmss == {frozenset()}
    assert report.lmns_exists and report.lmss_exists
    assert not report.empty_lmes
    assert report.active_labels == frozenset({1, 2, 3, 4})


def test_unsat_families_collapse(phi_u):
    report = classify_all(phi_u)
    assert not report.satisfiable
    assert report.lmus == PHI_U_LMUS
    assert report.lmes == report.lmus
    assert report.lmss == PHI_U_LMSS
    assert report.lmns == report.lmss
    assert report.colmss == PHI_U_COLMSS


def test_classification_statuses(worked_example):
    report = classify_all(worked_example)
    full = report.classification[frozenset({1, 2, 3, 4})]
    assert full == SubsetStatus(satisfiable=True, equivalent=True)
    assert report.classification[frozenset({1, 2})].equivalent
    assert not report.classification[frozenset({1})].equivalent
    assert len(report.classification) == 16


def test_no_labels_report():
    phi = LcnfFormula.from_clauses([(1,), (2,)])
    report = classify_all(phi)
    assert report.lmes == {frozenset()}
    assert report.empty_lmes
    assert not report.lmns_exists
    assert report.lmss == {frozenset()}


def test_all_labels_redundant_report():
    phi = LcnfFormula.from_clauses([(1,), (1, 2), (1, 3)], [(), (1,), (2,)])
    report = classify_all(phi)
    assert report.empty_lmes
    assert report.lmes == {frozenset()}
    assert not report.lmns_exists


def test_unsat_unlabelled_part_report():
    phi = LcnfFormula.from_clauses([(1,), (-1,), (2,)], [(), (), (1,)])
    report = classify_all(phi)
    assert not report.lmss_exists
    assert report.lmus == {frozenset()}
    assert report.lmes == {frozenset()}
    assert not report.lmns_exists


def test_label_count_guard():
    clauses = [(i,) for i in range(1, 6)]
    phi = LcnfFormula.from_clauses(clauses, [(i,) for i in range(1, 6)])
    with pytest.raises(ResourceLimitError):
        classify_all(phi, max_labels=4)
    assert classify_all(phi, max_labels=5).active_labels == frozenset(range(1, 6))
    # past MAX_LABELS the refusal comes whatever max_labels says, before any
    # 2^k-sized table or mask is built
    wide = LcnfFormula.from_clauses([(1,)] * 25, [(i,) for i in range(1, 26)])
    with pytest.raises(ResourceLimitError, match="25 labels, over the limit of 24"):
        classify_all(wide, max_labels=64)


def _label_patterns_by_division(k):
    """Each pattern as the 2^k-bit all-ones int divided by one period's
    all-ones, times one period's run of ones: the reference for the
    doubling build."""
    patterns = []
    for b in range(k):
        half = 1 << b
        runs = ((1 << (1 << k)) - 1) // ((1 << (half << 1)) - 1)
        patterns.append(runs * (((1 << half) - 1) << half))
    return tuple(patterns)


def test_label_patterns_match_the_division_reference():
    for k in range(13):
        patterns = bruteforce._label_patterns(k)
        assert patterns == _label_patterns_by_division(k), k
        # bit m of pattern b is bit b of m
        assert all((patterns[b] >> m & 1) == (m >> b & 1) for b in range(k) for m in range(1 << k))


def test_variable_count_guard():
    limit = bruteforce.MAX_VARIABLES
    clauses = [(i,) for i in range(1, limit + 2)]
    phi = LcnfFormula.from_clauses(clauses, [(1,)] * (limit + 1))
    with pytest.raises(ResourceLimitError, match=f"{limit + 1} variables"):
        classify_all(phi)


def thirteen_variables(*extra):
    """Units 1..13 under label 1, (1 v 2) under label 2, then ``extra``."""
    clauses = [(i,) for i in range(1, 14)] + [(1, 2)] + [c for c, _ in extra]
    labelling = [(1,)] * 13 + [(2,)] + [ls for _, ls in extra]
    return LcnfFormula.from_clauses(clauses, labelling)


def truth_table_statuses(phi):
    """(sat_bits, equivalent_bits) of ``phi`` from its truth tables."""
    return bruteforce._classify_truth_tables(phi)


def statuses(report):
    return report.sat_bits, report.equivalent_bits


def packed(values):
    """The int whose bit m is the m-th bool of ``values``."""
    return int("".join("1" if v else "0" for v in reversed(values)), 2)


def neighbour_walk(statuses, wanted, minimal, active):
    """The members of a family, one mask and one one-label neighbour at a time."""
    members = set()
    for mask, status in enumerate(statuses):
        if status == wanted and not any(
            statuses[mask ^ 1 << b] == wanted
            for b in range(len(active))
            if (mask >> b & 1) == minimal
        ):
            members.add(frozenset(l for b, l in enumerate(active) if mask >> b & 1))
    return members


def status_lists(rng):
    """Random status lists, monotone and not, with the labels they range over."""
    for k in range(11):
        active = sorted(rng.sample(range(1, 40), k))
        for _ in range(6):
            # upward-closed: the masks above a few random ones
            bottoms = [rng.getrandbits(k) for _ in range(rng.randint(1, 4))]
            yield active, [any(m & b == b for b in bottoms) for m in range(1 << k)]
            yield active, [rng.random() < 0.5 for _ in range(1 << k)]
        yield active, [True] * (1 << k)
        yield active, [False] * (1 << k)
    active = list(range(2, 18))
    bottoms = [rng.getrandbits(16) for _ in range(12)]
    yield active, [any(m & b == b for b in bottoms) for m in range(1 << 16)]


def test_family_reads_match_a_one_neighbour_walk():
    # the bit-parallel family read of AnalysisReport against a per-mask walk
    # of one-label neighbours, for all four families and either status list,
    # each packed into the report's ints; the report's formula holds one
    # unit clause per label, so its active labels are ``active``
    rng = random.Random(17)
    for n, (active, listed) in enumerate(status_lists(rng)):
        flipped = [not s for s in listed]
        phi = LcnfFormula.from_clauses([(1,)] * len(active), [(l,) for l in active])
        report = AnalysisReport(phi, (packed(listed), packed(flipped)))
        for name, (kind, wanted, minimal) in bruteforce._FAMILIES.items():
            values = listed if kind == "sat_bits" else flipped
            expected = neighbour_walk(values, wanted, minimal, active)
            assert getattr(report, name).members == expected, (n, name)


def test_oracle_fallback_beyond_truth_table_width():
    # 13 variables forces the solver-backed path; families must still be right
    phi = thirteen_variables()
    report = classify_all(phi)
    # (1 v 2) is entailed by the units, so label 2 is redundant
    assert report.lmes == {frozenset({1})}
    assert report.satisfiable
    assert statuses(report) == truth_table_statuses(phi)

    # -1 under label 3 clashes with label 1; -13 v 2 under label 4 needs 2
    unsat = thirteen_variables(((-1,), (3,)), ((-13, 2), (4,)))
    report = classify_all(unsat)
    assert not report.satisfiable
    assert report.lmus == {frozenset({1, 3})}
    assert report.lmes == report.lmus
    assert report.lmss == {frozenset({1, 2, 4}), frozenset({2, 3, 4})}
    assert statuses(report) == truth_table_statuses(unsat)


def test_oracle_path_matches_truth_tables(monkeypatch):
    # a zero limit sends these small formulas down the oracle path; many are
    # unsatisfiable, so its increasing-order satisfiability pass runs too
    monkeypatch.setattr(bruteforce, "MODEL_ENUMERATION_LIMIT", 0)
    free = GenerationProfile(variables=5, clauses=14, labels=6, clause_labels=2)
    group = GenerationProfile(variables=5, clauses=14, labels=6, labelling="group")
    unsatisfiable = 0
    for profile in (GenerationProfile(), free, group):
        for seed in range(300):
            phi = random_lcnf(seed, profile)
            report = classify_all(phi)
            where = f"{profile.labelling}, {profile.labels} labels, seed {seed}"
            assert statuses(report) == truth_table_statuses(phi), where
            unsatisfiable += not report.satisfiable
    assert unsatisfiable >= 400


def test_each_read_runs_only_its_own_pass(monkeypatch):
    # on the oracle path a fresh report computes a status kind only when it
    # is read: the satisfiability reads make no entailment query, and the
    # equivalence reads (the duality check among them) no satisfiability
    # query unless an entailment core proves the whole unsatisfiable, where
    # equivalence is unsatisfiability; neither asks is_equivalent_subformula,
    # and the list each computes still matches the truth tables
    monkeypatch.setattr(bruteforce, "MODEL_ENUMERATION_LIMIT", 0)
    queries = {}
    for kind, name in (
        ("sat", "is_sat_induced"),
        ("equivalent", "entails_clause"),
        ("subformula", "is_equivalent_subformula"),
    ):
        real = getattr(LcnfOracle, name)

        def counted(self, *args, _real=real, _kind=kind, **kwargs):
            queries[_kind] += 1
            return _real(self, *args, **kwargs)

        monkeypatch.setattr(LcnfOracle, name, counted)
    reads = {
        "sat": ["lmss", "colmss", "lmus", "satisfiable"],
        "equivalent": ["lmes", "lmns", "colmns", "empty_lmes", verify_duality],
    }
    profile = GenerationProfile(variables=5, clauses=14, labels=6, clause_labels=2)
    switched = 0
    for seed in range(40):
        phi = random_lcnf(seed, profile)
        truth = dict(zip(("sat", "equivalent"), truth_table_statuses(phi)))
        satisfiable = truth["sat"].bit_length() == 1 << len(phi.active_labels)
        for kind, other in (("sat", "equivalent"), ("equivalent", "sat")):
            for read in reads[kind]:
                queries.update(sat=0, equivalent=0, subformula=0)
                report = classify_all(phi)
                if callable(read):
                    read(phi, report)
                else:
                    getattr(report, read)
                where = f"seed {seed}, {getattr(read, '__name__', read)}"
                assert queries[other] == 0 or kind == "equivalent" and not satisfiable, where
                assert queries["subformula"] == 0, where
                # subsuming clauses may settle every mask equivalent
                settled = kind == "equivalent" and truth[kind] == (1 << (1 << len(phi.active_labels))) - 1
                assert queries[kind] > 0 or settled, where
                assert getattr(report, f"{kind}_bits") == truth[kind], where
                switched += queries[other] > 0
    assert switched >= 20, switched


SPARSE = (0, 3, 7, 12, 31, 64)  # label l of ``random_lcnf`` becomes SPARSE[l - 1]


def sparse(phi):
    """``phi`` with label l renamed SPARSE[l - 1]: label 0, and labels far apart."""
    return LcnfFormula.from_clauses(
        [lits for lits, _ in phi.rows],
        [[SPARSE[l - 1] for l in labels] for _, labels in phi.rows],
    )


def test_each_closure_pass_matches_the_truth_tables(monkeypatch):
    # a zero limit sends small formulas down the oracle path, and each status
    # kind is read from a fresh report, so each pass runs on its own: the
    # satisfiability pass, and the equivalence pass, which goes on with the
    # empty-clause test alone once an entailment core proves the whole
    # unsatisfiable.  Rows carry up to three labels, label 0 and labels far
    # apart take their bits in the formula's numbering, and more than half
    # the wholes are made unsatisfiable, some by a labelled empty clause
    monkeypatch.setattr(bruteforce, "MODEL_ENUMERATION_LIMIT", 0)
    nested = GenerationProfile(variables=5, clauses=14, labels=6, clause_labels=3)
    group = GenerationProfile(variables=6, clauses=16, labels=6, labelling="group")
    builds = {
        "random": random_lcnf,
        "unsatisfiable": contradicted,
        "sparse": lambda seed, profile: sparse(random_lcnf(seed, profile)),
        "sparse unsatisfiable": lambda seed, profile: sparse(contradicted(seed, profile)),
        "empty clause": emptied,
    }
    seen = {"unsatisfiable": 0, "label 0": 0, "three labels": 0, "empty clause": 0}
    for profile in (nested, group):
        for name, build in builds.items():
            for seed in range(60):
                phi = build(seed, profile)
                sat, equivalent = truth_table_statuses(phi)
                where = f"{profile.labelling}, {name}, seed {seed}"
                assert classify_all(phi).sat_bits == sat, where
                assert classify_all(phi).equivalent_bits == equivalent, where
                seen["unsatisfiable"] += sat.bit_length() < 1 << len(phi.active_labels)
                seen["label 0"] += 0 in phi.active_labels
                seen["three labels"] += any(len(labels) == 3 for _, labels in phi.rows)
                seen["empty clause"] += any(not lits for lits, _ in phi.rows)
    assert seen["unsatisfiable"] >= 360 and seen["label 0"] >= 100 and seen["three labels"] >= 40, seen
    assert seen["empty clause"] >= 120, seen


def test_a_pass_under_an_unsatisfiable_whole_decides_both_kinds(monkeypatch):
    # under an unsatisfiable whole a mask is equivalent iff it is
    # unsatisfiable, so a pass that ends on the empty-clause test there
    # keeps both kinds, and the second read of a report makes no solve:
    # always after the satisfiability pass, and after an equivalence pass
    # once a core proved the whole unsatisfiable (core_unsatisfiable).
    # Any other satisfiability read after an equivalence pass makes one
    # solve, on the whole: satisfiable, every mask is; unsatisfiable, a
    # mask is iff it is not equivalent.  Under a satisfiable whole an
    # equivalence read after the satisfiability pass runs its own pass, as
    # equivalence is not the complement of satisfiability there.  Both
    # orders give the truth tables' statuses
    monkeypatch.setattr(bruteforce, "MODEL_ENUMERATION_LIMIT", 0)
    solves = refuted = 0
    real_solve, real_refuted = Solver.solve, LcnfOracle.core_unsatisfiable

    def counted_solve(self, *args, **kwargs):
        nonlocal solves
        solves += 1
        return real_solve(self, *args, **kwargs)

    def counted_refuted(self):
        nonlocal refuted
        answer = real_refuted(self)
        refuted += answer
        return answer

    monkeypatch.setattr(Solver, "solve", counted_solve)
    monkeypatch.setattr(LcnfOracle, "core_unsatisfiable", counted_refuted)
    profile = GenerationProfile(variables=5, clauses=14, labels=6, clause_labels=2)
    kept = {"sat_bits": 0, "equivalent_bits": 0, "satisfiable": 0, "one solve": 0}
    for seed in range(60):
        for build in (random_lcnf, contradicted, emptied):
            phi = build(seed, profile)
            truth = truth_table_statuses(phi)
            satisfiable = truth[0].bit_length() == 1 << len(phi.active_labels)
            for first, second in (("sat_bits", "equivalent_bits"), ("equivalent_bits", "sat_bits")):
                where = f"{build.__name__}, seed {seed}, {first} first"
                report = AnalysisReport(phi)
                refuted = 0
                getattr(report, first)
                proved, solves = refuted, 0
                getattr(report, second)
                assert statuses(report) == truth, where
                if first == "equivalent_bits":
                    assert solves <= 1, where
                if satisfiable:
                    assert solves == 1 or first == "sat_bits", where
                    kept["satisfiable"] += 1
                elif first == "sat_bits" or proved:
                    assert solves == 0, where
                    kept[first] += 1
                else:  # the pass may still have ended on the empty-clause test
                    kept["one solve"] += solves
    assert kept["sat_bits"] >= 150 and kept["equivalent_bits"] >= 60, kept
    assert kept["satisfiable"] >= 40 and kept["one solve"] >= 40, kept


def three_clause(rng, variables):
    return tuple(v if rng.random() < 0.5 else -v for v in rng.sample(variables, 3))


def shape_a():
    """20 unsatisfiable random 3-SAT formulas at ratio 5, 14-20 variables,
    each clause in one of 8-10 groups: most masks are satisfiable."""
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(14, 20)
        groups = rng.randint(8, 10)
        while True:
            clauses = [three_clause(rng, range(1, n + 1)) for _ in range(5 * n)]
            if not solve(clauses):
                break
        yield LcnfFormula.from_clauses(clauses, [(rng.randint(1, groups),) for _ in clauses])


def shape_b():
    """10 formulas over 16 variables and 10 groups: groups 1-5 are each an
    unsatisfiable 40-clause 3-CNF over 6 of the variables, and groups 6-10
    six random 3-clauses each, so most masks are unsatisfiable."""
    rng = random.Random(5)
    for _ in range(10):
        clauses, labelling = [], []
        for group in range(1, 6):
            variables = rng.sample(range(1, 17), 6)
            while True:
                block = [three_clause(rng, variables) for _ in range(40)]
                if not solve(block):
                    break
            clauses += block
            labelling += [(group,)] * 40
        for group in range(6, 11):
            clauses += [three_clause(rng, range(1, 17)) for _ in range(6)]
            labelling += [(group,)] * 6
        yield LcnfFormula.from_clauses(clauses, labelling)


@pytest.mark.parametrize("shape, bounds", [(shape_a, (1000, 1500)), (shape_b, (300, 500))])
def test_closure_passes_on_unsatisfiable_wholes_query_near_the_boundary(shape, bounds, monkeypatch):
    # each answer decides its whole down- or up-set, so the passes query
    # near the boundary between the statuses, on either shape.  A walk that
    # queried each mask its one-label neighbours leave open made, on shape
    # A, 12601 satisfiability solves bottom-up and 2572 equivalence solves
    # top-down; on shape B, 380 and 12338.  These passes make 447 and 584 on
    # A, 134 and 177 on B.  Under an unsatisfiable whole a mask is
    # equivalent iff it is unsatisfiable, and a few masks per formula are
    # checked by a one-shot solve that shares nothing with the oracle
    solves = 0
    real_solve = Solver.solve

    def counted_solve(self, *args, **kwargs):
        nonlocal solves
        solves += 1
        return real_solve(self, *args, **kwargs)

    formulas = list(shape())
    monkeypatch.setattr(Solver, "solve", counted_solve)
    counts, lists = [], []
    for kind in ("sat_bits", "equivalent_bits"):
        solves = 0
        lists.append([getattr(AnalysisReport(phi), kind) for phi in formulas])
        counts.append(solves)
    monkeypatch.undo()
    rng = random.Random(3)
    for phi, sat, equivalent in zip(formulas, *lists):
        k = len(phi.active_labels)
        assert sat.bit_length() < 1 << k and sat ^ equivalent == (1 << (1 << k)) - 1
        for mask in rng.sample(range(1 << k), 12):
            kept = [lits for lits, labels in phi.rows if phi.mask_of(labels) & ~mask == 0]
            assert bool(solve(kept)) == bool(sat >> mask & 1), mask
    assert counts[0] < bounds[0] and counts[1] < bounds[1], counts


def test_cli_lmus_refusal_on_the_oracle_path_costs_one_solve(tmp_path, monkeypatch):
    # a satisfiable formula has no LMUS: one satisfiability solve decides
    # that, and no equivalence pass runs before the refusal
    solves = 0
    real_solve = Solver.solve

    def counted_solve(self, *args, **kwargs):
        nonlocal solves
        solves += 1
        return real_solve(self, *args, **kwargs)

    monkeypatch.setattr(Solver, "solve", counted_solve)
    f = tmp_path / "thirteen.lcnf"
    f.write_text(
        "p lcnf 13 14\n" + "".join(f"{{1}} {i} 0\n" for i in range(1, 14)) + "{2} 1 2 0\n"
    )
    assert run_cli_streams("enum", "--family", "lmus", str(f)) == (
        3,
        "",
        f"not applicable: {REASON_SATISFIABLE}\n",
    )
    assert solves == 1


def test_random_lcnf_is_deterministic_per_seed():
    a = random_lcnf(123)
    b = random_lcnf(123)
    assert a == b
    formulas = {random_lcnf(s) for s in range(30)}
    assert len(formulas) > 25


def test_random_lcnf_respects_profile_caps():
    prof = GenerationProfile(variables=3, clauses=5, labels=2, clause_labels=1)
    for seed in range(80):
        phi = random_lcnf(seed, prof)
        assert len(phi) <= 5
        assert all(abs(l) <= 3 for lits, _ in phi.rows for l in lits)
        assert phi.active_labels <= frozenset({1, 2})
        assert all(len(ls) <= 1 for _, ls in phi.rows)


def test_random_lcnf_group_profile_is_single_label():
    prof = GenerationProfile(labelling="group", clause_labels=3)
    for seed in range(40):
        phi = random_lcnf(seed, prof)
        assert all(len(ls) <= 1 for _, ls in phi.rows)


def test_random_lcnf_zero_clause_labels_is_unlabelled():
    prof = GenerationProfile(clause_labels=0)
    for seed in range(20):
        assert random_lcnf(seed, prof).active_labels == frozenset()


def test_generation_profile_validates():
    with pytest.raises(ValueError):
        GenerationProfile(variables=0)
    with pytest.raises(ValueError):
        GenerationProfile(labels=7)
    with pytest.raises(ValueError):
        GenerationProfile(labelling="stripes")
    for width in (0, -2):
        with pytest.raises(ValueError):
            GenerationProfile(clause_width=width)
    for probability in (2.0, -1, -0.01, 1.01):
        with pytest.raises(ValueError):
            GenerationProfile(unlabelled_probability=probability)
    GenerationProfile(clause_width=1, unlabelled_probability=0)
    GenerationProfile(unlabelled_probability=1)


def test_import_leaves_multiprocessing_unloaded():
    # classification runs in one process, so `import lcnf` stays light
    src = str(Path(lcnf.__file__).resolve().parent.parent)
    ran = subprocess.run(
        [sys.executable, "-c",
         "import sys, lcnf; print(sorted(m for m in sys.modules"
         " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert ran.returncode == 0, ran.stderr
    assert ran.stdout == "[]\n"


def brute_families(phi):
    """Independent family extraction from model sets, no package helpers."""
    active = sorted(phi.active_labels)
    universe = phi.variables
    full = models_of(cnf(phi), universe)
    status = {}
    for r in range(len(active) + 1):
        for combo in itertools.combinations(active, r):
            sub = frozenset(combo)
            ms = models_of(cnf(phi.induced(sub)), universe)
            status[sub] = (bool(ms), ms == full)
    subsets = list(status)
    lmes = {
        s for s in subsets
        if status[s][1] and not any(status[t][1] for t in subsets if t < s)
    }
    lmns = {
        s for s in subsets
        if not status[s][1] and all(status[t][1] for t in subsets if t > s)
    }
    lmus = {
        s for s in subsets
        if not status[s][0] and all(status[t][0] for t in subsets if t < s)
    }
    lmss = {
        s for s in subsets
        if status[s][0] and not any(status[t][0] for t in subsets if t > s)
    }
    return lmes, lmus, lmns, lmss


def contradicted(seed, profile):
    """``random_lcnf`` plus (1) and (-1), each under a random label: an unsatisfiable whole."""
    phi = random_lcnf(seed, profile)
    rng = random.Random(seed)
    clauses = [lits for lits, _ in phi.rows] + [(1,), (-1,)]
    units = [(rng.randint(1, profile.labels),) for _ in range(2)]
    return LcnfFormula.from_clauses(clauses, [labels for _, labels in phi.rows] + units)


def emptied(seed, profile):
    """``random_lcnf`` with a labelled empty clause put among its rows."""
    phi = random_lcnf(seed, profile)
    rng = random.Random(seed)
    rows = list(phi.rows)
    rows.insert(rng.randint(0, len(rows)), ((), (rng.randint(1, profile.labels),)))
    return LcnfFormula.from_clauses([lits for lits, _ in rows], [labels for _, labels in rows])


def duplicated(seed, profile):
    """Every clause of ``random_lcnf`` twice, under two labels: no label is irredundant."""
    rng = random.Random(seed)
    clauses, labelling = [], []
    for lits, _ in random_lcnf(seed, profile).rows:
        for l in rng.sample(range(1, profile.labels + 1), 2):
            clauses.append(lits)
            labelling.append((l,))
    return LcnfFormula.from_clauses(clauses, labelling)


def test_classification_matches_independent_model_enumeration(monkeypatch):
    # chunks of 1, 2, 4 and 16 subsets split the transform over the high
    # free label bits; the default chunk holds every subset of these
    # formulas.  Clauses with up to three labels nest label masks inside the
    # low bits, so the recursion of the transform goes two levels deep.  The
    # truth tables fix the irredundant labels (every LMES holds them) and,
    # under an unsatisfiable whole, the labels in every LMUS; the counts
    # below make sure that many formulas fix some labels but not all, for
    # each kind, and that some fix none
    small = GenerationProfile(variables=4, clauses=8, labels=4, clause_labels=2)
    six_labels = GenerationProfile(variables=5, clauses=14, labels=6, clause_labels=2)
    nested = GenerationProfile(variables=5, clauses=14, labels=6, clause_labels=3)
    unlabelled = GenerationProfile(variables=4, clauses=7, labels=5, clause_labels=0)
    corpora = (
        ("small", small, random_lcnf),
        ("six labels", six_labels, random_lcnf),
        ("nested", nested, random_lcnf),
        ("unsatisfiable whole", six_labels, contradicted),
        ("no irredundant label", unlabelled, duplicated),
    )
    default = bruteforce.TRUTH_TABLE_CHUNK
    three_label_clauses = 0
    partly_fixed = {"equivalence": 0, "satisfiability": 0}
    for name, profile, build in corpora:
        for seed in range(40):
            phi = build(seed, profile)
            three_label_clauses += sum(len(labels) == 3 for _, labels in phi.rows)
            expected = brute_families(phi)
            lmes, lmus = expected[:2]
            k = len(phi.active_labels)
            irredundant = frozenset.intersection(*lmes)
            assert name != "no irredundant label" or not irredundant
            assert name != "unsatisfiable whole" or lmus
            # under an unsatisfiable whole lmus == lmes
            partly_fixed["satisfiability" if lmus else "equivalence"] += 0 < len(irredundant) < k
            for chunk in (1, 2, 4, 16, default):
                monkeypatch.setattr(bruteforce, "TRUTH_TABLE_CHUNK", chunk)
                report = classify_all(phi)
                where = f"{name}, seed {seed}, chunk {chunk}"
                assert (report.lmes, report.lmus, report.lmns, report.lmss) == expected, where
    assert three_label_clauses >= 40
    assert partly_fixed["equivalence"] >= 12
    assert partly_fixed["satisfiability"] >= 35


def spy_tables(monkeypatch):
    """The length of every table ``_subset_ands`` builds from now on, nested ones too."""
    built = []
    real = bruteforce._subset_ands

    def spy(base, groups, bits):
        table = real(base, groups, bits)
        built.append(len(table))
        return table

    monkeypatch.setattr(bruteforce, "_subset_ands", spy)
    return built


def test_truth_tables_run_only_over_supersets_of_the_fixed_labels(monkeypatch):
    # every group has one label, so the transform never recurses and each
    # table it builds covers one chunk of the free labels' subsets
    built = spy_tables(monkeypatch)
    # satisfiable, 8 labels: (1) under 1 and (2) under 2 are irredundant,
    # (3 v 4) under each of 3..8 is not.  Every subset is satisfiable, which
    # the whole alone decides: one table, over the subsets of 3..8
    sat = LcnfFormula.from_clauses([(1,), (2,)] + [(3, 4)] * 6, [(l,) for l in range(1, 9)])
    report = classify_all(sat)
    assert built == [1 << (8 - 2)]
    assert report.sat_bits == (1 << (1 << 8)) - 1
    assert report.lmes == {frozenset({1, 2, l}) for l in range(3, 9)}
    # unsatisfiable, 7 labels: (1), (-1 v 2) and (-2) under 1, 2 and 3 form
    # the one LMUS, and (3 v 4) under each of 4..7 lies in none
    built.clear()
    unsat = LcnfFormula.from_clauses(
        [(1,), (-1, 2), (-2,)] + [(3, 4)] * 4, [(l,) for l in range(1, 8)]
    )
    report = classify_all(unsat)
    assert built == [1 << (7 - 3)]
    assert report.lmus == {frozenset({1, 2, 3})}
    assert report.lmss == {frozenset(range(1, 8)) - {l} for l in (1, 2, 3)}


def test_truth_table_chunks_bound_every_table(monkeypatch):
    # memory stays bounded by the chunk even when the free labels, the
    # labels the transform runs over, outnumber the chunk's bits: no table
    # the transform builds, nested or not, is longer than the chunk, and the
    # statuses are those of one chunk over every subset
    nested = GenerationProfile(variables=5, clauses=14, labels=6, clause_labels=3)
    unlabelled = GenerationProfile(variables=4, clauses=7, labels=6, clause_labels=0)
    formulas = [random_lcnf(seed, nested) for seed in range(20)]
    formulas += [duplicated(seed, unlabelled) for seed in range(20)]
    expected = [statuses(classify_all(phi)) for phi in formulas]
    built = spy_tables(monkeypatch)
    for chunk in (2, 4, 16):
        monkeypatch.setattr(bruteforce, "TRUTH_TABLE_CHUNK", chunk)
        wider = 0
        for phi, want in zip(formulas, expected):
            built.clear()
            report = classify_all(phi)
            assert statuses(report) == want, f"chunk {chunk}"
            assert max(built) <= chunk, f"chunk {chunk}"
            free = len(phi.active_labels) - len(frozenset.intersection(*report.lmes))
            wider += (1 << free) > chunk
        assert wider >= 10, f"chunk {chunk}"


def test_truth_table_path_makes_no_solver_call(tmp_path, monkeypatch):
    # up to MODEL_ENUMERATION_LIMIT variables every read of the report, the
    # duality check and the exhaustive commands come from the truth tables
    # alone: they build no oracle and make no solve
    def refuse(*args, **kwargs):
        raise AssertionError("the truth-table path reached the solver")

    monkeypatch.setattr(LcnfOracle, "__init__", refuse)
    monkeypatch.setattr(Solver, "solve", refuse)
    # twelve variables: units under label 4, (1 v 2 v 3) under labels 1 and
    # 2, (4 v 5) under label 3 and an unlabelled (-4 v 6 v 7)
    twelve = LcnfFormula.from_clauses(
        [(1, 2, 3), (1, 2, 3), (4, 5), (-4, 6, 7)] + [(i,) for i in range(8, 13)],
        [(1,), (2,), (3,), ()] + [(4,)] * 5,
    )
    assert len(twelve.variables) == bruteforce.MODEL_ENUMERATION_LIMIT
    profile = GenerationProfile(variables=8, clauses=14, labels=6, clause_labels=3)
    formulas = [twelve] + [random_lcnf(seed, profile) for seed in range(30)]
    assert sum(0 in phi.label_masks for phi in formulas) >= 5
    for phi in formulas:
        report = classify_all(phi)
        for name in ("lmes", "lmus", "lmns", "lmss", "colmns", "colmss",
                     "classification", "satisfiable", "empty_lmes"):
            getattr(report, name)
        verify_duality(phi, report)
    f = tmp_path / "twelve.lcnf"
    f.write_text(
        "p lcnf 12 9\n{1} 1 2 3 0\n{2} 1 2 3 0\n{3} 4 5 0\n{} -4 6 7 0\n"
        + "".join(f"{{4}} {i} 0\n" for i in range(8, 13))
    )
    assert run_cli_streams("enum", "--family", "lmes", str(f)) == (0, "1 3 4\n2 3 4\n", "")
    code, out, err = run_cli_streams("verify-duality", str(f))
    assert (code, out.splitlines()[-1], err) == (0, "result: pass", "")


def test_irredundant_labels_lie_in_every_minimal_equivalent_subset():
    small = GenerationProfile(variables=4, clauses=8, labels=4, clause_labels=2)
    checked = 0
    for seed in range(40):
        phi = random_lcnf(seed, small)
        report = classify_all(phi)
        active = frozenset(phi.active_labels)
        irredundant = {
            l for l in active
            if not report.classification[active - {l}].equivalent
        }
        for member in report.lmes:
            assert irredundant <= member, f"seed {seed}"
            checked += 1
    assert checked


def test_formula_irredundant_iff_whole_label_set_is_the_only_lmes():
    small = GenerationProfile(variables=4, clauses=8, labels=4, clause_labels=2)
    seen_irredundant = False
    for seed in range(60):
        phi = random_lcnf(seed, small)
        report = classify_all(phi)
        active = frozenset(phi.active_labels)
        all_irredundant = all(
            not report.classification[active - {l}].equivalent for l in active
        )
        assert all_irredundant == (report.lmes == {active}), f"seed {seed}"
        seen_irredundant = seen_irredundant or all_irredundant
    assert seen_irredundant


def test_subset_equivalent_iff_it_contains_a_minimal_equivalent_subset():
    small = GenerationProfile(variables=4, clauses=8, labels=4, clause_labels=2)
    for seed in range(40):
        phi = random_lcnf(seed, small)
        report = classify_all(phi)
        for subset, status in report.classification.items():
            covered = any(member <= subset for member in report.lmes)
            assert status.equivalent == covered, f"seed {seed}, subset {subset}"
