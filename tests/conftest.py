"""Shared fixtures: worked-example formulas and an independent model checker.

The model checker enumerates assignments with itertools and never touches the
package's solver, so solver-backed answers are checked against something that
cannot share their bugs.
"""
import io
import itertools
from contextlib import redirect_stderr, redirect_stdout

import pytest

from lcnf.bruteforce import GenerationProfile, random_lcnf
from lcnf.core import LcnfFormula, label
from lcnf.interface import main

# Running example used throughout: variables x,y,z,t as 1,2,3,4; eight
# clauses where clause 5 is unlabelled and the others carry the label sets
# below.  Its witness families are known exactly and fixed in the tests.
WORKED_CLAUSES = [
    (-2,),
    (2, -4),
    (3, 4),
    (-1,),
    (1, 2, 3),
    (-1, 2),
    (-2, 4),
    (-4,),
]
WORKED_LABELS = [(1,), (1,), (1,), (1, 2), (), (2, 3), (3,), (4,)]

WORKED_LMES = {frozenset({1, 2}), frozenset({2, 3, 4})}
WORKED_LMNS = {frozenset({1, 3, 4}), frozenset({2, 3}), frozenset({2, 4})}
WORKED_COLMNS = {frozenset({2}), frozenset({1, 3}), frozenset({1, 4})}

WORKED_LCNF = """\
p lcnf 4 8
{1} -2 0
{1} 2 -4 0
{1} 3 4 0
{1 2} -1 0
{} 1 2 3 0
{2 3} -1 2 0
{3} -2 4 0
{4} -4 0
"""

# Small unsatisfiable formula: (x1)_{1}, (-x1)_{2}, (x2)_{3}, (-x2)_{3}.
PHI_U_CLAUSES = [(1,), (-1,), (2,), (-2,)]
PHI_U_LABELS = [(1,), (2,), (3,), (3,)]
PHI_U_LMUS = {frozenset({1, 2}), frozenset({3})}
PHI_U_LMSS = {frozenset({1}), frozenset({2})}
PHI_U_COLMSS = {frozenset({1, 3}), frozenset({2, 3})}

PHI_U_GCNF = """\
p gcnf 2 4 3
{1} 1 0
{2} -1 0
{3} 2 0
{3} -2 0
"""

# (x1)_{1}, (-x1)_{2}, (-x1)_{3}: the largest satisfiable label set is {2,3}.
PHI_G_CLAUSES = [(1,), (-1,), (-1,)]
PHI_G_LABELS = [(1,), (2,), (3,)]


@pytest.fixture
def worked_example():
    return LcnfFormula.from_clauses(WORKED_CLAUSES, WORKED_LABELS)


@pytest.fixture
def phi_u():
    return LcnfFormula.from_clauses(PHI_U_CLAUSES, PHI_U_LABELS)


@pytest.fixture
def phi_g():
    return LcnfFormula.from_clauses(PHI_G_CLAUSES, PHI_G_LABELS)


@pytest.fixture
def worked_example_path(tmp_path):
    p = tmp_path / "worked_example.lcnf"
    p.write_text(WORKED_LCNF)
    return str(p)


@pytest.fixture
def phi_u_path(tmp_path):
    p = tmp_path / "unsatcore.gcnf"
    p.write_text(PHI_U_GCNF)
    return str(p)


def models_of(clauses, variables):
    """All satisfying assignments of ``clauses`` over an explicit universe.

    Returns a frozenset of total assignments (tuples of bools aligned with
    sorted(variables)).  The universe matters: two clause sets compared for
    equivalence must be evaluated over the same variables.
    """
    vs = sorted(variables)
    index = {v: i for i, v in enumerate(vs)}
    out = set()
    for bits in itertools.product((False, True), repeat=len(vs)):
        ok = True
        for c in clauses:
            if not any(bits[index[abs(l)]] == (l > 0) for l in c):
                ok = False
                break
        if ok:
            out.add(bits)
    return frozenset(out)


SWEEP_PROFILES = {
    "free": GenerationProfile(variables=6, clauses=18, labels=6, clause_labels=3),
    "group": GenerationProfile(variables=6, clauses=18, labels=6, labelling="group"),
    "clause": GenerationProfile(variables=6, clauses=14, labels=1),
    "variable": GenerationProfile(variables=6, clauses=18, labels=1),
}


def sweep_formula(i):
    """Seeded formula ``i``: free-, group-, clause- and variable-labelled in turn."""
    scheme = list(SWEEP_PROFILES)[i % 4]
    phi = random_lcnf(i, SWEEP_PROFILES[scheme])
    if scheme in ("clause", "variable"):
        phi = label(phi, scheme)
    return phi


def cnf(phi):
    """The literal tuples of a formula's rows, in clause order."""
    return [lits for lits, _ in phi.rows]


def variables_of(clauses):
    return {abs(l) for c in clauses for l in c}


def formula_text(phi, kind="lcnf"):
    """``phi`` as the text of a ``p kind`` file: ``lcnf`` writes each clause's
    sorted label block, ``gcnf`` its one group or group 0 for no label, and
    ``cnf`` no block.  The parsers' round-trip tests read it back."""
    clauses = cnf(phi)
    header = ["p", kind, max(variables_of(clauses), default=0), len(clauses)]
    if kind == "gcnf":
        header.append(max(phi.active_labels, default=0))
    lines = [" ".join(map(str, header))]
    for lits, labels in phi.rows:
        if kind == "lcnf":
            block = "{" + " ".join(map(str, sorted(labels))) + "} "
        else:
            block = f"{{{max(labels, default=0)}}} " if kind == "gcnf" else ""
        lines.append(block + " ".join(map(str, [*lits, 0])))
    return "\n".join(lines) + "\n"


def run_cli_streams(*argv):
    """Run the command line in-process; returns (exit code, stdout, stderr)."""
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_cli(*argv):
    """Run the command line in-process; returns (exit code, stdout text)."""
    return run_cli_streams(*argv)[:2]


# One line per acceptance criterion, echoed after the test summary so the
# verdicts are visible even when everything passes.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
