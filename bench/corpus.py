"""Seeded corpora for the four benchmark workloads.

Every workload is a list of requests, each one ``lcnf`` command on one
generated file.  The same (workload, seed) pair always gives byte-identical
files and the same request order; ``digest`` fingerprints a corpus so two
runs can show they used the same inputs.

Instance sizes are stratified rather than drawn: the seed changes which
clauses are drawn, never how many instances of each size there are, so the
cost of a pass over the corpus varies little from seed to seed.

Only the random-3-SAT instances need a satisfiability verdict while they are
generated; ``checker.dpll`` supplies it, so the corpus does not depend on the
program under test.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from pathlib import Path

import checker


@dataclass(frozen=True)
class Instance:
    """One generated file: its name, text and labelled clause rows.

    ``rows`` holds (label set, clause) pairs as the file's own labelling
    defines them; DIMACS files are clause-labelled (clause i gets {i + 1}).
    """

    name: str
    text: str
    rows: tuple


@dataclass(frozen=True)
class Request:
    """One CLI command: ``argv`` minus the file path, plus what to check."""

    command: tuple
    instance: Instance
    kind: str  # lmes | lmus | lmns | mcs | enum:<family> | verify-duality
    scheme: str = "file"

    @property
    def key(self) -> str:
        return f"{self.kind}/{self.scheme}/{self.instance.name}"

    def argv(self, directory: Path) -> list:
        return [*self.command, "--jobs", "1", str(directory / self.instance.name)]

    @property
    def rows(self) -> tuple:
        """The labelled clause rows this command sees."""
        if self.scheme == "variable":
            return tuple((frozenset(abs(l) for l in c), c) for _, c in self.instance.rows)
        return self.instance.rows


# -- writers ----------------------------------------------------------------


def _body(clause) -> str:
    return " ".join(str(l) for l in clause) + " 0"


def _dimacs(variables: int, clauses) -> str:
    lines = [f"p cnf {variables} {len(clauses)}"]
    lines.extend(_body(c) for c in clauses)
    return "\n".join(lines) + "\n"


def _lcnf(variables: int, rows) -> str:
    lines = [f"p lcnf {variables} {len(rows)}"]
    for labels, clause in rows:
        block = " ".join(str(l) for l in sorted(labels))
        lines.append(f"{{{block}}} {_body(clause)}")
    return "\n".join(lines) + "\n"


def _gcnf(variables: int, groups: int, rows) -> str:
    lines = [f"p gcnf {variables} {len(rows)} {groups}"]
    for labels, clause in rows:
        g = next(iter(labels)) if labels else 0
        lines.append(f"{{{g}}} {_body(clause)}")
    return "\n".join(lines) + "\n"


def _clause_rows(clauses) -> tuple:
    return tuple((frozenset({i + 1}), tuple(c)) for i, c in enumerate(clauses))


# -- random 3-SAT -----------------------------------------------------------


def _random_clause(rng: random.Random, variables: int, width: int = 3) -> tuple:
    picked = rng.sample(range(1, variables + 1), width)
    return tuple(v if rng.random() < 0.5 else -v for v in picked)


def _random_3sat(rng, variables: int, ratio: float, satisfiable: bool) -> list:
    """Uniform random 3-SAT, redrawn until its verdict is ``satisfiable``."""
    count = round(ratio * variables)
    while True:
        clauses = [_random_clause(rng, variables) for _ in range(count)]
        if (checker.dpll(clauses) is not None) == satisfiable:
            return clauses


def _typical_unsat(rng, variables: int, ratio: float) -> list:
    """The middle one of three unsatisfiable draws, by ``dpll`` search nodes.

    Random 3-SAT hardness has a heavy tail, and the few hardest files of a
    seed would set the 90th percentile; the median of three trims that tail
    without looking at the program under test.
    """
    draws = [_random_3sat(rng, variables, ratio, satisfiable=False) for _ in range(3)]
    return sorted(draws, key=checker.search_nodes)[1]


def _stratum(i: int, count: int, lo: int, hi: int) -> int:
    """The i-th of ``count`` sizes spread evenly over lo..hi."""
    return lo + (i * (hi - lo + 1)) // count


# -- pigeonhole ---------------------------------------------------------------


def _pigeonhole(pigeons: int):
    """PHP(p, p-1), the same for every seed.

    Returns (variables, rows by pigeon group, rows by variable).  Each
    pigeon's at-least-one-hole clause is its own group; the at-most-one
    clauses are unlabelled (group 0).  Solver effort on pigeonhole formulas
    swings several-fold with variable and clause order, so these are not
    shuffled.
    """
    holes = pigeons - 1

    def var(i, j):
        return i * holes + j + 1

    group_rows = [
        (frozenset({i + 1}), tuple(var(i, j) for j in range(holes)))
        for i in range(pigeons)
    ]
    group_rows += [
        (frozenset(), (-var(i, j), -var(k, j)))
        for j in range(holes)
        for i in range(pigeons)
        for k in range(i + 1, pigeons)
    ]
    var_rows = [(frozenset(abs(l) for l in c), c) for _, c in group_rows]
    return pigeons * holes, group_rows, var_rows


# -- labelled duplicates and weakenings --------------------------------------


def dup_weak(rng, variables, labels, weakened, unlabelled) -> list:
    """A formula whose labels carry copies and weakenings of base clauses.

    Each base clause has one to three exact copies on distinct labels, so
    minimal equivalent label sets are the minimal covers of the base
    clauses; weakened copies (one extra literal) are implied by their base
    clause and make further labels redundant.  Every variable occurs.  The
    clause counts depend only on the sizes, so the seed changes what the
    clauses say but not how many there are.
    """
    order = list(range(1, variables + 1))
    rng.shuffle(order)
    base_clauses = []
    for b in range(labels // 2 + 2):
        if 3 * b < variables:  # the first clauses cover every variable
            picked = [order[(3 * b + j) % variables] for j in range(3)]
        else:
            picked = rng.sample(order, 3)
        base_clauses.append(tuple(v if rng.random() < 0.5 else -v for v in picked))
    pool = list(range(1, labels + 1))
    rows = []
    for b, clause in enumerate(base_clauses):
        for l in rng.sample(pool, 1 + b % 3):
            rows.append((frozenset({l}), clause))
    for l in pool:
        for _ in range(weakened[l % len(weakened)]):
            clause = rng.choice(base_clauses)
            free = [v for v in order if v not in {abs(x) for x in clause}]
            extra = rng.choice(free)
            clause = (*clause, extra if rng.random() < 0.5 else -extra)
            owners = {l, rng.choice(pool)} if l % 3 == 0 else {l}
            rows.append((frozenset(owners), clause))
    for _ in range(unlabelled):
        rows.append((frozenset(), _random_clause(rng, variables, 4)))
    rng.shuffle(rows)
    return [(ls, tuple(sorted(c, key=abs))) for ls, c in rows]


# -- workloads ----------------------------------------------------------------


def _witness_sat(rng, sizes, prefix) -> list:
    out = []
    for i, n in enumerate(sizes):
        clauses = _random_3sat(rng, n, 3.6, satisfiable=True)
        inst = Instance(f"{prefix}sat{i:02d}.cnf", _dimacs(n, clauses), _clause_rows(clauses))
        schemes = ("file", "variable") if i % 2 == 0 else ("file",)
        for cmd in ("lmes", "lmns"):
            for scheme in schemes:
                extra = ("--labelling", "variable") if scheme == "variable" else ()
                out.append(Request((cmd, *extra), inst, cmd, scheme))
    return out


def _witness_unsat(rng, sizes, prefix) -> list:
    out = []
    for i, (family, n) in enumerate(sizes):
        if family == "random":
            clauses = _typical_unsat(rng, n, 5.5)
            files = [Instance(f"{prefix}unsat{i:02d}.cnf", _dimacs(n, clauses), _clause_rows(clauses))]
        else:
            v, group_rows, var_rows = _pigeonhole(n)
            files = [
                Instance(f"{prefix}php{n}.gcnf", _gcnf(v, n, group_rows), tuple(group_rows)),
                Instance(f"{prefix}php{n}.lcnf", _lcnf(v, var_rows), tuple(var_rows)),
            ]
        for inst in files:
            out.extend(Request((cmd,), inst, cmd) for cmd in ("lmus", "mcs"))
    return out


def _enum_formula(rng, name, variables, labels, weakened, unlabelled, accept) -> Instance:
    """Draw dup/weak formulas until the checker's classification accepts one."""
    while True:
        rows = dup_weak(rng, variables, labels, weakened, unlabelled)
        if accept(checker.TruthTable(rows)):
            return Instance(name, _lcnf(variables, rows), tuple(rows))


def _enum_table(rng, sizes, prefix) -> list:
    out = []
    for i, (k, n) in enumerate(sizes):
        inst = _enum_formula(
            rng, f"{prefix}table{i:02d}.lcnf", n, k, (1, 2), i % 3,
            lambda t: 10 <= len(t.family("lmes")) <= 70 and t.duality_applicable(),
        )
        out.append(Request(("enum", "--family", "lmes"), inst, "enum:lmes"))
        out.append(Request(("enum", "--family", "colmns"), inst, "enum:colmns"))
        out.append(Request(("verify-duality",), inst, "verify-duality"))
    return out


def _enum_oracle(rng, sizes, prefix) -> list:
    out = []
    for i, (k, n) in enumerate(sizes):
        inst = _enum_formula(
            rng, f"{prefix}oracle{i:02d}.lcnf", n, k, (1,), i % 2,
            lambda t: t.family("lmss") and t.family("lmns"),
        )
        out.append(Request(("enum", "--family", "lmes"), inst, "enum:lmes"))
        out.append(Request(("enum", "--family", "lmss"), inst, "enum:lmss"))
    return out


WORKLOADS = {
    "witness-sat": _witness_sat,
    "witness-unsat": _witness_unsat,
    "enum-table": _enum_table,
    "enum-oracle": _enum_oracle,
}

# One entry per instance, smallest first.  The enum entries are (labels,
# variables).  Request cost comes in classes (labelling scheme, label
# count), and a quantile that falls between two classes, or inside a class
# whose cost spreads widely, jumps with the seed.  So the mixes put the
# median and the 90th percentile inside narrow classes: a third of the
# witness-sat requests are variable-labelled, the enum-table median falls
# among the 11-label formulas and its 90th percentile among the 13-label
# ones, with the 14-label formula beyond it, and the enum-oracle median
# falls among the 8-label formulas and its 90th percentile among the
# 9-label ones.
SIZES = {
    "witness-sat": tuple(_stratum(i, 38, 25, 40) for i in range(38)),
    "witness-unsat": tuple(("random", _stratum(i, 56, 20, 26)) for i in range(56))
    + tuple(("pigeonhole", p) for p in (5, 6, 7)),
    "enum-table": ((10, 8),) * 14 + ((11, 9),) * 12 + ((12, 10),) * 4 + ((13, 11),) * 8
    + ((14, 12),),
    "enum-oracle": ((8, 13), (8, 14)) * 21 + ((9, 15), (9, 16)) * 10 + ((9, 16),),
}


def build(workload: str, seed: int) -> list:
    """The workload's requests for ``seed``, in the seeded order they run in."""
    rng = random.Random(f"{workload}:{seed}")
    requests = WORKLOADS[workload](rng, SIZES[workload], "")
    rng.shuffle(requests)
    return requests


def warmups(workload: str) -> list:
    """One request per command on a smallest-size file, the same for every seed."""
    rng = random.Random(f"{workload}:warm-up")
    chosen = {}
    for r in WORKLOADS[workload](rng, SIZES[workload][:1], "warm-up-"):
        chosen.setdefault(r.command[0], r)
    return list(chosen.values())


def instances(requests) -> list:
    """Distinct instances of a request list, in first-use order."""
    seen = {}
    for r in requests:
        seen.setdefault(r.instance.name, r.instance)
    return list(seen.values())


def write(requests, directory: Path):
    """Write every instance file of ``requests`` under ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    for inst in instances(requests):
        (directory / inst.name).write_text(inst.text)


def digest(requests) -> str:
    """SHA-256 over file names, file bytes and the request order."""
    h = hashlib.sha256()
    for inst in sorted(instances(requests), key=lambda i: i.name):
        h.update(inst.name.encode() + b"\0" + inst.text.encode() + b"\0")
    for r in requests:
        h.update(r.key.encode() + b"\n")
    return h.hexdigest()
