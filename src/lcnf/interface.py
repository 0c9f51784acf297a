"""File formats and the command-line interface.

Three input formats are supported:

* DIMACS CNF (``p cnf V C``): plain clauses, labelled on load via one of the
  labelling schemes;
* group CNF (``p gcnf V C G``): every clause line starts with a ``{g}`` group
  tag, group 0 meaning unlabelled;
* labelled CNF (``p lcnf V C``): every clause line starts with a brace block
  holding the clause's full label set, e.g. ``{1 3} -2 4 0``.

Header count mismatches warn; structural problems (missing terminator, bad
tokens, complementary literals in one clause) are errors with line numbers.

The ``lcnf`` command exposes the analysis operations over these files.  Exit
codes: 0 success, 1 a verified property failed, 2 input error, 3 the request
is not applicable to this formula, 4 a resource budget was exceeded.
Results go to stdout, one label set per line as sorted space-separated
integers; diagnostics go to stderr.  Output is deterministic for a given
input, options and package version, including under ``--jobs``.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from pathlib import Path
from typing import Iterable

from .analysis import (
    compute_lmes,
    compute_lmns,
    compute_lmss,
    compute_lmus,
    is_label_redundant,
)
from .bruteforce import classify_all
from .core import LcnfFormula, label
from .duality import verify_duality
from .errors import ParseError, PreconditionError, ResourceLimitError
from .oracle import LcnfOracle

CONFLICT_BUDGET_ENV = "LCNF_CONFLICT_BUDGET"

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_NOT_APPLICABLE = 3
EXIT_RESOURCE = 4


class FormatWarning(UserWarning):
    """Recoverable inconsistency in an input file (counts off, labels repeated)."""


def _warn(message: str):
    warnings.warn(message, FormatWarning, stacklevel=3)


def _header_mismatches(clauses: list, declared_vars: int, declared_clauses: int) -> list:
    """Warnings for clause and variable counts that disagree with the header."""
    out = []
    if len(clauses) != declared_clauses:
        out.append(f"header declares {declared_clauses} clauses, found {len(clauses)}")
    max_var = max((abs(l) for c in clauses for l in c), default=0)
    if max_var > declared_vars:
        out.append(f"header declares {declared_vars} variables, found variable {max_var}")
    return out


# ---------------------------------------------------------------------------
# parsing


def _parse_header(line: str, lineno: int, kind: str, fields: int) -> list[int]:
    parts = line.split()
    if len(parts) != 2 + fields or parts[0] != "p" or parts[1] != kind:
        raise ParseError(f"malformed header, expected 'p {kind}' with {fields} counts", lineno)
    try:
        counts = [int(x) for x in parts[2:]]
    except ValueError:
        raise ParseError("malformed integer in header", lineno) from None
    if any(c < 0 for c in counts):
        raise ParseError("negative count in header", lineno)
    return counts


def _finish_clause(literals: list[int], lineno: int) -> tuple:
    out: list[int] = []
    seen: set[int] = set()
    for l in literals:
        if -l in seen:
            raise ParseError(
                f"clause contains variable {abs(l)} with both signs", lineno
            )
        if l not in seen:
            seen.add(l)
            out.append(l)
    return tuple(out)


def parse_dimacs(text: str) -> list[tuple]:
    """Parse DIMACS CNF into a list of clauses (tuples of literals).

    Comment lines start with ``c``.  Clauses are zero-terminated and may span
    lines.  Clause-count or variable-count disagreement with the header is a
    warning, not an error.
    """
    header = None
    clauses: list[tuple] = []
    current: list[int] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate header", lineno)
            header = _parse_header(line, lineno, "cnf", 2)
            continue
        if header is None:
            raise ParseError("clause data before the 'p cnf' header", lineno)
        last_line = lineno
        for token in line.split():
            try:
                v = int(token)
            except ValueError:
                raise ParseError(f"malformed integer {token!r}", lineno) from None
            if v == 0:
                clauses.append(_finish_clause(current, lineno))
                current = []
            else:
                current.append(v)
    if header is None:
        raise ParseError("missing 'p cnf' header")
    if current:
        raise ParseError("missing clause terminator 0", last_line)
    for message in _header_mismatches(clauses, *header):
        _warn(message)
    return clauses


def _parse_tagged(text: str, kind: str, header_fields: int):
    """Shared reader for the brace-tagged formats (gcnf, lcnf).

    Yields (header, [(labels, clause, lineno), ...]); each clause sits on one
    line as ``{...} literals 0``.
    """
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate header", lineno)
            header = _parse_header(line, lineno, kind, header_fields)
            continue
        if header is None:
            raise ParseError(f"clause data before the 'p {kind}' header", lineno)
        if not line.startswith("{"):
            raise ParseError("clause line must start with a {...} label block", lineno)
        close = line.find("}")
        if close < 0:
            raise ParseError("unterminated label block", lineno)
        block = line[1:close]
        rest = line[close + 1 :].split()
        raw_labels = []
        for token in block.split():
            try:
                raw_labels.append(int(token))
            except ValueError:
                raise ParseError(f"malformed label {token!r}", lineno) from None
        if not rest or rest[-1] != "0":
            raise ParseError("clause line must end with terminator 0", lineno)
        if "0" in rest[:-1]:
            raise ParseError("literal 0 inside a clause", lineno)
        literals = []
        for token in rest[:-1]:
            try:
                literals.append(int(token))
            except ValueError:
                raise ParseError(f"malformed integer {token!r}", lineno) from None
        rows.append((raw_labels, _finish_clause(literals, lineno), lineno))
    if header is None:
        raise ParseError(f"missing 'p {kind}' header")
    return header, rows


def parse_gcnf(text: str) -> LcnfFormula:
    """Parse group CNF: clauses tagged ``{g}``, group 0 meaning unlabelled."""
    header, rows = _parse_tagged(text, "gcnf", 3)
    declared_vars, declared_clauses, declared_groups = header
    clauses = []
    labelling = []
    for raw_labels, clause, lineno in rows:
        if len(raw_labels) != 1:
            raise ParseError("gcnf clause needs exactly one group tag", lineno)
        g = raw_labels[0]
        if g < 0 or g > declared_groups:
            raise ParseError(
                f"group {g} outside the declared range 0..{declared_groups}", lineno
            )
        clauses.append(clause)
        labelling.append(() if g == 0 else (g,))
    for message in _header_mismatches(clauses, declared_vars, declared_clauses):
        _warn(message)
    return LcnfFormula.from_clauses(clauses, labelling)


def parse_lcnf(text: str) -> LcnfFormula:
    """Parse labelled CNF: clauses tagged with their full label set."""
    header, rows = _parse_tagged(text, "lcnf", 2)
    clauses = []
    labelling = []
    for raw_labels, clause, lineno in rows:
        labels = []
        for l in raw_labels:
            if l < 0:
                raise ParseError(f"negative label {l}", lineno)
            if l in labels:
                _warn(f"line {lineno}: duplicate label {l} in block")
            else:
                labels.append(l)
        clauses.append(clause)
        labelling.append(tuple(labels))
    for message in _header_mismatches(clauses, *header):
        _warn(message)
    return LcnfFormula.from_clauses(clauses, labelling)


# ---------------------------------------------------------------------------
# serialization


def _clause_body(literals: Iterable[int]) -> str:
    lits = sorted(literals, key=lambda l: (abs(l), l < 0))
    return " ".join(str(l) for l in lits) + " 0"


def serialize_dimacs(formula) -> str:
    """DIMACS text for a clause list or the CNF part of a labelled formula."""
    clauses = formula.cnf() if isinstance(formula, LcnfFormula) else [
        tuple(c) for c in formula
    ]
    max_var = max((abs(l) for c in clauses for l in c), default=0)
    lines = [f"p cnf {max_var} {len(clauses)}"]
    lines.extend(_clause_body(c) for c in clauses)
    return "\n".join(lines) + "\n"


def serialize_gcnf(phi: LcnfFormula) -> str:
    """Group CNF text; requires at most one label per clause."""
    rows = []
    groups = 0
    for c in phi.clauses:
        ls = phi.labels_of(c)
        if len(ls) > 1:
            raise ValueError(
                f"clause {c.index} has {len(ls)} labels; gcnf allows at most one"
            )
        g = next(iter(ls)) if ls else 0
        groups = max(groups, g)
        rows.append(f"{{{g}}} {_clause_body(c.literals)}")
    max_var = max((abs(l) for c in phi.clauses for l in c.literals), default=0)
    lines = [f"p gcnf {max_var} {len(rows)} {groups}"]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


def serialize_lcnf(phi: LcnfFormula) -> str:
    """Labelled CNF text with every clause's full label set."""
    rows = []
    for c in phi.clauses:
        block = " ".join(str(l) for l in sorted(phi.labels_of(c)))
        rows.append(f"{{{block}}} {_clause_body(c.literals)}")
    max_var = max((abs(l) for c in phi.clauses for l in c.literals), default=0)
    lines = [f"p lcnf {max_var} {len(rows)}"]
    lines.extend(rows)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# command line

_EXTENSIONS = {
    ".cnf": "dimacs",
    ".dimacs": "dimacs",
    ".gcnf": "gcnf",
    ".lcnf": "lcnf",
}

_FAMILY_ATTRS = ("lmes", "lmus", "lmns", "lmss", "colmns", "colmss")


def _detect_format(path: str, requested: str) -> str:
    if requested != "auto":
        return requested
    fmt = _EXTENSIONS.get(Path(path).suffix.lower())
    if fmt is None:
        raise ParseError(
            f"cannot infer format from {path!r}; pass --format dimacs|gcnf|lcnf"
        )
    return fmt


def _load_formula(args) -> LcnfFormula:
    try:
        text = Path(args.file).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {args.file!r}: {e.strerror}") from None
    fmt = _detect_format(args.file, args.format)
    scheme = args.labelling or ("clause" if fmt == "dimacs" else "file")
    if scheme == "group" and fmt != "gcnf":
        raise ParseError("group labelling needs gcnf input")
    if fmt == "dimacs":
        if scheme == "file":
            raise ParseError("plain dimacs input carries no labels; pick a scheme")
        return label(parse_dimacs(text), scheme)
    phi = parse_gcnf(text) if fmt == "gcnf" else parse_lcnf(text)
    if scheme in ("file", "group"):
        return phi
    return label([c.literals for c in phi.clauses], scheme)


def _parse_label_list(spec: str | None) -> tuple | None:
    if spec is None:
        return None
    spec = spec.strip()
    if not spec:
        return ()
    try:
        return tuple(int(x) for x in spec.replace(",", " ").split())
    except ValueError:
        raise ParseError(f"malformed label list {spec!r}") from None


def _budget(args) -> int | None:
    if args.conflict_budget is not None:
        return args.conflict_budget
    env = os.environ.get(CONFLICT_BUDGET_ENV)
    if env:
        try:
            return int(env)
        except ValueError:
            raise ParseError(
                f"{CONFLICT_BUDGET_ENV} must be an integer, got {env!r}"
            ) from None
    return None


def _formula_info(phi: LcnfFormula, path: str) -> dict:
    return {
        "path": path,
        "variables": len(phi.variables),
        "clauses": len(phi),
        "active_labels": sorted(phi.active_labels),
    }


def _emit_sets(args, phi, family_name: str, sets: Iterable) -> None:
    ordered = sorted((sorted(s) for s in sets), key=tuple)
    if args.json:
        doc = {
            "formula": _formula_info(phi, args.file),
            "family": family_name,
            "sets": ordered,
        }
        print(json.dumps(doc, indent=2))
    else:
        for s in ordered:
            print(" ".join(str(l) for l in s))


def _cmd_check_redundant(args) -> int:
    phi = _load_formula(args)
    oracle = LcnfOracle(phi, conflict_budget=_budget(args))
    redundant = is_label_redundant(phi, args.label, oracle=oracle)
    if args.json:
        doc = {
            "formula": _formula_info(phi, args.file),
            "checks": {"label": args.label, "redundant": redundant},
        }
        print(json.dumps(doc, indent=2))
    else:
        print("redundant" if redundant else "irredundant")
    return EXIT_OK


def _single_set_command(args, family_name: str, compute) -> int:
    phi = _load_formula(args)
    oracle = LcnfOracle(phi, conflict_budget=_budget(args))
    result = compute(phi, oracle)
    _emit_sets(args, phi, family_name, [result])
    return EXIT_OK


def _cmd_lmes(args) -> int:
    order = _parse_label_list(args.order)
    return _single_set_command(
        args, "lmes", lambda phi, ora: compute_lmes(phi, order, oracle=ora)
    )


def _cmd_lmus(args) -> int:
    order = _parse_label_list(args.order)
    return _single_set_command(
        args, "lmus", lambda phi, ora: compute_lmus(phi, order, oracle=ora)
    )


def _cmd_lmss(args) -> int:
    seed = _parse_label_list(args.seed_labels) or ()
    order = _parse_label_list(args.order)
    return _single_set_command(
        args, "lmss", lambda phi, ora: compute_lmss(phi, seed, order, oracle=ora)
    )


def _cmd_lmns(args) -> int:
    seed = _parse_label_list(args.seed_labels) or ()
    order = _parse_label_list(args.order)
    return _single_set_command(
        args, "lmns", lambda phi, ora: compute_lmns(phi, seed, order, oracle=ora)
    )


def _cmd_mcs(args) -> int:
    seed = _parse_label_list(args.seed_labels) or ()
    order = _parse_label_list(args.order)

    def compute(phi, ora):
        return phi.active_labels - compute_lmss(phi, seed, order, oracle=ora)

    return _single_set_command(args, "colmss", compute)


def _existence_gate(report, family_name: str) -> None:
    if family_name == "lmus" and report.satisfiable:
        raise PreconditionError(
            "formula is satisfiable; no unsatisfiable label subset exists"
        )
    if family_name in ("lmns", "colmns") and not report.lmns_exists:
        if not report.active_labels:
            raise PreconditionError(
                "no active labels: the only subformula is the formula itself"
            )
        raise PreconditionError(
            "all labels are redundant: every subformula is equivalent"
        )
    if family_name in ("lmss", "colmss") and not report.lmss_exists:
        raise PreconditionError(
            "unlabelled clauses are unsatisfiable; no satisfiable label set exists"
        )


def _cmd_enum(args) -> int:
    phi = _load_formula(args)
    report = classify_all(phi, max_labels=args.max_labels, jobs=args.jobs)
    _existence_gate(report, args.family)
    family = getattr(report, args.family)
    _emit_sets(args, phi, args.family, family.members)
    return EXIT_OK


def _cmd_verify_duality(args) -> int:
    phi = _load_formula(args)
    report = classify_all(phi, max_labels=args.max_labels, jobs=args.jobs)
    verdict = verify_duality(phi, report)
    if not verdict.applicable:
        raise PreconditionError(f"duality is not applicable: {verdict.reason}")
    checks = verdict.checks()
    if args.json:
        doc = {
            "formula": _formula_info(phi, args.file),
            "checks": {k: bool(v) for k, v in checks.items()},
            "lmes_union": sorted(verdict.lmes_union),
            "lmns_intersection": sorted(verdict.lmns_intersection),
        }
        print(json.dumps(doc, indent=2))
    else:
        for name, value in checks.items():
            print(f"{name.replace('_', '-')}: {'pass' if value else 'fail'}")
        print(f"result: {'pass' if verdict.passed else 'fail'}")
    return EXIT_OK if verdict.passed else EXIT_VIOLATED


def _cmd_stats(args) -> int:
    phi = _load_formula(args)
    oracle = LcnfOracle(phi, conflict_budget=_budget(args))
    satisfiable = oracle.is_sat_induced(phi.active_labels)
    per_label = {l: len(phi.clauses_with_label(l)) for l in sorted(phi.active_labels)}
    if args.json:
        doc = {
            "formula": _formula_info(phi, args.file),
            "stats": {
                "unlabelled_clauses": len(phi.unlabelled_clauses),
                "clauses_per_label": per_label,
                "satisfiable": satisfiable,
            },
        }
        print(json.dumps(doc, indent=2))
    else:
        print(f"variables: {len(phi.variables)}")
        print(f"clauses: {len(phi)}")
        print(f"unlabelled-clauses: {len(phi.unlabelled_clauses)}")
        print("active-labels:", " ".join(str(l) for l in sorted(phi.active_labels)))
        for l, n in per_label.items():
            print(f"label {l}: {n} clauses")
        print(f"status: {'SAT' if satisfiable else 'UNSAT'}")
    return EXIT_OK


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format",
        choices=["auto", "dimacs", "gcnf", "lcnf"],
        default="auto",
        help="input format (default: by file extension)",
    )
    common.add_argument(
        "--labelling",
        choices=["clause", "group", "variable", "literal", "file"],
        default=None,
        help="labelling scheme; defaults to clause for dimacs, file otherwise",
    )
    common.add_argument("--max-labels", type=int, default=16,
                        help="refuse exhaustive analysis beyond this many labels")
    common.add_argument("--conflict-budget", type=int, default=None,
                        help=f"solver conflict budget per query (default ${CONFLICT_BUDGET_ENV})")
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--jobs", type=_positive_int, default=1,
                        help="worker processes for exhaustive analysis (at least 1; "
                        "capped at the CPU count and the chunk count)")
    common.add_argument("file", help="input formula file")

    parser = argparse.ArgumentParser(
        prog="lcnf",
        description="Redundancy analysis of labelled CNF formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-redundant", parents=[common],
                       help="decide whether one label is redundant")
    p.add_argument("--label", type=int, required=True)
    p.set_defaults(handler=_cmd_check_redundant)

    p = sub.add_parser("lmes", parents=[common],
                       help="one minimal equivalence-preserving label set")
    p.add_argument("--order", help="comma-separated label order")
    p.set_defaults(handler=_cmd_lmes)

    p = sub.add_parser("lmus", parents=[common],
                       help="one minimal unsatisfiable label set")
    p.add_argument("--order", help="comma-separated label order")
    p.set_defaults(handler=_cmd_lmus)

    p = sub.add_parser("lmss", parents=[common],
                       help="one maximal satisfiable label set")
    p.add_argument("--seed-labels", help="labels the result must contain")
    p.add_argument("--order", help="comma-separated label order")
    p.set_defaults(handler=_cmd_lmss)

    p = sub.add_parser("mcs", parents=[common],
                       help="one minimal correction set (complement of an lmss)")
    p.add_argument("--seed-labels", help="labels the underlying lmss must contain")
    p.add_argument("--order", help="comma-separated label order")
    p.set_defaults(handler=_cmd_mcs)

    p = sub.add_parser("lmns", parents=[common],
                       help="one maximal non-equivalent label set")
    p.add_argument("--seed-labels", help="labels the result must contain")
    p.add_argument("--order", help="comma-separated label order")
    p.set_defaults(handler=_cmd_lmns)

    p = sub.add_parser("enum", parents=[common],
                       help="enumerate a complete witness family exhaustively")
    p.add_argument("--family", choices=list(_FAMILY_ATTRS), required=True)
    p.set_defaults(handler=_cmd_enum)

    p = sub.add_parser("verify-duality", parents=[common],
                       help="check the hitting-set duality on this formula")
    p.set_defaults(handler=_cmd_verify_duality)

    p = sub.add_parser("stats", parents=[common], help="formula statistics")
    p.set_defaults(handler=_cmd_stats)

    return parser


def main(argv: Iterable[str] | None = None) -> int:
    """Run the command line; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv) if argv is not None else None)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_INPUT
    try:
        return args.handler(args)
    except ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except PreconditionError as e:
        print(f"not applicable: {e}", file=sys.stderr)
        return EXIT_NOT_APPLICABLE
    except ResourceLimitError as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE


def console_main() -> None:
    sys.exit(main())
