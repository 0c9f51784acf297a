"""File formats and the command-line interface.

Three input formats are supported:

* DIMACS CNF (``p cnf V C``): plain clauses, labelled on load via one of the
  labelling schemes;
* group CNF (``p gcnf V C G``): every clause line starts with a ``{g}`` group
  tag, group 0 meaning unlabelled;
* labelled CNF (``p lcnf V C``): every clause line starts with a brace block
  holding the clause's full label set, e.g. ``{1 3} -2 4 0``.

All three skip blank and ``c`` lines and need exactly one ``p`` header
before any data.  Header count mismatches and labels repeated in a block
warn; structural problems (missing terminator, bad tokens, complementary
literals in one clause) are errors with line numbers.  Each reader makes
one pass over a well-formed file, on a short path: the header, then for
DIMACS the whole body's tokens converted at once and cut at their zeros,
for the tagged formats one split per line, and per clause one sort and
one distinctness test.  Anything off that path, an error or a warning to
give, sends the whole file to the diagnosing reader (``diagnose``),
which names the first problem and its line exactly as it always has; it
is imported only then, so a cold start on well-formed files never
compiles it.  Each clause is checked once, as its line is parsed into
the formula's row (see ``core``); relabelling on load reads the rows with
no second check.

The ``lcnf`` command exposes the analysis operations over these files, the
five single-witness commands from one table.  Each command takes only the
options it reads: ``--format``, ``--labelling``, ``--json`` and ``--jobs``
everywhere; ``--max-labels`` on the exhaustive ``enum`` and
``verify-duality``; ``--conflict-budget`` on the other seven, which build
one oracle and spend at most that many solver conflicts over the whole
command.  An option that only other commands take is an input error that
names it.  Exit codes: 0 success, 1 a verified property failed, 2 input
error, 3 the request is not applicable to this formula, 4 a resource budget
was exceeded.  Results go to stdout, one label set per line as sorted
space-separated integers; diagnostics go to stderr.  Output is
deterministic for a given input, options and package version; ``--jobs`` is
accepted for old scripts and changes nothing.
"""
from __future__ import annotations

import argparse
import functools
import sys
import warnings
from collections import Counter
from itertools import repeat
from pathlib import Path
from typing import Iterable

from .analysis import (
    REASON_ALL_REDUNDANT,
    REASON_NO_ACTIVE_LABELS,
    REASON_SATISFIABLE,
    REASON_UNSAT_UNLABELLED,
    compute_lmes,
    compute_lmns,
    compute_lmss,
    compute_lmus,
    is_label_redundant,
)
from .bruteforce import DEFAULT_MAX_LABELS, classify_all
from .core import LcnfFormula, label
from .duality import verify_duality
from .errors import ParseError, PreconditionError, ResourceLimitError
from .oracle import LcnfOracle

EXIT_OK = 0
EXIT_VIOLATED = 1
EXIT_INPUT = 2
EXIT_NOT_APPLICABLE = 3
EXIT_RESOURCE = 4


class FormatWarning(UserWarning):
    """Recoverable inconsistency in an input file (counts off, labels repeated)."""


# ---------------------------------------------------------------------------
# parsing


def _header(lines: list[str], kind: str, fields: int) -> tuple[list[int], int] | None:
    """The header counts and the index of the line after the header, when
    only blank and ``c`` lines come before one well-formed ``p kind`` header;
    None otherwise."""
    for i, raw in enumerate(lines):
        line = raw.strip()
        if line and line[0] != "c":
            parts = line.split()
            if len(parts) == 2 + fields and parts[0] == "p" and parts[1] == kind:
                try:
                    header = list(map(int, parts[2:]))
                except ValueError:
                    return None
                if min(header) >= 0:
                    return header, i + 1
            return None
    return None


def _clean_dimacs(lines: list[str]) -> tuple[list[int], list[tuple]] | None:
    """The header and clauses of a DIMACS file whose body is all clause
    data, with no literal repeated in a clause; None otherwise.

    The body's tokens are converted at once and cut at their zeros; a
    comment, a second header or a malformed token fails the conversion.
    """
    head = _header(lines, "cnf", 2)
    if head is None:
        return None
    tokens = " ".join(lines[head[1] :]).split()
    try:
        # a file repeats few distinct tokens: convert each once
        ints = list(map({t: int(t) for t in set(tokens)}.__getitem__, tokens))
    except ValueError:
        return None
    if ints and ints[-1]:
        return None  # the last clause has no terminator
    clauses = []
    zero = ints.index
    start = 0
    while start < len(ints):
        end = zero(0, start)
        lits = ints[start:end]
        lits.sort(key=abs)  # distinct variables: the canonical order
        if len(set(map(abs, lits))) < len(lits):
            return None  # a literal repeated, or a complementary pair
        clauses.append(tuple(lits))
        start = end + 1
    return head[0], clauses


def _clean_tagged(lines: list[str], kind: str, fields: int) -> tuple | None:
    """The header, clauses, label sets and (no) warning notes of a ``p
    kind`` file whose lines after the header are blank, ``c`` or
    well-formed clause lines with no literal or label repeated and every
    label or group in range; None otherwise."""
    head = _header(lines, kind, fields)
    if head is None:
        return None
    header, start = head
    groups = header[2] if kind == "gcnf" else None
    clauses = []
    labelling = []
    for raw in lines[start:]:
        tag, _, rest = raw.partition("}")
        tag = tag.lstrip()
        if tag[:1] != "{":
            line = raw.strip()
            if line and line[0] != "c":
                return None
            continue
        tokens = rest.split()
        if not tokens or tokens.pop() != "0":
            return None  # no terminator, or no "}" to end the block
        try:
            block = list(map(int, tag[1:].split()))
            lits = list(map(int, tokens))
        except ValueError:
            return None
        lits.sort(key=abs)
        if len(set(map(abs, lits))) < len(lits) or 0 in lits:
            return None
        labels = frozenset(block)
        if groups is None:
            if len(labels) < len(block) or block and min(block) < 0:
                return None
        elif len(block) != 1 or not 0 <= block[0] <= groups:
            return None
        elif not block[0]:
            labels = frozenset()
        clauses.append(tuple(lits))
        labelling.append(labels)
    return header, clauses, labelling, []


def _warn(header: list[int], clauses: list[tuple], notes: list[str], stacklevel: int):
    """Warn, ``stacklevel`` frames up, about ``notes`` and about clause and
    variable counts that disagree with the header."""
    declared_vars, declared_clauses = header[:2]
    if len(clauses) != declared_clauses:
        notes.append(f"header declares {declared_clauses} clauses, found {len(clauses)}")
    # each clause's last literal has its largest variable
    max_var = max((abs(c[-1]) for c in clauses if c), default=0)
    if max_var > declared_vars:
        notes.append(f"header declares {declared_vars} variables, found variable {max_var}")
    for message in notes:
        warnings.warn(message, FormatWarning, stacklevel=stacklevel + 1)


def parse_dimacs(text: str) -> list[tuple]:
    """Parse DIMACS CNF into a list of clauses (tuples of literals).

    Comment lines start with ``c``.  Clauses are zero-terminated and may span
    lines.  Each clause's literals come distinct and in the canonical order
    (``sort_literals``).  A clause or variable count that disagrees with
    the header is a warning, not an error.
    """
    lines = text.splitlines()
    found = _clean_dimacs(lines)
    if found is None:
        from .diagnose import read_dimacs

        found = read_dimacs(lines)
    header, clauses = found
    _warn(header, clauses, [], 2)
    return clauses


def _tagged(text: str, kind: str, fields: int) -> LcnfFormula:
    """The formula of a brace-tagged format.

    Each clause sits on one line as ``{...} literals 0``; the block holds
    the clause's labels (``lcnf``) or its one group (``gcnf``).  Labels
    repeated in a block, and counts that disagree with the header, warn at
    the caller of the format's parser.
    """
    lines = text.splitlines()
    found = _clean_tagged(lines, kind, fields)
    if found is None:
        from .diagnose import read_tagged

        found = read_tagged(lines, kind, fields)
    header, clauses, labelling, notes = found
    _warn(header, clauses, notes, 3)
    return LcnfFormula(zip(clauses, labelling))


def parse_gcnf(text: str) -> LcnfFormula:
    """Parse group CNF: clauses tagged ``{g}``, group 0 meaning unlabelled."""
    return _tagged(text, "gcnf", 3)


def parse_lcnf(text: str) -> LcnfFormula:
    """Parse labelled CNF: clauses tagged with their full label set."""
    return _tagged(text, "lcnf", 2)


# ---------------------------------------------------------------------------
# command line

_EXTENSIONS = {
    ".cnf": "dimacs",
    ".dimacs": "dimacs",
    ".gcnf": "gcnf",
    ".lcnf": "lcnf",
}

_FAMILY_ATTRS = ("lmes", "lmus", "lmns", "lmss", "colmns", "colmss")


def _load_formula(args) -> LcnfFormula:
    try:
        text = Path(args.file).read_text()
    except OSError as e:
        raise ParseError(f"cannot read {args.file!r}: {e.strerror}") from None
    fmt = args.format
    if fmt == "auto":
        fmt = _EXTENSIONS.get(Path(args.file).suffix.lower())
        if fmt is None:
            raise ParseError(
                f"cannot infer format from {args.file!r}; pass --format dimacs|gcnf|lcnf"
            )
    scheme = args.labelling or ("clause" if fmt == "dimacs" else "file")
    if scheme == "group" and fmt != "gcnf":
        raise ParseError("group labelling needs gcnf input")
    if fmt == "dimacs":
        if scheme == "file":
            raise ParseError("plain dimacs input carries no labels; pick a scheme")
        # parse_dimacs checks each clause and sorts its literals, so its
        # clauses are the literals of unlabelled rows as they stand
        phi = LcnfFormula(zip(parse_dimacs(text), repeat(frozenset())))
    else:
        phi = parse_gcnf(text) if fmt == "gcnf" else parse_lcnf(text)
        if scheme in ("file", "group"):
            return phi
    return label(phi, scheme)


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


def _int_at_least(low: int, text: str) -> int:
    """``text`` as an integer of at least ``low``; with ``low`` bound, an
    argparse type."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
    return value


def _emit(args, phi, fields: dict, lines: Iterable[str]) -> None:
    """Print ``fields`` after the formula's description as JSON under
    ``--json``, else the text ``lines``."""
    if args.json:
        import json  # here, so that only --json runs pay for it

        formula = {
            "path": args.file,
            "variables": len(phi.variables),
            "clauses": len(phi),
            "active_labels": sorted(phi.active_labels),
        }
        print(json.dumps({"formula": formula, **fields}, indent=2))
    else:
        for line in lines:
            print(line)


def _emit_sets(args, phi, family_name: str, sets: Iterable) -> None:
    ordered = sorted((sorted(s) for s in sets), key=tuple)
    lines = (" ".join(str(l) for l in s) for s in ordered)
    _emit(args, phi, {"family": family_name, "sets": ordered}, lines)


def _cmd_check_redundant(args) -> int:
    phi = _load_formula(args)
    oracle = LcnfOracle(phi, conflict_budget=args.conflict_budget)
    redundant = is_label_redundant(phi, args.label, oracle=oracle)
    checks = {"label": args.label, "redundant": redundant}
    _emit(args, phi, {"checks": checks}, ["redundant" if redundant else "irredundant"])
    return EXIT_OK


# command -> (printed family, help, --seed-labels help or None, compute).
# ``compute(phi, seed, order, oracle)`` names the analysis functions inside
# its body, so they are looked up in this module when it runs.
_WITNESSES = {
    "lmes": ("lmes", "one minimal equivalence-preserving label set", None,
             lambda phi, seed, order, ora: compute_lmes(phi, order, oracle=ora)),
    "lmus": ("lmus", "one minimal unsatisfiable label set", None,
             lambda phi, seed, order, ora: compute_lmus(phi, order, oracle=ora)),
    "lmss": ("lmss", "one maximal satisfiable label set", "labels the result must contain",
             lambda phi, seed, order, ora: compute_lmss(phi, seed, order, oracle=ora)),
    "mcs": ("colmss", "one minimal correction set (complement of an lmss)",
            "labels the underlying lmss must contain",
            lambda phi, seed, order, ora:
                phi.active_labels - compute_lmss(phi, seed, order, oracle=ora)),
    "lmns": ("lmns", "one maximal non-equivalent label set", "labels the result must contain",
             lambda phi, seed, order, ora: compute_lmns(phi, seed, order, oracle=ora)),
}


def _cmd_witness(args) -> int:
    family_name, _, _, compute = _WITNESSES[args.command]
    seed = _parse_label_list(args.seed_labels) or ()
    order = _parse_label_list(args.order)
    phi = _load_formula(args)
    oracle = LcnfOracle(phi, conflict_budget=args.conflict_budget)
    _emit_sets(args, phi, family_name, [compute(phi, seed, order, oracle)])
    return EXIT_OK


def _cmd_enum(args) -> int:
    phi = _load_formula(args)
    report = classify_all(phi, max_labels=args.max_labels)
    # a family with no member is refused with the reason the witness has none
    if args.family == "lmus" and report.satisfiable:
        raise PreconditionError(REASON_SATISFIABLE)
    if args.family in ("lmns", "colmns") and not report.lmns_exists:
        if not report.active_labels:
            raise PreconditionError(REASON_NO_ACTIVE_LABELS)
        raise PreconditionError(REASON_ALL_REDUNDANT)
    if args.family in ("lmss", "colmss") and not report.lmss_exists:
        raise PreconditionError(REASON_UNSAT_UNLABELLED)
    _emit_sets(args, phi, args.family, getattr(report, args.family).canonical())
    return EXIT_OK


def _cmd_verify_duality(args) -> int:
    phi = _load_formula(args)
    report = classify_all(phi, max_labels=args.max_labels)
    verdict = verify_duality(phi, report)
    if not verdict.applicable:
        raise PreconditionError(f"duality is not applicable: {verdict.reason}")
    checks = verdict.checks()
    fields = {
        "checks": {k: bool(v) for k, v in checks.items()},
        "lmes_union": sorted(verdict.lmes_union),
        "lmns_intersection": sorted(verdict.lmns_intersection),
    }
    lines = [
        f"{name.replace('_', '-')}: {'pass' if value else 'fail'}"
        for name, value in [*checks.items(), ("result", verdict.passed)]
    ]
    _emit(args, phi, fields, lines)
    return EXIT_OK if verdict.passed else EXIT_VIOLATED


def _cmd_stats(args) -> int:
    phi = _load_formula(args)
    oracle = LcnfOracle(phi, conflict_budget=args.conflict_budget)
    satisfiable = oracle.is_sat_induced(phi.mask_of(phi.active_labels))
    per_label = dict(sorted(Counter(l for _, labels in phi.rows for l in labels).items()))
    unlabelled = phi.label_masks.count(0)
    stats = {
        "unlabelled_clauses": unlabelled,
        "clauses_per_label": per_label,
        "satisfiable": satisfiable,
    }
    lines = [
        f"variables: {len(phi.variables)}",
        f"clauses: {len(phi)}",
        f"unlabelled-clauses: {unlabelled}",
        "active-labels: " + " ".join(str(l) for l in sorted(phi.active_labels)),
        *(f"label {l}: {n} clauses" for l, n in per_label.items()),
        f"status: {'SAT' if satisfiable else 'UNSAT'}",
    ]
    _emit(args, phi, {"stats": stats}, lines)
    return EXIT_OK


class _OtherCommandsOption(argparse.Action):
    """An option that only other commands take: naming it is the error,
    so argparse cannot bind the value after it to FILE instead."""

    def __init__(self, option_strings, dest, takers, **kwargs):
        super().__init__(option_strings, dest, nargs="?", default=argparse.SUPPRESS,
                         help=argparse.SUPPRESS, **kwargs)
        self.takers = takers

    def __call__(self, parser, namespace, values, option_string=None):
        command = parser.prog.rsplit(" ", 1)[-1]
        raise argparse.ArgumentError(
            self, f"{command} does not take this option; only {', '.join(self.takers)} do"
        )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``lcnf`` argument parser, built once per process."""
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
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument("--jobs", type=functools.partial(_int_at_least, 1), default=1,
                        help="accepted for compatibility and ignored: analysis runs in "
                        "one process (at least 1)")
    common.add_argument("file", help="input formula file")
    # the commands that build an oracle, and the two exhaustive ones
    budgeted = argparse.ArgumentParser(add_help=False, parents=[common])
    budgeted.add_argument("--conflict-budget", type=functools.partial(_int_at_least, 0),
                          help="solver conflicts the whole command may spend "
                          "(default: no limit)")
    exhaustive = argparse.ArgumentParser(add_help=False, parents=[common])
    exhaustive.add_argument("--max-labels", type=functools.partial(_int_at_least, 0),
                            default=DEFAULT_MAX_LABELS,
                            help="refuse exhaustive analysis beyond this many labels")

    parser = argparse.ArgumentParser(
        prog="lcnf",
        description="Redundancy analysis of labelled CNF formulas.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parents = {}  # command -> the parser of its placed option

    def add(command, parent, **kwargs):
        parents[command] = parent
        return sub.add_parser(command, parents=[parent], **kwargs)

    p = add("check-redundant", budgeted, help="decide whether one label is redundant")
    p.add_argument("--label", type=int, required=True)
    p.set_defaults(handler=_cmd_check_redundant)

    for command, (_, help_text, seed_help, _) in _WITNESSES.items():
        p = add(command, budgeted, help=help_text)
        if seed_help is not None:
            p.add_argument("--seed-labels", help=seed_help)
        p.add_argument("--order", help="comma-separated label order")
        p.set_defaults(handler=_cmd_witness, seed_labels=None)

    p = add("enum", exhaustive, help="enumerate a complete witness family exhaustively")
    p.add_argument("--family", choices=list(_FAMILY_ATTRS), required=True)
    p.set_defaults(handler=_cmd_enum)

    p = add("verify-duality", exhaustive, help="check the hitting-set duality on this formula")
    p.set_defaults(handler=_cmd_verify_duality)

    p = add("stats", budgeted, help="facts about the formula: sizes, labels, satisfiability")
    p.set_defaults(handler=_cmd_stats)

    for option, owner in (("--conflict-budget", budgeted), ("--max-labels", exhaustive)):
        takers = [c for c, parent in parents.items() if parent is owner]
        for command, parent in parents.items():
            if parent is not owner:
                sub.choices[command].add_argument(
                    option, action=_OtherCommandsOption, takers=takers
                )
    return parser


def _show_warning(show, message, category, *args, **kwargs):
    """Print a format warning as one ``warning:`` line; hand others to ``show``."""
    if issubclass(category, FormatWarning):
        print(f"warning: {message}", file=sys.stderr)
    else:
        show(message, category, *args, **kwargs)


def main(argv: Iterable[str] | None = None) -> int:
    """Run the command line; returns the exit code.

    Format warnings go to stderr as ``warning: <message>``, on every call.
    """
    try:
        args = build_parser().parse_args(list(argv) if argv is not None else None)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_INPUT
    with warnings.catch_warnings():
        warnings.simplefilter("always", FormatWarning)
        warnings.showwarning = functools.partial(_show_warning, warnings.showwarning)
        try:
            return args.handler(args)
        except (ParseError, ValueError) as e:
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
