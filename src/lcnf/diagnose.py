"""The diagnosing readers behind the parsers of ``interface``.

A file off the parsers' short path is read again here by the code that
names each problem and its line: ``_read`` checks the header and numbers
the data lines, and each format's loop then checks every clause line.
Structural problems raise ParseError; a repeated literal collapses, and
labels repeated in a block collapse with a note for the parser to warn
about.  The parsers import this module only for such a file, so a cold
start on well-formed files never compiles it.
"""
from __future__ import annotations

from .core import complementary_variable, sort_literals
from .errors import ParseError


def _read(lines: list[str], kind: str, fields: int) -> tuple[list[int], list[tuple[int, str]]]:
    """The header counts and the numbered data lines of a ``p kind`` file.

    Blank lines and ``c`` comment lines are skipped; exactly one header with
    ``fields`` counts must come before any data line.
    """
    header = None
    data = []
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            if header is not None:
                raise ParseError("duplicate header", lineno)
            parts = line.split()
            if len(parts) != 2 + fields or parts[0] != "p" or parts[1] != kind:
                raise ParseError(
                    f"malformed header, expected 'p {kind}' with {fields} counts", lineno
                )
            try:
                header = [int(x) for x in parts[2:]]
            except ValueError:
                raise ParseError("malformed integer in header", lineno) from None
            if any(c < 0 for c in header):
                raise ParseError("negative count in header", lineno)
        elif header is None:
            raise ParseError(f"clause data before the 'p {kind}' header", lineno)
        else:
            data.append((lineno, line))
    if header is None:
        raise ParseError(f"missing 'p {kind}' header")
    return header, data


def _int(token: str, lineno: int, what: str = "integer") -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"malformed {what} {token!r}", lineno) from None


def _ints(tokens: list[str], lineno: int, what: str = "integer") -> list[int]:
    try:
        return list(map(int, tokens))
    except ValueError:
        # name the first malformed token
        return [_int(token, lineno, what) for token in tokens]


def _clause(literals: list[int], lineno: int) -> tuple:
    """The row literals of a data line's clause: distinct, in the canonical
    order (``sort_literals``).  A complementary pair is an error naming the
    first literal, in file order, whose negation came before it."""
    lits = sort_literals(literals)
    if len(set(map(abs, lits))) < len(lits):
        # a literal repeated, or a complementary pair
        v = complementary_variable(literals)
        if v:
            raise ParseError(f"clause contains variable {v} with both signs", lineno)
        lits = sort_literals(set(literals))
    return lits


def read_dimacs(lines: list[str]) -> tuple[list[int], list[tuple]]:
    """The header and clauses of a DIMACS file: errors name their line, and
    repeated literals collapse."""
    header, data = _read(lines, "cnf", 2)
    clauses = []
    current: list[int] = []
    for lineno, line in data:
        current += _ints(line.split(), lineno)
        while 0 in current:
            end = current.index(0)
            clauses.append(_clause(current[:end], lineno))
            del current[: end + 1]
    if current:
        raise ParseError("missing clause terminator 0", data[-1][0])
    return header, clauses


def read_tagged(lines: list[str], kind: str, fields: int) -> tuple:
    """The header, clauses, label sets and warning notes of a brace-tagged
    file: errors name their line, and labels repeated in a block collapse
    with a note."""
    header, data = _read(lines, kind, fields)
    block_labels = _group_tag if kind == "gcnf" else _label_block
    clauses = []
    labelling = []
    notes = []
    for lineno, line in data:
        if not line.startswith("{"):
            raise ParseError("clause line must start with a {...} label block", lineno)
        close = line.find("}")
        if close < 0:
            raise ParseError("unterminated label block", lineno)
        block = _ints(line[1:close].split(), lineno, "label")
        rest = line[close + 1 :].split()
        if not rest or rest[-1] != "0":
            raise ParseError("clause line must end with terminator 0", lineno)
        literals = _ints(rest[:-1], lineno)
        if 0 in literals:
            raise ParseError("literal 0 inside a clause", lineno)
        clauses.append(_clause(literals, lineno))
        labels = block_labels(block, header, lineno)
        label_set = frozenset(labels)
        if len(label_set) != len(labels):
            notes += [
                f"line {lineno}: duplicate label {l} in block"
                for i, l in enumerate(labels)
                if l in labels[:i]
            ]
        labelling.append(label_set)
    return header, clauses, labelling, notes


def _group_tag(block: list[int], header: list[int], lineno: int) -> tuple:
    if len(block) != 1:
        raise ParseError("gcnf clause needs exactly one group tag", lineno)
    g, groups = block[0], header[2]
    if g < 0 or g > groups:
        raise ParseError(f"group {g} outside the declared range 0..{groups}", lineno)
    return () if g == 0 else (g,)


def _label_block(block: list[int], header: list[int], lineno: int) -> list[int]:
    for l in block:
        if l < 0:
            raise ParseError(f"negative label {l}", lineno)
    return block
