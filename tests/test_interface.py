"""File formats, the command line, the package's export list and its records."""
import json
import random
import shutil
import subprocess
import sys
import types
import warnings
from pathlib import Path

import pytest

import lcnf
from lcnf.analysis import REASON_SATISFIABLE
from lcnf.bruteforce import GenerationProfile, SubsetStatus, random_lcnf
from lcnf.core import LcnfFormula, label
from lcnf.duality import DualityVerdict
from lcnf.errors import ParseError
from lcnf.diagnose import read_dimacs, read_tagged
from lcnf.interface import (
    FormatWarning,
    _clean_dimacs,
    _clean_tagged,
    parse_dimacs,
    parse_gcnf,
    parse_lcnf,
    main,
)
from lcnf.oracle import SatOutcome

from conftest import (
    WORKED_CLAUSES,
    WORKED_LABELS,
    WORKED_LCNF,
    cnf,
    formula_text,
    run_cli,
    run_cli_streams,
)


# -- dimacs -----------------------------------------------------------------


def test_parse_dimacs_basic():
    assert parse_dimacs("p cnf 2 2\n1 2 0\n-1 0\n") == [(1, 2), (-1,)]


def test_parse_dimacs_empty_formula():
    assert parse_dimacs("p cnf 1 0\n") == []


def test_parse_dimacs_comments_and_multiline_clauses():
    text = "c intro\np cnf 3 2\nc mid\n1 2\n3 0 -1\n-2 0\n"
    assert parse_dimacs(text) == [(1, 2, 3), (-1, -2)]


def test_parse_dimacs_deduplicates_repeated_literal():
    assert parse_dimacs("p cnf 1 1\n1 1 0\n") == [(1,)]


def test_parse_dimacs_rejects_complementary_literals():
    with pytest.raises(ParseError) as e:
        parse_dimacs("p cnf 2 1\n1 -1 0\n")
    assert e.value.line == 2


def test_parse_dimacs_rejects_missing_header():
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("")
    for parse, text in [
        (parse_dimacs, "c only a comment\n"),
        (parse_gcnf, "\nc only a comment\n"),
        (parse_lcnf, ""),
    ]:
        with pytest.raises(ParseError, match="missing 'p") as e:
            parse(text)
        assert e.value.line is None


def test_parse_dimacs_rejects_duplicate_header():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1 1\np cnf 1 1\n1 0\n")
    for parse, text in [
        (parse_gcnf, "p gcnf 1 1 1\nc\np gcnf 1 1 1\n{1} 1 0\n"),
        (parse_lcnf, "p lcnf 1 1\n{1} 1 0\np lcnf 1 1\n"),
    ]:
        with pytest.raises(ParseError, match="duplicate header") as e:
            parse(text)
        assert e.value.line == 3


def test_parse_dimacs_rejects_malformed_header():
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 1\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf one 1\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf -1 1\n")


def test_parse_dimacs_rejects_malformed_integer():
    with pytest.raises(ParseError) as e:
        parse_dimacs("p cnf 1 1\n1 x 0\n")
    assert "x" in str(e.value) and e.value.line == 2
    for parse, text, what in [
        (parse_gcnf, "p gcnf 1 2 1\n{1} 1 0\n{1} 1 x 0\n", "integer 'x'"),
        (parse_gcnf, "p gcnf 1 2 1\n{1} 1 0\n{x} 1 0\n", "label 'x'"),
        (parse_lcnf, "p lcnf 2 2\n{1} 1 0\n{1} 2 y 0\n", "integer 'y'"),
        (parse_lcnf, "p lcnf 2 2\n{1} 1 0\n{1 y} 2 0\n", "label 'y'"),
    ]:
        with pytest.raises(ParseError, match=f"malformed {what}") as e:
            parse(text)
        assert e.value.line == 3


def test_malformed_integer_keeps_its_message_and_line_on_every_path():
    # each data line's integers are converted at once; a malformed token
    # falls back to the token-by-token conversion that names it
    for parse, text, what, line in [
        # the second line of a multi-line clause
        (parse_dimacs, "p cnf 3 2\n1 0\n2 -3\n3 1z 0\n", "integer '1z'", 4),
        # the middle of a clause
        (parse_dimacs, "p cnf 3 2\n1 0\n2 - -3 0\n", "integer '-'", 3),
        (parse_lcnf, "p lcnf 3 2\n{1} 1 0\n{2} 2 3.0 -3 0\n", "integer '3.0'", 3),
        # a label block
        (parse_lcnf, "p lcnf 3 2\n{1} 1 0\n{2 two 3} 2 0\n", "label 'two'", 3),
        (parse_gcnf, "p gcnf 3 2 2\n{1} 1 0\n{2.} 2 0\n", "label '2.'", 3),
    ]:
        with pytest.raises(ParseError, match=f"^line {line}: malformed {what}$") as e:
            parse(text)
        assert e.value.line == line


def test_parsed_clauses_come_sorted_and_distinct():
    # one row per clause, in the order the serializers write: by variable,
    # the positive literal first
    assert parse_dimacs("p cnf 4 2\n-3 2 -1\n2 0 4 -2 0\n") == [(-1, 2, -3), (-2, 4)]
    phi = parse_lcnf("p lcnf 4 2\n{2 1} -3 2 -1 2 0\n{} 4 1 0\n")
    assert phi.rows == (((-1, 2, -3), frozenset({1, 2})), ((1, 4), frozenset()))
    # a clause spanning lines is reported on the line that ends it
    with pytest.raises(ParseError, match="^line 3: clause contains variable 3 with both signs$"):
        parse_dimacs("p cnf 4 1\n2 3 1\n-3 -2 0\n")


def test_a_complementary_pair_is_named_by_the_first_literal_whose_negation_came_before():
    # the parsers and from_clauses share one finder and keep their own
    # messages; by input order, -2 is the first such literal, not -1
    clause = (2, -2, 1, -1)
    with pytest.raises(ParseError, match="^line 2: clause contains variable 2 with both signs$"):
        parse_dimacs("p cnf 2 1\n2 -2 1 -1 0\n")
    with pytest.raises(ParseError, match="^line 2: clause contains variable 2 with both signs$"):
        parse_lcnf("p lcnf 2 1\n{1} 2 -2 1 -1 0\n")
    with pytest.raises(ValueError, match="^clause 0 contains both 2 and its negation$"):
        LcnfFormula.from_clauses([clause])
    with pytest.raises(ValueError, match="^clause 1 contains both 1 and its negation$"):
        label([(1,), (1, 2, -1, -2)])


def test_minus_zero_inside_a_labelled_clause_is_refused():
    # "-0", "+0" and "00" are the integer 0, refused on their own line
    for zero in ("-0", "+0", "00"):
        text = f"p lcnf 2 3\n{{1}} 1 {zero} 0\n{{2}} 2 0\n"
        with pytest.raises(ParseError, match="^line 2: literal 0 inside a clause$"):
            parse_lcnf(text)


def test_parse_dimacs_rejects_unterminated_clause():
    with pytest.raises(ParseError) as e:
        parse_dimacs("p cnf 2 1\n1 2\n")
    assert "terminator" in str(e.value)


def test_parse_dimacs_warns_on_clause_count_mismatch():
    with pytest.warns(FormatWarning, match="3 clauses, found 1"):
        assert parse_dimacs("p cnf 1 3\n1 0\n") == [(1,)]
    with pytest.warns(FormatWarning, match="3 clauses, found 1"):
        assert len(parse_gcnf("p gcnf 1 3 1\n{1} 1 0\n")) == 1
    with pytest.warns(FormatWarning, match="3 clauses, found 1"):
        assert len(parse_lcnf("p lcnf 1 3\n{1} 1 0\n")) == 1


def test_parse_dimacs_warns_on_variable_overflow():
    with pytest.warns(FormatWarning, match="found variable 5"):
        parse_dimacs("p cnf 1 1\n5 0\n")
    with pytest.warns(FormatWarning, match="found variable 5"):
        parse_gcnf("p gcnf 1 1 1\n{1} 5 0\n")
    with pytest.warns(FormatWarning, match="found variable 5"):
        parse_lcnf("p lcnf 1 1\n{1} 5 0\n")


# -- gcnf -------------------------------------------------------------------


def test_parse_gcnf_basic():
    phi = parse_gcnf("p gcnf 1 2 1\n{0} 1 0\n{1} -1 0\n")
    assert phi.labels_of(0) == frozenset()
    assert phi.labels_of(1) == frozenset({1})
    assert cnf(phi) == [(1,), (-1,)]


def test_parse_gcnf_all_group_zero_has_no_active_labels():
    phi = parse_gcnf("p gcnf 2 2 0\n{0} 1 0\n{0} 2 0\n")
    assert phi.active_labels == frozenset()


def test_parse_gcnf_rejects_out_of_range_group():
    with pytest.raises(ParseError) as e:
        parse_gcnf("p gcnf 1 1 1\n{2} 1 0\n")
    assert e.value.line == 2


def test_parse_gcnf_rejects_multiple_tags():
    with pytest.raises(ParseError):
        parse_gcnf("p gcnf 1 1 2\n{1 2} 1 0\n")


def test_parse_gcnf_rejects_missing_block():
    with pytest.raises(ParseError):
        parse_gcnf("p gcnf 1 1 1\n1 0\n")


def test_parse_gcnf_rejects_unterminated_block():
    with pytest.raises(ParseError):
        parse_gcnf("p gcnf 1 1 1\n{1 1 0\n")


# -- lcnf -------------------------------------------------------------------


def test_parse_lcnf_worked_example(worked_example):
    assert parse_lcnf(WORKED_LCNF) == worked_example


def test_parse_lcnf_empty_block_is_unlabelled():
    phi = parse_lcnf("p lcnf 3 1\n{} 1 2 3 0\n")
    assert phi.labels_of(0) == frozenset()


def test_parse_lcnf_multi_label_block():
    phi = parse_lcnf("p lcnf 1 1\n{1 2} -1 0\n")
    assert phi.labels_of(0) == frozenset({1, 2})


def test_parse_lcnf_rejects_negative_label():
    with pytest.raises(ParseError) as e:
        parse_lcnf("p lcnf 1 1\n{-1} 1 0\n")
    assert e.value.line == 2


def test_parse_lcnf_collapses_duplicate_labels_with_warning():
    with pytest.warns(FormatWarning):
        phi = parse_lcnf("p lcnf 1 1\n{2 2} 1 0\n")
    assert phi.labels_of(0) == frozenset({2})


def test_cli_prints_format_warnings_on_every_call(tmp_path, capsys):
    f = tmp_path / "warned.lcnf"
    f.write_text("p lcnf 1 3\n{2 2} 1 0\n")
    for _ in range(2):
        assert main(["stats", str(f)]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "warning: line 2: duplicate label 2 in block",
            "warning: header declares 3 clauses, found 1",
        ]


def test_parse_lcnf_rejects_zero_inside_clause():
    with pytest.raises(ParseError) as e:
        parse_lcnf("p lcnf 2 1\n{1} 1 0 2 0\n")
    assert "inside" in str(e.value)


def test_parse_lcnf_rejects_trailing_tokens():
    with pytest.raises(ParseError):
        parse_lcnf("p lcnf 2 1\n{1} 1 2\n")


def test_parse_lcnf_rejects_clause_before_header():
    with pytest.raises(ParseError):
        parse_lcnf("{1} 1 0\np lcnf 1 1\n")
    for parse, text in [
        (parse_dimacs, "c\n1 0\np cnf 1 1\n"),
        (parse_gcnf, "c\n{1} 1 0\np gcnf 1 1 1\n"),
        (parse_lcnf, "c\n{1} 1 0\np lcnf 1 1\n"),
    ]:
        with pytest.raises(ParseError, match="before the 'p") as e:
            parse(text)
        assert e.value.line == 2


# -- round trips ------------------------------------------------------------


def test_roundtrip_500_random_formulas():
    for seed in range(500):
        phi = random_lcnf(seed)
        assert parse_lcnf(formula_text(phi)) == phi


def test_roundtrip_group_formulas_through_gcnf():
    prof = GenerationProfile(labelling="group")
    for seed in range(100):
        phi = random_lcnf(seed, prof)
        again = parse_gcnf(formula_text(phi, "gcnf"))
        assert again == phi


def test_roundtrip_plain_cnf_through_dimacs():
    rng = random.Random(31)
    for _ in range(100):
        n = rng.randint(1, 5)
        clauses = []
        for _ in range(rng.randint(1, 10)):
            vs = rng.sample(range(1, n + 1), rng.randint(1, n))
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
        parsed = parse_dimacs(formula_text(LcnfFormula.from_clauses(clauses), "cnf"))
        assert [frozenset(c) for c in parsed] == [frozenset(c) for c in clauses]


# -- the short path and the diagnosis ----------------------------------------

FIELDS = {"cnf": 2, "lcnf": 2, "gcnf": 3}
PARSE = {"cnf": parse_dimacs, "lcnf": parse_lcnf, "gcnf": parse_gcnf}


def loose_formula(rng, kind):
    """Seeded clauses and label sets for a ``p kind`` file, and the file's
    lines as token lists, each clause's literals in random order.

    A DIMACS clause's tokens run on across lines, several clauses per line
    or one clause over several; a tagged clause is one line whose first
    token is its label block, a list.  Blank and ``c`` lines come before
    the header and between data lines.  Returns the clauses, the label
    sets, the lines, and per clause the (line, index) of each of its
    tokens, the terminator last.
    """
    n = rng.randint(1, 12)
    groups = rng.randint(1, 5)
    clauses, labelling = [], []
    for _ in range(rng.randint(0, 14)):
        clause = [v if rng.random() < 0.5 else -v
                  for v in rng.sample(range(1, n + 1), rng.randint(0, min(n, 4)))]
        clauses.append(clause)
        if kind == "gcnf":
            labelling.append(rng.sample([0, *range(1, groups + 1)], 1))
        else:
            labelling.append(rng.sample(range(9), rng.randint(0, 3)))
    head = ["p", kind, str(n), str(len(clauses))] + ([str(groups)] if kind == "gcnf" else [])

    def filler():
        return rng.choice([[], [], ["c"], ["c", "p", "cnf", "1", "2"], ["c", "{x}", "0"]])

    lines = [filler() for _ in range(rng.randint(0, 2))] + [head]
    where = []
    comments = rng.random() < 0.5  # else a DIMACS body is clause data only
    lines.append([])
    for clause, labels in zip(clauses, labelling):
        if kind != "cnf":
            if rng.random() < 0.3:
                lines.append(filler())
            lines.append([[str(l) for l in labels]])
        elif rng.random() < 0.3:
            lines.append([])
        spots = []
        for token in [*map(str, clause), "0"]:
            if kind == "cnf" and rng.random() < 0.2:
                lines += [filler()] if comments and rng.random() < 0.5 else []
                lines.append([])
            spots.append((len(lines) - 1, len(lines[-1])))
            lines[-1].append(token)
        where.append(spots)
    if rng.random() < 0.3:
        lines.append(filler())
    labels = [[g for g in ls if g] for ls in labelling] if kind == "gcnf" else labelling
    return clauses, labels, lines, where


def written(rng, lines):
    """The text of token-list ``lines``: random blanks and tabs around and
    between tokens, and ``\n``, ``\r\n`` or ``\f`` after each line."""
    def gap(least=1):
        return "".join(rng.choice(" \t") for _ in range(rng.randint(least, 3)))

    def token(t):
        if isinstance(t, str):
            return t
        return "{" + gap(0) + gap().join(t) + gap(0) + "}"

    return "".join(
        gap(0) + gap().join(map(token, tokens)) + gap(0) + rng.choice(["\n", "\r\n", "\f"])
        for tokens in lines
    )


def test_loosely_written_files_read_as_their_rows():
    # every format, with spacing, blank and comment lines and line breaks
    # drawn at random: the rows are those from_clauses makes, with no
    # warning, and where the short path reads a file it reads what the
    # diagnosing reader does
    rng = random.Random(2024)
    short = dict.fromkeys(FIELDS, 0)
    for i in range(600):
        kind = list(FIELDS)[i % 3]
        clauses, labelling, lines, _ = loose_formula(rng, kind)
        text = written(rng, lines)
        expected = LcnfFormula.from_clauses(clauses, labelling)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = PARSE[kind](text)
        split = text.splitlines()
        if kind == "cnf":
            assert got == cnf(expected), text
            clean = _clean_dimacs(split)
            if clean is not None:
                assert clean == read_dimacs(split)
        else:
            assert got.rows == expected.rows, text
            clean = _clean_tagged(split, kind, FIELDS[kind])
            if clean is not None:
                assert clean == read_tagged(split, kind, FIELDS[kind])
        short[kind] += clean is not None
    assert min(short.values()) > 60, short


@pytest.mark.parametrize("kind", list(FIELDS))
def test_a_header_off_the_short_path_keeps_its_diagnosis(kind):
    # a header the short path does not take: the diagnosing reader names
    # the problem and its line; blank and comment lines count as lines
    counts = "1 1 1" if kind == "gcnf" else "1 1"
    body = "{1} 1 0\n" if kind != "cnf" else "1 0\n"
    other = "lcnf" if kind == "cnf" else "cnf"
    malformed = f"malformed header, expected 'p {kind}' with {FIELDS[kind]} counts"
    for header, message in [
        (f"pp {kind} {counts}", malformed),
        (f"p {other} {counts}", malformed),
        (f"p {kind} {counts} 1", malformed),
        (f"p {kind} 1", malformed),
        (f"p {kind} x {counts[2:]}", "malformed integer in header"),
        (f"p {kind} -1 {counts[2:]}", "negative count in header"),
        (f"q {kind} {counts}", f"clause data before the 'p {kind}' header"),
    ]:
        with pytest.raises(ParseError) as e:
            PARSE[kind](f"c first\n\n{header}\n{body}")
        assert (str(e.value), e.value.line) == (f"line 3: {message}", 3)


def mutated(rng, kind, branch, clauses, labelling, lines, where):
    """Mutate one clause of a ``loose_formula`` for ``branch``.  Returns the
    message of the error or the warning the file must give and, for a
    warning or none, the formula it reads as; None when no clause of this
    formula can be mutated so."""
    fit = {
        "bad token": lambda k: clauses[k],
        "bad label": lambda k: True,
        "no opener": lambda k: True,
        "inner 0": lambda k: True,
        # a DIMACS clause with no terminator runs on into the next one
        "missing terminator": lambda k: kind != "cnf" or k == len(clauses) - 1 and clauses[k],
        "complementary pair": lambda k: clauses[k],
        "repeated literal": lambda k: clauses[k],
        "negative label": lambda k: True,
        "duplicate label": lambda k: labelling[k],
        "bad group": lambda k: True,
    }[branch]
    candidates = [k for k in range(len(clauses)) if fit(k)]
    if not candidates:
        return None
    k = rng.choice(candidates)
    spots = where[k]
    i, end = spots[-1]  # the terminator
    line = lines[i]
    block = line[0]  # the label block of a tagged clause
    given = LcnfFormula.from_clauses(clauses, labelling)
    if branch == "bad token":
        i, j = rng.choice(spots[:-1])
        bad = lines[i][j] = rng.choice(["x", "1.5", "--2", "2-", "+-1", "1e3"])
        return f"line {i + 1}: malformed integer {bad!r}", None
    if branch == "no opener":
        line[0] = " ".join(block) + "}"
        return f"line {i + 1}: clause line must start with a {{...}} label block", None
    if branch == "bad label":
        bad = rng.choice(["x", "1.5", "-"])
        block.insert(rng.randint(0, len(block)), bad)
        return f"line {i + 1}: malformed label {bad!r}", None
    if branch == "inner 0":
        line.insert(rng.randint(1, end), rng.choice(["0", "-0", "00", "+0"]))
        return f"line {i + 1}: literal 0 inside a clause", None
    if branch == "missing terminator":
        del line[end]
        if kind == "cnf":
            data = [j for j, tokens in enumerate(lines) if tokens and tokens[0] not in ("c", "p")]
            return f"line {data[-1] + 1}: missing clause terminator 0", None
        return f"line {i + 1}: clause line must end with terminator 0", None
    if branch == "complementary pair":
        # the one literal whose negation came before it is the one added
        lit = rng.choice(clauses[k])
        line.insert(end, str(-lit))
        return f"line {i + 1}: clause contains variable {abs(lit)} with both signs", None
    if branch == "repeated literal":
        line.insert(end, str(rng.choice(clauses[k])))
        return None, given
    if branch == "negative label":
        bad = -rng.randint(1, 9)
        block.insert(rng.randint(0, len(block)), str(bad))
        return f"line {i + 1}: negative label {bad}", None
    if branch == "duplicate label":
        l = rng.choice(block)
        block.insert(rng.randint(block.index(l) + 1, len(block)), l)
        return f"line {i + 1}: duplicate label {l} in block", given
    groups = int(next(tokens for tokens in lines if tokens[:1] == ["p"])[4])
    bad = rng.choice([-1, groups + 1, groups + 7])
    block[:] = [str(bad)]
    return f"line {i + 1}: group {bad} outside the declared range 0..{groups}", None


TAGGED = ["bad token", "no opener", "bad label", "inner 0", "missing terminator",
          "complementary pair", "repeated literal"]
DIAGNOSES = {
    "cnf": ["bad token", "missing terminator", "complementary pair", "repeated literal"],
    "lcnf": [*TAGGED, "negative label", "duplicate label"],
    "gcnf": [*TAGGED, "bad group"],
}


@pytest.mark.parametrize("kind, branch", [(k, b) for k, bs in DIAGNOSES.items() for b in bs])
def test_each_diagnosis_keeps_its_message_and_line(kind, branch):
    # one seeded mutation per formula: the short path turns the file down,
    # and the diagnosing reader names the error and its line, or warns and
    # reads the rows from_clauses makes
    rng = random.Random(f"{kind}:{branch}")
    checked = 0
    for _ in range(200):
        clauses, labelling, lines, where = loose_formula(rng, kind)
        found = mutated(rng, kind, branch, clauses, labelling, lines, where)
        if found is None:
            continue
        message, given = found
        text = written(rng, lines)
        split = text.splitlines()
        short = _clean_dimacs(split) if kind == "cnf" else _clean_tagged(split, kind, FIELDS[kind])
        assert short is None, text
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if given is None:
                with pytest.raises(ParseError) as e:
                    PARSE[kind](text)
                assert str(e.value) == message, text
                assert e.value.line == int(message.split()[1][:-1])
            else:
                got = PARSE[kind](text)
                assert got == (cnf(given) if kind == "cnf" else given), text
        notes = [str(w.message) for w in caught if w.category is FormatWarning]
        assert notes == ([message] if given is not None and message else []), text
        checked += 1
    assert checked > 50, checked


# -- command line -----------------------------------------------------------


def test_cli_enum_lmes_golden(worked_example_path):
    code, out = run_cli("enum", "--family", "lmes", worked_example_path)
    assert code == 0
    assert out == "1 2\n2 3 4\n"


def test_cli_enum_lmns_golden(worked_example_path):
    code, out = run_cli("enum", "--family", "lmns", worked_example_path)
    assert code == 0
    assert out == "1 3 4\n2 3\n2 4\n"


def test_cli_enum_colmns_golden(worked_example_path):
    code, out = run_cli("enum", "--family", "colmns", worked_example_path)
    assert code == 0
    assert out == "1 3\n1 4\n2\n"


def test_cli_single_witness_commands(worked_example_path):
    assert run_cli("lmes", worked_example_path) == (0, "2 3 4\n")
    assert run_cli("lmes", "--order", "3,4,1,2", worked_example_path) == (0, "1 2\n")
    assert run_cli("lmns", "--seed-labels", "2", "--order", "3,4", worked_example_path) == (
        0,
        "2 3\n",
    )
    assert run_cli("lmss", worked_example_path) == (0, "1 2 3 4\n")
    assert run_cli("mcs", worked_example_path) == (0, "\n")
    # seed labels must be active, as labels in --order must
    for command in ("lmss", "mcs", "lmns"):
        for option in ("--seed-labels", "--order"):
            assert run_cli(command, option, "7", worked_example_path) == (2, ""), (
                command,
                option,
            )


def test_cli_seed_labels_only_on_grow_commands(worked_example_path, phi_u_path):
    assert run_cli("lmss", "--seed-labels", "2", phi_u_path) == (0, "2\n")
    assert run_cli("mcs", "--seed-labels", "2", phi_u_path) == (0, "1 3\n")
    assert run_cli("lmns", "--seed-labels", "2", worked_example_path) == (0, "2 3\n")
    for command, path in (("lmes", worked_example_path), ("lmus", phi_u_path)):
        assert run_cli(command, "--seed-labels", "1", path) == (2, ""), command


def test_cli_check_redundant(worked_example_path):
    assert run_cli("check-redundant", "--label", "4", worked_example_path) == (
        0,
        "redundant\n",
    )
    assert run_cli("check-redundant", "--label", "2", worked_example_path) == (
        0,
        "irredundant\n",
    )


def test_cli_unsat_core_commands(phi_u_path):
    assert run_cli("lmus", phi_u_path) == (0, "3\n")
    assert run_cli("lmus", "--order", "3,1,2", phi_u_path) == (0, "1 2\n")
    assert run_cli("enum", "--family", "lmus", phi_u_path) == (0, "1 2\n3\n")
    assert run_cli("enum", "--family", "lmss", phi_u_path) == (0, "1\n2\n")
    assert run_cli("enum", "--family", "colmss", phi_u_path) == (0, "1 3\n2 3\n")
    assert run_cli("mcs", phi_u_path) == (0, "2 3\n")


def test_cli_verify_duality(worked_example_path):
    code, out = run_cli("verify-duality", worked_example_path)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "result: pass"
    assert len(lines) == 5
    assert all(l.endswith(": pass") for l in lines[:-1])


def test_cli_stats(worked_example_path):
    # the worked example's clauses carry 0, 1 and 2 labels
    code, out = run_cli("stats", worked_example_path)
    assert code == 0
    lines = out.splitlines()
    assert "variables: 4" in lines
    assert "status: SAT" in lines
    assert lines[2:4] == ["unlabelled-clauses: 1", "active-labels: 1 2 3 4"]
    assert lines[4:8] == [
        "label 1: 4 clauses", "label 2: 2 clauses", "label 3: 2 clauses", "label 4: 1 clauses",
    ]
    code, out = run_cli("stats", "--json", worked_example_path)
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["clauses_per_label"] == {"1": 4, "2": 2, "3": 2, "4": 1}
    assert stats["unlabelled_clauses"] == 1


def test_cli_json_enum(worked_example_path):
    code, out = run_cli("enum", "--family", "lmes", "--json", worked_example_path)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["formula", "family", "sets"]
    assert doc["family"] == "lmes"
    assert doc["sets"] == [[1, 2], [2, 3, 4]]
    assert doc["formula"]["active_labels"] == [1, 2, 3, 4]


def test_cli_json_verify(worked_example_path):
    code, out = run_cli("verify-duality", "--json", worked_example_path)
    assert code == 0
    doc = json.loads(out)
    assert all(doc["checks"].values())
    assert set(doc["checks"]) == {
        "colmns_from_lmes",
        "lmes_from_colmns",
        "union_intersection",
        "complements_consistent",
    }


def test_cli_exit_2_on_parse_error(tmp_path):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 -1 0\n")
    code, out = run_cli("stats", str(bad))
    assert code == 2 and out == ""


def test_cli_exit_2_on_missing_file(tmp_path):
    code, out = run_cli("stats", str(tmp_path / "nope.cnf"))
    assert code == 2 and out == ""


def test_cli_exit_2_on_unknown_subcommand(worked_example_path):
    code, _ = run_cli("frobnicate", worked_example_path)
    assert code == 2


def test_cli_exit_2_on_unknown_extension(tmp_path):
    f = tmp_path / "data.txt"
    f.write_text("p cnf 1 1\n1 0\n")
    code, _ = run_cli("stats", str(f))
    assert code == 2
    assert run_cli("stats", "--format", "dimacs", str(f))[0] == 0


def test_cli_exit_3_on_sat_formula_lmus(worked_example_path):
    code, out = run_cli("lmus", worked_example_path)
    assert code == 3 and out == ""


def test_cli_exit_3_on_unsat_unlabelled_part(tmp_path):
    f = tmp_path / "g.gcnf"
    f.write_text("p gcnf 1 3 1\n{0} 1 0\n{0} -1 0\n{1} 1 0\n")
    for argv in (
        ("lmss", str(f)),
        ("mcs", str(f)),
        ("enum", "--family", "lmss", str(f)),
        ("enum", "--family", "colmss", str(f)),
    ):
        code, out = run_cli(*argv)
        assert code == 3 and out == "", argv


def test_cli_exit_4_on_label_limit(worked_example_path):
    code, out = run_cli("enum", "--family", "lmes", "--max-labels", "2", worked_example_path)
    assert code == 4 and out == ""


def test_cli_exit_4_on_conflict_budget(tmp_path):
    f = tmp_path / "tight.lcnf"
    f.write_text("p lcnf 2 3\n{1} 1 0\n{} 1 2 0\n{} 1 -2 0\n")
    code, out = run_cli("lmes", "--conflict-budget", "0", str(f))
    assert code == 4 and out == ""
    assert run_cli("lmes", "--conflict-budget", "50", str(f)) == (0, "\n")


def _pigeonhole_gcnf(pigeons):
    # one group per pigeon with its at-least-one-hole clause; the
    # at-most-one-pigeon-per-hole clauses are unlabelled
    holes = pigeons - 1
    rows = [(i + 1, [i * holes + j + 1 for j in range(holes)]) for i in range(pigeons)]
    rows += [
        (0, [-(i * holes + j + 1), -(k * holes + j + 1)])
        for j in range(holes)
        for i in range(pigeons)
        for k in range(i + 1, pigeons)
    ]
    lines = [f"p gcnf {pigeons * holes} {len(rows)} {pigeons}"]
    lines += ["{%d} %s 0" % (g, " ".join(map(str, c))) for g, c in rows]
    return "\n".join(lines) + "\n"


def test_cli_exit_4_when_a_witness_solve_exceeds_its_budget(tmp_path):
    # the sweeps skip the solves their evidence decides, but a solve that
    # still runs and exceeds the budget is exit 4, never a partial answer
    f = tmp_path / "php65.gcnf"
    f.write_text(_pigeonhole_gcnf(6))
    expected = {"lmus": "1 2 3 4 5 6\n", "mcs": "6\n", "lmss": "1 2 3 4 5\n"}
    for command, out in expected.items():
        assert run_cli(command, "--conflict-budget", "0", str(f)) == (4, ""), command
        assert run_cli(command, str(f)) == (0, out), command


def test_cli_conflict_budget_covers_the_whole_command(tmp_path):
    # no single solve of lmus on PHP(6,5) takes 150 conflicts, but all of
    # them together take 202
    f = tmp_path / "php65.gcnf"
    f.write_text(_pigeonhole_gcnf(6))
    assert run_cli_streams("lmus", "--conflict-budget", "150", str(f)) == (
        4,
        "",
        "resource limit: conflict budget of 150 exceeded\n",
    )
    assert run_cli("lmus", "--conflict-budget", "202", str(f)) == (0, "1 2 3 4 5 6\n")


_BUDGETED = ("check-redundant", "lmes", "lmus", "lmss", "mcs", "lmns", "stats")
_EXHAUSTIVE = ("enum", "verify-duality")


def test_cli_each_command_takes_only_the_options_it_reads(worked_example_path, phi_u_path):
    required = {"check-redundant": ("--label", "1"), "enum": ("--family", "lmes")}
    for command in _BUDGETED + _EXHAUSTIVE:
        path = phi_u_path if command == "lmus" else worked_example_path
        argv = (command, *required.get(command, ()))
        base = run_cli(*argv, path)
        assert base[0] == 0, command
        for option in (("--format", "auto"), ("--labelling", "file"), ("--jobs", "2")):
            assert run_cli(*argv, *option, path) == base, (command, option)
        assert run_cli(*argv, "--json", path)[0] == 0, command
        for option, takers in (("--conflict-budget", _BUDGETED), ("--max-labels", _EXHAUSTIVE)):
            code, out, err = run_cli_streams(*argv, option, "1000", path)
            if command in takers:
                assert (code, out, err) == (*base, ""), (command, option)
            else:
                # the stray option is named, not the FILE its value displaced
                assert (code, out) == (2, ""), (command, option)
                assert err.endswith(
                    f"lcnf {command}: error: argument {option}: {command} does not take "
                    f"this option; only {', '.join(takers)} do\n"
                ), (command, option, err)
    for argv in (
        ("lmes", "--max-labels", "3", worked_example_path),
        ("lmes", "--max-labels=3", worked_example_path),
        ("lmes", worked_example_path, "--max-labels"),
        ("enum", "--family", "lmes", "--conflict-budget", "0", worked_example_path),
    ):
        code, out, err = run_cli_streams(*argv)
        assert (code, out) == (2, ""), argv
        assert "does not take this option" in err and "unrecognized" not in err, argv
    _, out, _ = run_cli_streams("lmes", "--help")
    assert "--max-labels" not in out


def test_cli_relabels_labelled_files(worked_example_path, phi_u_path):
    # a labelling scheme other than file replaces the labels the file carries
    expected = {
        ("lmes", "clause"): "5 6 7 8\n",
        ("lmes", "variable"): "1 2 3 4\n",
        ("lmes", "literal"): "3 5 6 8 9\n",
        ("lmus", "clause"): "3 4\n",
        ("lmus", "variable"): "2\n",
        ("lmus", "literal"): "4 5\n",
    }
    for (command, scheme), out in expected.items():
        path = worked_example_path if command == "lmes" else phi_u_path
        assert run_cli_streams(command, "--labelling", scheme, path) == (0, out, ""), (
            command,
            scheme,
        )


def test_cli_refusals_pin_their_message(worked_example_path, tmp_path):
    assert run_cli_streams("enum", "--family", "lmus", worked_example_path) == (
        3,
        "",
        f"not applicable: {REASON_SATISFIABLE}\n",
    )
    redundant = tmp_path / "redundant.lcnf"
    redundant.write_text("p lcnf 1 2\n{} 1 0\n{1} 1 0\n")
    assert run_cli_streams("verify-duality", str(redundant)) == (
        3,
        "",
        "not applicable: duality is not applicable: unlabelled clauses are "
        "present and every label is redundant\n",
    )
    assert run_cli_streams("lmes", "--order", "1,x", worked_example_path) == (
        2,
        "",
        "error: malformed label list '1,x'\n",
    )


def test_cli_labelling_variable_matches_clause_variables(tmp_path):
    f = tmp_path / "v.cnf"
    f.write_text("p cnf 3 3\n1 -3 0\n2 0\n-1 2 3 0\n")
    phi = label(parse_dimacs(f.read_text()), "variable")
    for lits, labels in phi.rows:
        assert labels == {abs(l) for l in lits}
    code, out = run_cli("stats", "--labelling", "variable", str(f))
    assert code == 0 and "active-labels: 1 2 3" in out


def test_cli_labelling_group_requires_gcnf(worked_example_path):
    code, _ = run_cli("stats", "--labelling", "group", worked_example_path)
    assert code == 2


def test_cli_dimacs_needs_label_scheme(tmp_path):
    f = tmp_path / "p.cnf"
    f.write_text("p cnf 1 1\n1 0\n")
    code, _ = run_cli("stats", "--labelling", "file", str(f))
    assert code == 2


def test_cli_jobs_output_identical(worked_example_path):
    base = run_cli("enum", "--family", "lmns", worked_example_path)
    for jobs in ("2", "4"):
        assert run_cli(
            "enum", "--family", "lmns", "--jobs", jobs, worked_example_path
        ) == base


def test_cli_rejects_bounded_knobs_below_their_minimum(worked_example_path, tmp_path):
    # each option on the commands that take it, so the bound rejects the value
    enum = ("enum", "--family", "lmes")
    below = [
        ("--jobs", "0", (enum, ("lmes",), ("lmus",))),
        ("--jobs", "-1", (enum, ("lmes",), ("lmus",))),
        ("--conflict-budget", "-1", (("lmes",), ("lmus",), ("stats",))),
        ("--max-labels", "-1", (enum, ("verify-duality",))),
    ]
    for option, value, commands in below:
        for command in commands:
            code, out, err = run_cli_streams(*command, option, value, worked_example_path)
            assert (code, out) == (2, ""), (command, option, value)
            assert "must be at least" in err, (command, option, value)
    # rejected even where the bound could not be reached: no labels at all
    unlabelled = tmp_path / "none.lcnf"
    unlabelled.write_text("p lcnf 1 1\n{} 1 0\n")
    assert run_cli("enum", "--family", "lmes", "--max-labels", "-1", str(unlabelled))[0] == 2
    # zero stays valid for both budgets
    assert run_cli("enum", "--family", "lmes", "--max-labels", "0", str(unlabelled)) == (0, "\n")
    assert run_cli("lmes", "--conflict-budget", "0", str(unlabelled)) == (0, "\n")


def test_cli_repeated_runs_identical(worked_example_path, phi_u_path):
    matrix = [
        ("check-redundant", "--label", "1", worked_example_path),
        ("lmes", worked_example_path),
        ("lmss", worked_example_path),
        ("lmns", worked_example_path),
        ("mcs", worked_example_path),
        ("enum", "--family", "lmes", worked_example_path),
        ("enum", "--family", "colmns", worked_example_path),
        ("verify-duality", worked_example_path),
        ("stats", worked_example_path),
        ("lmus", phi_u_path),
        ("enum", "--family", "lmss", phi_u_path),
    ]
    for argv in matrix:
        assert run_cli(*argv) == run_cli(*argv), argv


def test_console_script_entry_point(worked_example_path):
    script = subprocess.run(
        [sys.executable, "-c",
         "from lcnf.interface import console_main; console_main()",
         "enum", "--family", "lmes", worked_example_path],
        capture_output=True,
        text=True,
    )
    assert script.returncode == 0
    assert script.stdout == "1 2\n2 3 4\n"
    installed = shutil.which("lcnf")
    if installed:
        ran = subprocess.run(
            [installed, "enum", "--family", "lmes", worked_example_path],
            capture_output=True,
            text=True,
        )
        assert ran.returncode == 0 and ran.stdout == "1 2\n2 3 4\n"


def test_import_leaves_dataclasses_and_json_unloaded(worked_example_path):
    # every command pays for `import lcnf` in a fresh interpreter, and
    # dataclasses (with the inspect it pulls in) and json would be a third
    # of it; json loads only under --json.  The module set is compared
    # before and after the import, since `site` may preload modules
    src = str(Path(lcnf.__file__).resolve().parent.parent)
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "before = set(sys.modules)\n"
        "import lcnf\n"
        "added = set(sys.modules) - before\n"
        "print(sorted(added & {'dataclasses', 'inspect', 'json'}))\n"
        "sys.exit(lcnf.main(['enum', '--family', 'lmes', '--json', sys.argv[2]]))\n"
    )
    ran = subprocess.run(
        [sys.executable, "-c", script, src, worked_example_path],
        capture_output=True,
        text=True,
    )
    assert ran.returncode == 0, ran.stderr
    loaded, _, out = ran.stdout.partition("\n")
    assert loaded == "[]"
    assert json.loads(out)["sets"] == [[1, 2], [2, 3, 4]]


def test_records_are_frozen_values():
    verdict = DualityVerdict(False, "reason", None, None, None, None)
    records = [  # (record, an equal one built another way, a field)
        (SatOutcome(False), SatOutcome(False, None), "model"),
        (SubsetStatus(True, False), SubsetStatus(satisfiable=True, equivalent=False), "equivalent"),
        (GenerationProfile(labels=6), GenerationProfile(5, 12, 6), "labels"),
        (verdict, DualityVerdict(False, "reason", None, None, None, None, None, None), "reason"),
    ]
    for record, twin, field in records:
        assert record == twin and hash(record) == hash(twin), record
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert SatOutcome(True, {1: True}) == SatOutcome(True, {1: True})
    assert SatOutcome(True, {1: True}) != SatOutcome(True, {1: False})
    for satisfiable, model in ((True, None), (False, {})):
        with pytest.raises(ValueError, match="^a model is present exactly when satisfiable$"):
            SatOutcome(satisfiable, model)
    assert repr(SatOutcome(False)) == "UNSAT" and not SatOutcome(False)
    assert repr(SatOutcome(True, {})) == "SAT" and SatOutcome(True, {})
    default = GenerationProfile()
    assert (
        default.variables, default.clauses, default.labels, default.clause_labels,
        default.clause_width, default.unlabelled_probability, default.labelling,
    ) == (5, 12, 4, 2, 3, 0.15, "free")
    group = GenerationProfile(labelling="group", unlabelled_probability=0)
    assert group.labelling == "group" and group.unlabelled_probability == 0
    assert group.variables == 5
    assert verdict.lmes_union is None and verdict.lmns_intersection is None
    assert not verdict.passed and set(verdict.checks().values()) == {None}


def test_export_list_names_each_public_name_once():
    # a name left in __all__ after its definition goes breaks the star
    # import; a public name missing from __all__ is missing from the API
    namespace = {}
    exec("from lcnf import *", namespace)
    public = {
        name for name, value in vars(lcnf).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(lcnf.__all__) == len(set(lcnf.__all__))
    assert set(lcnf.__all__) == public
    # a formula is its rows; there is no clause object to export
    assert "Clause" not in namespace and not hasattr(lcnf.core, "Clause")
