"""What ``parse_spec`` reads, where it locates faults, and what it holds.

Rows keep only their line number and a fault names the field it is in, so
the column of a ParseError is worked out from the line's text when the
error is raised.  The planted-fault test checks that the line and column
are where the fault was put, on whole canonical dumps with unusual spacing.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import random
import tracemalloc

import pytest

from vertexcoh.axioms import translation_map
from vertexcoh.cli import main
from vertexcoh.presets import adjoint_module, build_preset
from vertexcoh.spaces import VAModule
from vertexcoh.specfile import ParseError, dump_spec, parse_spec, spec_from_objects

EXACT_PRESETS = ("trivial", "dual-numbers", "split-pair", "graded-nilpotent")
BOSON_CUTOFFS = (2, 3, 4, 5, 6)


def _boson_adjoint_spec(cutoff: int):
    # translation_map is the adjoint module's T once creation holds, which the
    # free boson satisfies; adjoint_module would first run check_all.
    V = build_preset("free-boson", cutoff=cutoff)
    return spec_from_objects(V, VAModule(V.space, V.Y, translation_map(V)))


@functools.lru_cache(maxsize=None)
def _dump(name: str) -> str:
    """A canonical dump with module sections, and a [PSI] that repeats the
    algebra's own mode table as a cochain valued in the adjoint module."""
    if name.startswith("boson-"):
        spec = _boson_adjoint_spec(int(name.split("-")[1]))
    else:
        V = build_preset(name)
        spec = spec_from_objects(V, adjoint_module(V))
    return dump_spec(dataclasses.replace(spec, psi=spec.modes))


DUMPS = EXACT_PRESETS + tuple(f"boson-{c}" for c in BOSON_CUTOFFS)


# ---------------------------------------------------------------------------
# faults are reported where they were planted
# ---------------------------------------------------------------------------

MODE_SECTIONS = ("MODES", "MODULE_MODES", "PSI")


def _rows(text: str) -> list[tuple[int, str, list[str]]]:
    """(line index, section, fields) of every row of a canonical dump."""
    rows, section = [], None
    for i, line in enumerate(text.split("\n")):
        if line.startswith("["):
            section = line[1:-1]
        elif line:
            rows.append((i, section, line.split(" ")))
    return rows


def _rhs_start(section: str) -> int:
    return 2 if section == "TW" else 4


def _pick(rng: random.Random, rows: list) -> tuple[int, str, list[str]]:
    """A random row of a random section, so that short sections get faults too."""
    section = rng.choice(sorted({r[1] for r in rows}))
    return rng.choice([r for r in rows if r[1] == section])


def _plant(text: str, kind: str, rng: random.Random) -> tuple[str, int, int, str]:
    """Plant one fault of ``kind`` in a random row, respaced at random.

    Returns the new text and the line, column and message fragment the
    fault must be reported with.
    """
    rows = _rows(text)
    mode_rows = [r for r in rows if r[1] in MODE_SECTIONS]
    rhs_rows = [r for r in rows if r[1] in MODE_SECTIONS + ("TW",)
                and r[2][_rhs_start(r[1])] != "0"]
    # a fault in term k > 0 is located only if term k is field start + 2k
    sums = [r for r in rhs_rows if len(r[2]) > _rhs_start(r[1]) + 1] or rhs_rows
    insert_copy = False
    if kind == "invalid label":
        i, section, fields = _pick(rng, [r for r in rows if r[1] != "WEIGHTS"])
        at = rng.choice((0, 2)) if section in MODE_SECTIONS else 0
        fields[at] = rng.choice(("9", "-", "@")) + fields[at]
        fragment = "is not a valid label"
    elif kind == "non-integer mode index":
        i, section, fields = _pick(rng, mode_rows)
        at = 1
        fields[at] = rng.choice(("1.5", "x", "--1", "1/2", fields[at] + "e0"))
        fragment = "mode index must be an integer"
    elif kind == "missing arrow":
        i, section, fields = _pick(rng, mode_rows + [r for r in rows if r[1] == "TW"])
        fields.remove("->")
        at = 0
        fragment = "-> ...'"
    elif kind == "dangling plus":
        i, section, fields = _pick(rng, rhs_rows)
        fields.append("+")
        at = len(fields) - 1
        fragment = "dangling '+' at end of line"
    elif kind == "zero denominator":
        i, section, fields = _pick(rng, sums)
        at = rng.randrange(_rhs_start(section), len(fields), 2)
        fields[at] = "1/0*" + fields[at].split("*")[-1]
        fragment = "zero denominator"
    elif kind == "unknown target":
        i, section, fields = _pick(rng, sums)
        at = rng.randrange(_rhs_start(section), len(fields), 2)
        fields[at] = fields[at].split("*")[0] + "*ghost"
        fragment = "unknown basis label 'ghost'"
    else:  # a copy of a row, later in its section, is the one reported
        i, section, fields = _pick(
            rng, [r for r in rows if r[1] not in ("WEIGHTS", "VACUUM")])
        i = rng.randint(i + 1, max(r[0] for r in rows if r[1] == section) + 1)
        at = 0
        insert_copy = True
        fragment = "duplicate "

    lead = rng.choice(("", " ", "\t", "   "))
    seps = [rng.choice((" ", "  ", "\t", " \t ")) for _ in fields]
    line = lead
    for k, field in enumerate(fields):
        if k == at:
            col = len(line) + 1
        line += field + (seps[k] if k + 1 < len(fields) else "")
    lines = text.split("\n")
    if insert_copy:
        lines.insert(i, line)
    else:
        lines[i] = line
    return "\n".join(lines), i + 1, col, fragment


FAULTS = ("invalid label", "non-integer mode index", "missing arrow", "dangling plus",
          "zero denominator", "unknown target", "duplicated row")


@pytest.mark.parametrize("kind", FAULTS)
def test_faults_are_reported_where_they_were_planted(kind):
    for name in DUMPS:
        for seed in range(3):
            rng = random.Random(f"{kind}/{name}/{seed}")
            text, line, col, fragment = _plant(_dump(name), kind, rng)
            with pytest.raises(ParseError) as info:
                parse_spec(text)
            err = info.value
            where = f"{name} seed {seed}: {text.splitlines()[line - 1]!r}"
            assert (err.line, err.col) == (line, col), where
            assert fragment in err.message, (where, err.message)


def test_every_planted_dump_parses_unplanted():
    for name in DUMPS:
        spec = parse_spec(_dump(name))
        assert spec.psi == spec.modes and spec.module_modes, name
        assert dump_spec(spec) == _dump(name), name


# ---------------------------------------------------------------------------
# whitespace and the byte-order mark
# ---------------------------------------------------------------------------

# str.isspace and re's \s agree on these.  A line ends only at \n, \r\n and
# \r, so the line separators that str.splitlines also breaks at are
# whitespace inside a line.
LINE_SEPARATORS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
SEPARATORS = ("\t", "\xa0", "\u2003", "\x1f", " \t\u2003", *LINE_SEPARATORS)


@pytest.mark.parametrize("sep", SEPARATORS, ids=repr)
def test_unicode_whitespace_separates_fields(sep):
    text = _dump("dual-numbers")
    assert parse_spec(text.replace(" ", sep)) == parse_spec(text)

    bad = f"[MODES]\n{sep}a{sep}x{sep}b{sep}->{sep}1*c\n"
    err = pytest.raises(ParseError, parse_spec, bad).value
    assert (err.line, err.col) == (2, bad.split("\n")[1].index("x") + 1)
    assert "mode index must be an integer" in err.message

    bad = f"[PSI]\na{sep}-1{sep}b{sep}->{sep}1*c{sep}+{sep}\n"
    err = pytest.raises(ParseError, parse_spec, bad).value
    assert (err.line, err.col) == (2, bad.split("\n")[1].rindex("+") + 1)


def test_information_separators_do_not_end_a_line():
    # U+001C ends a line for str.splitlines, not for the file format
    assert parse_spec("[BASIS]\none\x1c0\n").basis == (("one", 0),)


def _grep_n(text: str, line: str) -> int:
    """The number ``grep -n`` gives the first line of ``text`` equal to ``line``."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n").index(line) + 1


@pytest.mark.parametrize("sep", LINE_SEPARATORS, ids=repr)
def test_line_numbers_are_those_of_grep(sep, tmp_path, capsys):
    trivial = "[BASIS]\none 0\n[VACUUM]\none\n[MODES]\none -1 one -> 1*one\n"
    for text in (f"[BASIS]\n{sep}\none 0\none 1\n",                # a blank line
                 f"# a comment{sep}[BASIS]\n[BASIS]\none 0\none 1\n",  # in a comment
                 f"[BASIS]\n# one{sep}two\none 0\n\n{sep}\none 1\n"):
        err = pytest.raises(ParseError, parse_spec, text).value
        assert (err.line, err.col) == (_grep_n(text, "one 1"), 1), repr(text)
        assert err.message == "duplicate basis label 'one'"

        path = tmp_path / "in.txt"
        path.write_bytes(text.encode())
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == f"error: line {err.line}, col 1: {err.message}\n"

    # a trivial algebra saved with CRLF endings, a separator in its comment
    path.write_bytes(f"# trivial algebra{sep} with CRLF endings\n{trivial}"
                     .replace("\n", "\r\n").encode())
    assert main(["check", str(path)]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=repr)
def test_crlf_and_lone_cr_files_parse_as_lf_files(newline):
    text = _dump("split-pair")
    assert parse_spec(text.replace("\n", newline)) == parse_spec(text)
    bad = "[BASIS]\n\none 0\n# x\none 1\n"
    err = pytest.raises(ParseError, parse_spec, bad.replace("\n", newline)).value
    assert (err.line, err.col) == (_grep_n(bad, "one 1"), 1) == (5, 1)


@pytest.mark.parametrize("text, line, col, label", [
    # faults on two rows: the earlier row's target, not the later row's u
    ("one -1 one -> 1*zz\nyy -1 one -> 1*one\n", 6, 15, "zz"),
    # one bad label, a target on an earlier row and a u on a later one
    ("one -1 one -> 1*zz\nzz -1 one -> 1*one\n", 6, 15, "zz"),
    # within a row, the leftmost field first
    ("one -1 yy -> 1*zz\n", 6, 8, "yy"),
], ids=["two-faults", "one-label-twice", "leftmost"])
def test_the_earliest_unknown_label_of_a_section_is_reported(text, line, col, label):
    spec = "[BASIS]\none 0\n[VACUUM]\none\n[MODES]\n" + text
    err = pytest.raises(ParseError, parse_spec, spec).value
    assert (err.line, err.col, err.message) == (line, col, f"unknown basis label {label!r}")


def test_a_leading_byte_order_mark_is_ignored():
    text = _dump("split-pair")
    assert parse_spec("\ufeff" + text) == parse_spec(text)

    cases = [
        ("\ufeff[WEIGHTS] tier\n", 1, 11, "stand alone"),
        ("\ufeff  one 0\n", 1, 3, "before the first section"),
        ("\ufeff\ufeff[BASIS]\n", 1, 1, "before the first section"),  # only one
        ("\ufeff[BASIS]\none 0\none 1\n", 3, 1, "duplicate basis label"),
    ]
    for bad, line, col, fragment in cases:
        err = pytest.raises(ParseError, parse_spec, bad).value
        assert (err.line, err.col) == (line, col), bad
        assert fragment in err.message, bad


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_cli_reads_a_file_with_a_byte_order_mark(json_flag, tmp_path, capsys):
    body = _dump("dual-numbers").encode()
    plain, marked = tmp_path / "a" / "in.txt", tmp_path / "b" / "in.txt"
    for path, data in ((plain, body), (marked, b"\xef\xbb\xbf" + body)):
        path.parent.mkdir()
        path.write_bytes(data)

    outs = []
    for path in (plain, marked):
        assert main(["check", str(path), *json_flag]) == 0
        outs.append(capsys.readouterr().out)
    if not json_flag:
        assert outs[0] == outs[1]
        return
    reports = [json.loads(out) for out in outs]
    digest = hashlib.sha256(marked.read_bytes()).hexdigest()
    assert reports[1]["inputs"] == [{"kind": "file", "path": str(marked), "sha256": digest}]
    for report in reports:
        del report["inputs"], report["elapsed_ms"]
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# memory
# ---------------------------------------------------------------------------

def test_parsing_the_cutoff_6_adjoint_stays_below_3_5_mb():
    # 246 KB of text.  Keeping a (text, col) tuple per field, a column list
    # per row and a string per label occurrence peaked at 5.28 MB; rows that
    # keep only their line number, and one object per distinct label and
    # term, peak at 2.29 MB (tracemalloc, Python 3.11).
    text = dump_spec(_boson_adjoint_spec(6))
    tracemalloc.start()
    try:
        spec = parse_spec(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5e6, peak
    assert parse_spec(dump_spec(spec)) == spec
