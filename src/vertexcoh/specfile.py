"""Plain-text files for algebras, modules and cochains.

The format is line-oriented with ``[SECTION]`` headers and ``#`` comments:

    [WEIGHTS]              # tier/cutoff directives, then "weight dim" rows
    tier exact
    cutoff 1
    0 1
    1 1

    [BASIS]                # "label weight" rows, flat order
    one 0
    eps 1

    [VACUUM]
    one

    [MODES]                # "u n v -> c*target + c*target" or "-> 0"
    one -1 one -> 1*one
    eps -1 one -> 1*eps

Optional sections carry a module and a 2-cochain; ``_ROW_SECTIONS`` gives
each row section's shape and the basis its labels resolve in.  A file may
hold any subset — e.g. a bare [PSI] file, whose labels the converters
resolve against an algebra loaded elsewhere.

``dump_spec`` emits a canonical form (sections in fixed order, rows in flat
basis order, every coefficient spelled ``c*label``), and parsing a canonical
dump reproduces the SpecFile exactly.
"""

from __future__ import annotations

import re
from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .cohomology import TwoCochain
from .scalars import format_rational, parse_rational
from .spaces import (
    GradedMap,
    GradedSpace,
    ModeFamily,
    VAModule,
    VertexAlgebra,
    build_vertex_algebra,
)

Terms = tuple[tuple[int | Fraction, str], ...]


# The row sections in file and dump order ([VACUUM] follows [BASIS]), each
# with its SpecFile field, its row shape as "expected" faults spell it, what
# a repeated row is called, and for each label slot (u, v, targets / w,
# targets) the basis sections it resolves in, the first one the file fills
# ([PSI] targets: the module if the file has one, else the algebra).
_RowSection = namedtuple("_RowSection", "field kind repeat bases")
_V, _W = ("BASIS",), ("MODULE_BASIS",)
_ROW_SECTIONS = {
    "BASIS": _RowSection("basis", "label weight", "basis label", ()),
    "MODES": _RowSection("modes", "u n v -> ...", "mode row", (_V, _V, _V)),
    "MODULE_BASIS": _RowSection("module_basis", "label weight", "basis label", ()),
    "MODULE_MODES": _RowSection("module_modes", "u n w -> ...", "mode row", (_V, _W, _W)),
    "TW": _RowSection("tw", "w -> ...", "TW row", (_W, _W)),
    "PSI": _RowSection("psi", "u n v -> ...", "mode row", (_V, _V, _W + _V)),
}
_SECTIONS = ("WEIGHTS", "VACUUM", *_ROW_SECTIONS)
_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.:]*$")
_TERM_RE = re.compile(r"^(?:(?P<coeff>[+-]?\d+(?:/\d+)?)\*)?(?P<label>[A-Za-z_][A-Za-z0-9_.:]*)$")
_INT_RE = re.compile(r"^[+-]?\d+$")


class ParseError(Exception):
    """A malformed or inconsistent input file, located by line and column."""

    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


@dataclass
class SpecFile:
    """Parsed file contents; converters below turn these into live objects.

    ``sections`` names the section headers a parsed file held, empty ones
    included, and ``dump_spec`` writes a row section named there even when
    it is empty; ``spec_from_objects`` names [MODULE_BASIS] when given a
    module, so that a dump of the zero module still describes a module.
    """

    tier: str = "exact"
    cutoff: int | None = None
    weight_dims: tuple[tuple[int, int], ...] = ()
    basis: tuple[tuple[str, int], ...] = ()
    vacuum: str | None = None
    modes: tuple[tuple[str, int, str, Terms], ...] = ()
    module_basis: tuple[tuple[str, int], ...] = ()
    module_modes: tuple[tuple[str, int, str, Terms], ...] = ()
    tw: tuple[tuple[str, Terms], ...] = ()
    psi: tuple[tuple[str, int, str, Terms], ...] = ()
    sections: frozenset[str] = frozenset()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Fault(Exception):
    """A fault in field ``field`` of line ``line`` (``field`` None: column 1).

    Rows keep only their line number, so ``parse_spec`` works out the column
    from the line's text only when it turns a fault into a ParseError.
    """

    def __init__(self, message: str, field: int | None = None, line: int = 0):
        super().__init__(message)
        self.message, self.field, self.line = message, field, line


def _fields(line: str) -> list[tuple[str, int]]:
    """Whitespace-separated fields with 1-based column positions."""
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]

def _parse_int(text: str, field: int, what: str) -> int:
    if not _INT_RE.match(text):
        raise _Fault(f"{what} must be an integer, got {text!r}", field)
    return int(text)


class _Reader:
    """Reads the fields of one file's rows, keeping one object per distinct
    label and per distinct term.

    A label or term seen before is looked up, not matched again, and every
    row that names it shares the string or ``(coeff, label)`` tuple kept here.
    """

    def __init__(self) -> None:
        self.labels: dict[str, str] = {}
        self.terms: dict[str, tuple[int | Fraction, str]] = {}

    def label(self, text: str, field: int, what: str) -> str:
        lab = self.labels.get(text)
        if lab is None:
            if not _LABEL_RE.match(text):
                raise _Fault(f"{what} is not a valid label: {text!r}", field)
            lab = self.labels[text] = text
        return lab

    def term(self, text: str, field: int) -> tuple[int | Fraction, str]:
        term = self.terms.get(text)
        if term is None:
            m = _TERM_RE.match(text)
            if not m:
                raise _Fault(f"expected 'coeff*label' or 'label', got {text!r}", field)
            try:
                coeff = parse_rational(m.group("coeff")) if m.group("coeff") else 1
            except ValueError as exc:                # a zero denominator
                raise _Fault(str(exc), field) from None
            lab = m.group("label")
            term = self.terms[text] = (coeff, self.labels.setdefault(lab, lab))
        return term

    def rhs(self, fields: list[str], start: int) -> Terms:
        """The right-hand side in ``fields[start:]``: '0' alone, or terms
        joined by '+'.  Term k is field ``start + 2k``."""
        if start == len(fields):
            raise _Fault("missing right-hand side after '->'")
        if fields[start] == "0":
            if len(fields) > start + 1:
                raise _Fault("'0' must stand alone", start + 1)
            return ()
        terms = []
        for i in range(start, len(fields), 2):
            terms.append(self.term(fields[i], i))
            if i + 1 < len(fields) and fields[i + 1] != "+":
                raise _Fault(f"expected '+' between terms, got {fields[i + 1]!r}", i + 1)
        if (len(fields) - start) % 2 == 0:
            raise _Fault("dangling '+' at end of line", len(fields) - 1)
        return tuple(terms)


def _lines(text: str) -> list[str]:
    r"""Lines end at '\n', '\r\n' or '\r' only, as with universal newlines and
    ``grep -n``; any other Unicode line separator is whitespace in a line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


def parse_spec(text: str) -> SpecFile:
    """Parse and validate; cross-section checks run when both sides are present.

    One leading byte-order mark (U+FEFF) is ignored, and columns on line 1
    count from after it.  Line numbers are those of ``grep -n`` (``_lines``).
    Of several faults the first met while reading is reported; else a
    repeated row or empty [VACUUM], in section order; else an unknown label:
    the vacuum's, then the earliest row's in the first section that has one,
    leftmost field first; else a weight table that disagrees with the basis.
    """
    if text.startswith("\ufeff"):
        text = text[1:]
    try:
        return _assemble(*_read_sections(text))
    except _Fault as fault:
        col = 1
        if fault.field is not None:
            line = _lines(text)[fault.line - 1].split("#", 1)[0]
            col = _fields(line)[fault.field][1]
        raise ParseError(fault.message, fault.line, col) from None


def _read_sections(text: str) -> tuple[dict, dict, dict]:
    """Each section's rows, each row's line number, each header's line."""
    raw: dict[str, list] = {}
    linenos: dict[str, list[int]] = {}
    header_line: dict[str, int] = {}
    section = kind = None
    reader = _Reader()

    for lineno, rawline in enumerate(_lines(text), start=1):
        fields = rawline.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            first = fields[0]
            if first.startswith("["):
                if len(fields) > 1:
                    raise _Fault("a section header must stand alone", 1)
                name = first[1:-1] if first.endswith("]") else None
                if name not in _SECTIONS:
                    raise _Fault(f"unknown section {first!r}", 0)
                if name in raw:
                    raise _Fault(f"duplicate section [{name}]", 0)
                raw[name] = []
                linenos[name] = []
                header_line[name] = lineno
                section = name
                kind = _ROW_SECTIONS[name].kind if name in _ROW_SECTIONS else name
                continue
            if section is None:
                raise _Fault("content before the first section header", 0)

            rows = raw[section]
            if kind == "WEIGHTS":
                if first == "tier":
                    if len(fields) != 2 or fields[1] not in ("exact", "truncated"):
                        raise _Fault("expected 'tier exact' or 'tier truncated'", 0)
                    rows.append(("tier", fields[1]))
                elif first == "cutoff":
                    if len(fields) != 2:
                        raise _Fault("expected 'cutoff N'", 0)
                    rows.append(("cutoff", _parse_int(fields[1], 1, "cutoff")))
                else:
                    if len(fields) != 2:
                        raise _Fault("expected 'weight dim'", 0)
                    w = _parse_int(first, 0, "weight")
                    d = _parse_int(fields[1], 1, "dimension")
                    if d < 0:
                        raise _Fault("dimension must be nonnegative", 1)
                    rows.append(("dim", w, d))
            elif kind == "VACUUM":
                if rows:
                    raise _Fault("multiple vacuum rows", 0)
                if len(fields) != 1:
                    raise _Fault("expected a single label", 1)
                rows.append(reader.label(first, 0, "vacuum"))
            elif kind == "label weight":
                if len(fields) != 2:
                    raise _Fault(f"expected '{kind}'", 0)
                lab = reader.label(first, 0, "basis label")
                rows.append((lab, _parse_int(fields[1], 1, "weight")))
            elif kind == "w -> ...":  # term k is field 2 + 2k
                if len(fields) < 2 or fields[1] != "->":
                    raise _Fault(f"expected '{kind}'", 0)
                lab = reader.label(first, 0, "module label")
                rows.append((lab, reader.rhs(fields, 2)))
            else:  # 'u n v -> terms': u is field 0, v field 2, term k field 4 + 2k
                if len(fields) < 4 or fields[3] != "->":
                    raise _Fault(f"expected '{kind}'", 0)
                u = reader.label(first, 0, "u")
                n = _parse_int(fields[1], 1, "mode index")
                v = reader.label(fields[2], 2, kind[4])    # "v" or "w"
                rows.append((u, n, v, reader.rhs(fields, 4)))
        except _Fault as fault:
            fault.line = lineno
            raise
        linenos[section].append(lineno)

    return raw, linenos, header_line


def _check_slots(rows: Sequence, linenos: Sequence[int], sec: _RowSection,
                 known: dict) -> None:
    """Raise for the first label missing from its slot's basis, row by row
    and leftmost field first (``known``: each basis section's labels).  A
    slot whose basis sections are all empty is not checked."""
    bases = [next((known[b] for b in slot if known[b]), None) for slot in sec.bases]
    mode = sec.kind.startswith("u n")
    left = bases[0] if bases else None
    right = bases[1] if mode else None
    targets = bases[-1] if bases else None
    start = 4 if mode else 2
    for row, lineno in zip(rows, linenos):
        if left is not None and row[0] not in left:
            raise _Fault(f"unknown basis label {row[0]!r}", 0, lineno)
        if right is not None and row[2] not in right:
            raise _Fault(f"unknown basis label {row[2]!r}", 2, lineno)
        if targets is not None:
            for k, (_c, t) in enumerate(row[-1]):
                if t not in targets:
                    raise _Fault(f"unknown basis label {t!r}", start + 2 * k, lineno)


def _assemble(raw: dict, linenos: dict, header_line: dict) -> SpecFile:
    spec = SpecFile(sections=frozenset(raw))
    if "WEIGHTS" in raw:
        dims = []
        tier = cutoff = None
        for item, lineno in zip(raw["WEIGHTS"], linenos["WEIGHTS"]):
            if item[0] == "tier":
                if tier is not None:
                    raise _Fault("duplicate 'tier' directive", None, lineno)
                tier = item[1]
            elif item[0] == "cutoff":
                if cutoff is not None:
                    raise _Fault("duplicate 'cutoff' directive", None, lineno)
                cutoff = item[1]
            else:
                dims.append((item[1], item[2]))
        if [w for w, _ in dims] != sorted({w for w, _ in dims}):
            raise _Fault("weight rows must be sorted and distinct", None,
                         header_line["WEIGHTS"])
        spec.tier = tier or "exact"
        spec.cutoff = cutoff
        spec.weight_dims = tuple(dims)
    known: dict[str, set] = {}   # each basis section's labels
    for name, sec in _ROW_SECTIONS.items():
        rows = tuple(raw.get(name, ()))
        setattr(spec, sec.field, rows)
        mode, seen = sec.kind.startswith("u n"), set()
        for row, lineno in zip(rows, linenos.get(name, ())):
            key = row[:3] if mode else row[0]
            if key in seen:
                raise _Fault(f"duplicate {sec.repeat} {key!r}", 0, lineno)
            seen.add(key)
        if sec.kind == "label weight":
            known[name] = seen
        if name == "BASIS" and "VACUUM" in raw:  # [VACUUM] follows [BASIS]
            if not raw["VACUUM"]:
                raise _Fault("empty [VACUUM] section", None, header_line["VACUUM"])
            spec.vacuum = raw["VACUUM"][0]
    if known["BASIS"] and spec.vacuum is not None and spec.vacuum not in known["BASIS"]:
        raise _Fault(f"vacuum {spec.vacuum!r} is not a basis label", 0, linenos["VACUUM"][0])
    for name, sec in _ROW_SECTIONS.items():
        _check_slots(getattr(spec, sec.field), linenos.get(name, ()), sec, known)
    if spec.basis and spec.weight_dims:
        have = {}
        for lab, w in spec.basis:
            have[w] = have.get(w, 0) + 1
        stated = dict(spec.weight_dims)
        lo, hi = min(stated), max(stated)
        for w, d in have.items():
            if not lo <= w <= hi:
                raise _Fault(
                    f"basis weight {w} is outside the weight table range",
                    None, header_line["BASIS"])
        for w in range(lo, hi + 1):
            if stated.get(w, 0) != have.get(w, 0):
                raise _Fault(
                    f"weight table says dim {stated.get(w, 0)} at weight {w}, "
                    f"basis has {have.get(w, 0)}", None, header_line["WEIGHTS"])
    return spec


# ---------------------------------------------------------------------------
# converters: SpecFile -> live objects
# ---------------------------------------------------------------------------

def _terms_to_vec(terms: Terms, index: Mapping[str, int], what: str) -> dict:
    """The terms summed by label, zero sums dropped; a label missing from
    ``index`` raises ValueError naming ``what``."""
    vec: dict[str, int | Fraction] = {}
    for coeff, lab in terms:
        if lab not in index:
            raise ValueError(f"{what}: unknown label {lab!r}")
        c = vec.get(lab, 0) + coeff
        if c:
            vec[lab] = c
        else:
            vec.pop(lab, None)
    return vec


def _labeled(rows, left: GradedSpace, right: GradedSpace, target: GradedSpace,
             what: str):
    """Each file row (u, n, v, terms) whose terms do not sum to zero, as the
    pair ``ModeFamily.from_labels`` takes, row by row; an unknown label
    raises ValueError naming ``what``."""
    li, ri, ti = left.index, right.index, target.index
    for u, n, v, terms in rows:
        if u not in li:
            raise ValueError(f"{what} row: unknown algebra label {u!r}")
        if v not in ri:
            kind = "algebra" if right is left else "module"
            raise ValueError(f"{what} row: unknown {kind} label {v!r}")
        vec = _terms_to_vec(terms, ti, f"{what} {u}[{n}]{v}")
        if vec:
            yield (u, n, v), vec


def to_algebra(spec: SpecFile) -> VertexAlgebra:
    """Build the algebra; weight-rule and vacuum problems surface as usual."""
    if not spec.basis or spec.vacuum is None:
        raise ValueError("file does not describe an algebra (missing basis or vacuum)")
    space = GradedSpace(
        list(spec.basis), tier=spec.tier, cutoff=spec.cutoff,
        min_weight=min(w for w, _ in spec.weight_dims) if spec.weight_dims else None,
    )
    entries = dict(_labeled(spec.modes, space, space, space, "mode"))
    return build_vertex_algebra(space, spec.vacuum, entries)


def to_module(spec: SpecFile, V: VertexAlgebra) -> VAModule:
    """Build the module over V described by the MODULE_* and TW sections;
    an empty [MODULE_BASIS] describes the zero module."""
    if not spec.module_basis and "MODULE_BASIS" not in spec.sections:
        raise ValueError("file does not describe a module (missing MODULE_BASIS)")
    vsp = V.space
    wsp = GradedSpace(
        list(spec.module_basis), tier=vsp.tier,
        cutoff=vsp.cutoff if vsp.tier == "truncated" else None,
    )
    Y_W = ModeFamily.from_labels(
        vsp, wsp, wsp, _labeled(spec.module_modes, vsp, wsp, wsp, "module mode"))
    T_W = GradedMap(wsp, wsp, 1)
    for lab, terms in spec.tw:
        vec = _terms_to_vec(terms, wsp.index, f"T {lab}")
        T_W.set_column(wsp.index[lab], {wsp.index[t]: c for t, c in vec.items()})
    return VAModule(wsp, Y_W, T_W)


def to_cochain(spec: SpecFile, V: VertexAlgebra, W: VAModule) -> TwoCochain:
    """Build the 2-cochain in the PSI section, valued in W."""
    entries = dict(_labeled(spec.psi, V.space, V.space, W.space, "psi"))
    return TwoCochain.from_entries(V, W, entries)


# ---------------------------------------------------------------------------
# dumping: live objects -> SpecFile -> canonical text
# ---------------------------------------------------------------------------

def _rows(table: Mapping[tuple, Mapping[str, int | Fraction]]) -> tuple:
    """Label-keyed vectors as file rows (*key, terms), in the table's order."""
    if not all(isinstance(c, (int, Fraction)) for vec in table.values() for c in vec.values()):
        raise ValueError("only exact rational coefficients can be serialized")
    return tuple((*key, tuple(zip(vec.values(), vec))) for key, vec in table.items())


def spec_from_objects(V: VertexAlgebra, W: VAModule | None = None,
                      psi=None) -> SpecFile:
    """Snapshot live objects into a canonical SpecFile."""
    sp = V.space
    spec = SpecFile(
        tier=sp.tier,
        cutoff=sp.cutoff,
        weight_dims=tuple((w, sp.dim(w)) for w in range(sp.min_weight, sp.cutoff + 1)),
        basis=tuple(zip(sp.labels, sp.weights)),
        vacuum=sp.label_of(V.vacuum),
        modes=_rows(V.Y.by_labels()),
    )
    if W is not None:
        wsp = W.space
        spec.sections = frozenset({"MODULE_BASIS"})
        spec.module_basis = tuple(zip(wsp.labels, wsp.weights))
        # the adjoint module's action is V's own table: its rows are [MODES]
        spec.module_modes = spec.modes if W.Y_W is V.Y else _rows(W.Y_W.by_labels())
        spec.tw = _rows({(wsp.labels[s],): wsp.describe(col)    # rows (w, terms)
                         for s, col in sorted(W.T_W.columns.items())})
    if psi is not None:
        spec.psi = _rows(psi.psi.by_labels())
    return spec


def _format_terms(terms: Terms) -> str:
    if not terms:
        return "0"
    return " + ".join(f"{format_rational(c)}*{lab}" for c, lab in terms)


def dump_spec(spec: SpecFile) -> str:
    """Canonical text: fixed section order, one row per line, trailing newline."""
    blocks: list[str] = []
    if spec.basis:
        lines = [f"tier {spec.tier}"]
        if spec.cutoff is not None:
            lines.append(f"cutoff {spec.cutoff}")
        lines += [f"{w} {d}" for w, d in spec.weight_dims]
        blocks.append("[WEIGHTS]\n" + "\n".join(lines))
    for name, sec in _ROW_SECTIONS.items():
        rows = getattr(spec, sec.field)
        if rows or name in spec.sections:
            if sec.kind == "label weight":
                lines = [f"{lab} {w}" for lab, w in rows]
            elif sec.kind == "w -> ...":
                lines = [f"{lab} -> {_format_terms(t)}" for lab, t in rows]
            else:
                lines = [f"{u} {n} {v} -> {_format_terms(t)}" for u, n, v, t in rows]
            blocks.append("\n".join([f"[{name}]", *lines]))
        if name == "BASIS" and spec.vacuum is not None:
            blocks.append(f"[VACUUM]\n{spec.vacuum}")
    return "\n\n".join(blocks) + "\n"
