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

Optional sections carry a module (``MODULE_BASIS``, ``MODULE_MODES`` with
rows "u n w -> ...", ``TW`` with rows "w -> ..."), and a 2-cochain (``PSI``
with the same row shape as MODES but targets in the module basis).  A file
may hold any subset — e.g. a bare [PSI] file resolved against an algebra
loaded elsewhere; label resolution that cannot happen at parse time happens
in the converters instead.

``dump_spec`` emits a canonical form (sections in fixed order, rows in flat
basis order, every coefficient spelled ``c*label``), and parsing a canonical
dump reproduces the SpecFile exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

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

_SECTIONS = (
    "WEIGHTS", "BASIS", "VACUUM", "MODES",
    "MODULE_BASIS", "MODULE_MODES", "TW", "PSI",
)
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
    """Parsed file contents; converters below turn these into live objects."""

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


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _fields(line: str) -> list[tuple[str, int]]:
    """Whitespace-separated fields with 1-based column positions."""
    return [(m.group(0), m.start() + 1) for m in re.finditer(r"\S+", line)]

def _parse_int(text: str, lineno: int, col: int, what: str) -> int:
    if not _INT_RE.match(text):
        raise ParseError(f"{what} must be an integer, got {text!r}", lineno, col)
    return int(text)

def _parse_label(text: str, lineno: int, col: int, what: str) -> str:
    if not _LABEL_RE.match(text):
        raise ParseError(f"{what} is not a valid label: {text!r}", lineno, col)
    return text

def _parse_terms(fields: list[tuple[str, int]], lineno: int) -> tuple[Terms, list[int]]:
    """The right-hand side after '->': '0' alone, or terms joined by '+'."""
    if not fields:
        raise ParseError("missing right-hand side after '->'", lineno)
    if fields[0][0] == "0":
        if len(fields) > 1:
            raise ParseError("'0' must stand alone", lineno, fields[1][1])
        return (), []
    terms: list[tuple[int | Fraction, str]] = []
    cols: list[int] = []
    expect_term = True
    for text, col in fields:
        if expect_term:
            m = _TERM_RE.match(text)
            if not m:
                raise ParseError(f"expected 'coeff*label' or 'label', got {text!r}", lineno, col)
            try:
                coeff = parse_rational(m.group("coeff")) if m.group("coeff") else 1
            except ValueError as exc:                # a zero denominator
                raise ParseError(str(exc), lineno, col) from None
            terms.append((coeff, m.group("label")))
            cols.append(col)
            expect_term = False
        else:
            if text != "+":
                raise ParseError(f"expected '+' between terms, got {text!r}", lineno, col)
            expect_term = True
    if expect_term:
        raise ParseError("dangling '+' at end of line", lineno, fields[-1][1])
    return tuple(terms), cols

def _parse_mode_row(fields: list[tuple[str, int]], lineno: int, left_what: str,
                    right_what: str) -> tuple[tuple[str, int, str, Terms], tuple]:
    """A row 'u n v -> terms'; returns the row plus field positions for checks."""
    if len(fields) < 4 or fields[3][0] != "->":
        raise ParseError(f"expected '{left_what} n {right_what} -> ...'", lineno,
                         fields[0][1] if fields else 1)
    (ut, uc), (nt, nc), (vt, vc) = fields[0], fields[1], fields[2]
    u = _parse_label(ut, lineno, uc, left_what)
    n = _parse_int(nt, lineno, nc, "mode index")
    v = _parse_label(vt, lineno, vc, right_what)
    terms, tcols = _parse_terms(fields[4:], lineno)
    return (u, n, v, terms), (uc, vc, tcols)


def parse_spec(text: str) -> SpecFile:
    """Parse and validate; cross-section checks run when both sides are present."""
    raw: dict[str, list] = {}
    positions: dict[str, list] = {}
    header_line: dict[str, int] = {}
    section = None

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0]
        fields = _fields(line)
        if not fields:
            continue
        first, fcol = fields[0]
        if first.startswith("["):
            if len(fields) > 1:
                raise ParseError("a section header must stand alone", lineno, fields[1][1])
            name = first[1:-1] if first.endswith("]") else None
            if name not in _SECTIONS:
                raise ParseError(f"unknown section {first!r}", lineno, fcol)
            if name in raw:
                raise ParseError(f"duplicate section [{name}]", lineno, fcol)
            raw[name] = []
            positions[name] = []
            header_line[name] = lineno
            section = name
            continue
        if section is None:
            raise ParseError("content before the first section header", lineno, fcol)

        if section == "WEIGHTS":
            if first == "tier":
                if len(fields) != 2 or fields[1][0] not in ("exact", "truncated"):
                    raise ParseError("expected 'tier exact' or 'tier truncated'", lineno, fcol)
                raw[section].append(("tier", fields[1][0]))
            elif first == "cutoff":
                if len(fields) != 2:
                    raise ParseError("expected 'cutoff N'", lineno, fcol)
                raw[section].append(("cutoff", _parse_int(fields[1][0], lineno, fields[1][1], "cutoff")))
            else:
                if len(fields) != 2:
                    raise ParseError("expected 'weight dim'", lineno, fcol)
                w = _parse_int(first, lineno, fcol, "weight")
                d = _parse_int(fields[1][0], lineno, fields[1][1], "dimension")
                if d < 0:
                    raise ParseError("dimension must be nonnegative", lineno, fields[1][1])
                raw[section].append(("dim", w, d))
            positions[section].append(lineno)
        elif section in ("BASIS", "MODULE_BASIS"):
            if len(fields) != 2:
                raise ParseError("expected 'label weight'", lineno, fcol)
            lab = _parse_label(first, lineno, fcol, "basis label")
            w = _parse_int(fields[1][0], lineno, fields[1][1], "weight")
            raw[section].append((lab, w))
            positions[section].append((lineno, fcol))
        elif section == "VACUUM":
            if raw[section]:
                raise ParseError("multiple vacuum rows", lineno, fcol)
            if len(fields) != 1:
                raise ParseError("expected a single label", lineno, fields[1][1])
            raw[section].append(_parse_label(first, lineno, fcol, "vacuum"))
            positions[section].append((lineno, fcol))
        elif section in ("MODES", "MODULE_MODES", "PSI"):
            right = "w" if section == "MODULE_MODES" else "v"
            row, pos = _parse_mode_row(fields, lineno, "u", right)
            raw[section].append(row)
            positions[section].append((lineno,) + pos)
        else:  # TW
            if len(fields) < 2 or fields[1][0] != "->":
                raise ParseError("expected 'w -> ...'", lineno, fcol)
            lab = _parse_label(first, lineno, fcol, "module label")
            terms, tcols = _parse_terms(fields[2:], lineno)
            raw[section].append((lab, terms))
            positions[section].append((lineno, fcol, tcols))

    return _assemble(raw, positions, header_line)


def _check_no_duplicates(rows: Sequence, where: Sequence, what: str) -> None:
    seen: dict = {}
    for row, pos in zip(rows, where):
        key = row[:3] if what == "mode row" else row[0]
        lineno = pos[0] if isinstance(pos, tuple) else pos
        col = pos[1] if isinstance(pos, tuple) and len(pos) > 1 and isinstance(pos[1], int) else 1
        if key in seen:
            raise ParseError(f"duplicate {what} {key!r}", lineno, col)
        seen[key] = lineno

def _check_labels(rows, where, known: set, slot: str) -> None:
    """Resolve u/v/target labels of mode-shaped rows against a basis."""
    for (u, _n, v, terms), (lineno, uc, vc, tcols) in zip(rows, where):
        if slot in ("left", "both") and u not in known:
            raise ParseError(f"unknown basis label {u!r}", lineno, uc)
        if slot in ("right", "both") and v not in known:
            raise ParseError(f"unknown basis label {v!r}", lineno, vc)
        if slot == "targets":
            for (_c, t), col in zip(terms, tcols):
                if t not in known:
                    raise ParseError(f"unknown basis label {t!r}", lineno, col)

def _assemble(raw: dict, positions: dict, header_line: dict) -> SpecFile:
    spec = SpecFile()
    if "WEIGHTS" in raw:
        dims = []
        tier = cutoff = None
        for item, lineno in zip(raw["WEIGHTS"], positions["WEIGHTS"]):
            if item[0] == "tier":
                if tier is not None:
                    raise ParseError("duplicate 'tier' directive", lineno)
                tier = item[1]
            elif item[0] == "cutoff":
                if cutoff is not None:
                    raise ParseError("duplicate 'cutoff' directive", lineno)
                cutoff = item[1]
            else:
                dims.append((item[1], item[2]))
        if [w for w, _ in dims] != sorted({w for w, _ in dims}):
            raise ParseError("weight rows must be sorted and distinct",
                             header_line["WEIGHTS"])
        spec.tier = tier or "exact"
        spec.cutoff = cutoff
        spec.weight_dims = tuple(dims)
    if "BASIS" in raw:
        _check_no_duplicates(raw["BASIS"], positions["BASIS"], "basis label")
        spec.basis = tuple(raw["BASIS"])
    if "VACUUM" in raw:
        if not raw["VACUUM"]:
            raise ParseError("empty [VACUUM] section", header_line["VACUUM"])
        spec.vacuum = raw["VACUUM"][0]
    if "MODES" in raw:
        _check_no_duplicates(raw["MODES"], positions["MODES"], "mode row")
        spec.modes = tuple(raw["MODES"])
    if "MODULE_BASIS" in raw:
        _check_no_duplicates(raw["MODULE_BASIS"], positions["MODULE_BASIS"], "basis label")
        spec.module_basis = tuple(raw["MODULE_BASIS"])
    if "MODULE_MODES" in raw:
        _check_no_duplicates(raw["MODULE_MODES"], positions["MODULE_MODES"], "mode row")
        spec.module_modes = tuple(raw["MODULE_MODES"])
    if "TW" in raw:
        _check_no_duplicates(raw["TW"], positions["TW"], "TW row")
        spec.tw = tuple(raw["TW"])
    if "PSI" in raw:
        _check_no_duplicates(raw["PSI"], positions["PSI"], "mode row")
        spec.psi = tuple(raw["PSI"])

    # cross-section checks, wherever both sides are in the file
    if spec.basis:
        labels = {lab for lab, _ in spec.basis}
        if spec.vacuum is not None and spec.vacuum not in labels:
            lineno, col = positions["VACUUM"][0]
            raise ParseError(f"vacuum {spec.vacuum!r} is not a basis label", lineno, col)
        if "MODES" in raw:
            _check_labels(spec.modes, positions["MODES"], labels, "both")
            _check_labels(spec.modes, positions["MODES"], labels, "targets")
        if "MODULE_MODES" in raw:
            _check_labels(spec.module_modes, positions["MODULE_MODES"], labels, "left")
        if "PSI" in raw:
            _check_labels(spec.psi, positions["PSI"], labels, "both")
        if spec.weight_dims:
            have = {}
            for lab, w in spec.basis:
                have[w] = have.get(w, 0) + 1
            stated = dict(spec.weight_dims)
            lo, hi = min(stated), max(stated)
            for w, d in have.items():
                if not lo <= w <= hi:
                    raise ParseError(
                        f"basis weight {w} is outside the weight table range",
                        header_line["BASIS"])
            for w in range(lo, hi + 1):
                if stated.get(w, 0) != have.get(w, 0):
                    raise ParseError(
                        f"weight table says dim {stated.get(w, 0)} at weight {w}, "
                        f"basis has {have.get(w, 0)}", header_line["WEIGHTS"])
    if spec.module_basis:
        wlabels = {lab for lab, _ in spec.module_basis}
        if "MODULE_MODES" in raw:
            _check_labels(spec.module_modes, positions["MODULE_MODES"], wlabels, "right")
            _check_labels(spec.module_modes, positions["MODULE_MODES"], wlabels, "targets")
        for (lab, terms), (lineno, col, tcols) in zip(spec.tw, positions.get("TW", ())):
            if lab not in wlabels:
                raise ParseError(f"unknown basis label {lab!r}", lineno, col)
            for (_c, t), tcol in zip(terms, tcols):
                if t not in wlabels:
                    raise ParseError(f"unknown basis label {t!r}", lineno, tcol)
        if "PSI" in raw:
            _check_labels(spec.psi, positions["PSI"], wlabels, "targets")
    elif spec.basis and "PSI" in raw:
        # no module in the file: psi targets land in the algebra itself
        _check_labels(spec.psi, positions["PSI"], {lab for lab, _ in spec.basis}, "targets")
    return spec


# ---------------------------------------------------------------------------
# converters: SpecFile -> live objects
# ---------------------------------------------------------------------------

def _terms_to_vec(terms: Terms, index: Mapping[str, int], what: str) -> dict:
    vec: dict[int, int | Fraction] = {}
    for coeff, lab in terms:
        if lab not in index:
            raise ValueError(f"{what}: unknown label {lab!r}")
        i = index[lab]
        c = vec.get(i, 0) + coeff
        if c:
            vec[i] = c
        else:
            vec.pop(i, None)
    return vec


def to_algebra(spec: SpecFile) -> VertexAlgebra:
    """Build the algebra; weight-rule and vacuum problems surface as usual."""
    if not spec.basis or spec.vacuum is None:
        raise ValueError("file does not describe an algebra (missing basis or vacuum)")
    space = GradedSpace(
        list(spec.basis), tier=spec.tier, cutoff=spec.cutoff,
        min_weight=min(w for w, _ in spec.weight_dims) if spec.weight_dims else None,
    )
    entries = {}
    for u, n, v, terms in spec.modes:
        vec = {space.labels[i]: c
               for i, c in _terms_to_vec(terms, space.index, f"mode {u}[{n}]{v}").items()}
        if vec:
            entries[(u, n, v)] = vec
    return build_vertex_algebra(space, spec.vacuum, entries)


def to_module(spec: SpecFile, V: VertexAlgebra) -> VAModule:
    """Build the module over V described by the MODULE_* and TW sections."""
    if not spec.module_basis:
        raise ValueError("file does not describe a module (missing MODULE_BASIS)")
    vsp = V.space
    wsp = GradedSpace(
        list(spec.module_basis), tier=vsp.tier,
        cutoff=vsp.cutoff if vsp.tier == "truncated" else None,
    )
    Y_W = ModeFamily(vsp, wsp, wsp)
    for u, n, w, terms in spec.module_modes:
        if u not in vsp.index:
            raise ValueError(f"module mode row: unknown algebra label {u!r}")
        vec = _terms_to_vec(terms, wsp.index, f"module mode {u}[{n}]{w}")
        if vec:
            Y_W.set_entry(vsp.index[u], n, wsp.index[w], vec)
    T_W = GradedMap(wsp, wsp, 1)
    for lab, terms in spec.tw:
        T_W.set_column(wsp.index[lab], _terms_to_vec(terms, wsp.index, f"T {lab}"))
    return VAModule(wsp, Y_W, T_W)


def to_cochain(spec: SpecFile, V: VertexAlgebra, W: VAModule):
    """Build the 2-cochain in the PSI section, valued in W."""
    from .cohomology import TwoCochain

    entries = {}
    for u, n, v, terms in spec.psi:
        for lab in (u, v):
            if lab not in V.space.index:
                raise ValueError(f"psi row: unknown algebra label {lab!r}")
        vec = _terms_to_vec(terms, W.space.index, f"psi {u}[{n}]{v}")
        if vec:
            entries[(u, n, v)] = {W.space.labels[i]: c for i, c in vec.items()}
    return TwoCochain.from_entries(V, W, entries)


# ---------------------------------------------------------------------------
# dumping: live objects -> SpecFile -> canonical text
# ---------------------------------------------------------------------------

def _as_terms(vec: Mapping[int, int | Fraction], labels: Sequence[str]) -> Terms:
    out = []
    for i in sorted(vec):
        c = vec[i]
        if not isinstance(c, (int, Fraction)):
            raise ValueError("only exact rational coefficients can be serialized")
        out.append((c, labels[i]))
    return tuple(out)


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
        modes=tuple(
            (sp.label_of(u), n, sp.label_of(v), _as_terms(vec, sp.labels))
            for u, n, v, vec in V.Y.iter_entries()
        ),
    )
    if W is not None:
        wsp = W.space
        spec.module_basis = tuple(zip(wsp.labels, wsp.weights))
        spec.module_modes = tuple(
            (sp.label_of(u), n, wsp.label_of(w), _as_terms(vec, wsp.labels))
            for u, n, w, vec in W.Y_W.iter_entries()
        )
        spec.tw = tuple(
            (wsp.label_of(s), _as_terms(W.T_W.column(s), wsp.labels))
            for s in sorted(W.T_W.columns)
        )
    if psi is not None:
        wsp = psi.W.space
        spec.psi = tuple(
            (sp.label_of(u), n, sp.label_of(v), _as_terms(vec, wsp.labels))
            for u, n, v, vec in psi.psi.iter_entries()
        )
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
        blocks.append("[BASIS]\n" + "\n".join(f"{lab} {w}" for lab, w in spec.basis))
    if spec.vacuum is not None:
        blocks.append(f"[VACUUM]\n{spec.vacuum}")
    if spec.modes:
        blocks.append("[MODES]\n" + "\n".join(
            f"{u} {n} {v} -> {_format_terms(t)}" for u, n, v, t in spec.modes))
    if spec.module_basis:
        blocks.append("[MODULE_BASIS]\n" + "\n".join(
            f"{lab} {w}" for lab, w in spec.module_basis))
    if spec.module_modes:
        blocks.append("[MODULE_MODES]\n" + "\n".join(
            f"{u} {n} {w} -> {_format_terms(t)}" for u, n, w, t in spec.module_modes))
    if spec.tw:
        blocks.append("[TW]\n" + "\n".join(
            f"{lab} -> {_format_terms(t)}" for lab, t in spec.tw))
    if spec.psi:
        blocks.append("[PSI]\n" + "\n".join(
            f"{u} {n} {v} -> {_format_terms(t)}" for u, n, v, t in spec.psi))
    return "\n\n".join(blocks) + "\n"
