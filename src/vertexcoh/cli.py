"""Command-line front end.

Subcommands:

    check        run the axiom checker on an algebra (and optional module)
    h1           derivation space of an algebra with module coefficients
    h2           2-cocycles, coboundaries and the quotient
    extend       build and verify a square-zero extension along a cochain
    deform       build a first-order deformation and check it end to end
    equiv        decide whether two cochains give equivalent structures
    dump-preset  write a built-in example as a canonical algebra file

Inputs are an algebra file or ``--preset NAME`` (one of trivial,
dual-numbers, split-pair, graded-nilpotent, free-boson).  Exit codes: 0 for
mathematical success (pass, pass-within-window, equivalent, computed,
artifact written), 1 for mathematical failure (axiom failures, inequivalent,
not a cocycle, a module that fails its axioms), 2 for unusable input (parse
errors, an unreadable or undecodable file, unknown preset, bad flags,
impossible cutoffs, an unwritable ``--out`` path).  A reader that closes
stdout before the output is written (``| head``, a pager quit early) gets
exit code 1 and no traceback: the rest of the output goes to os.devnull.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
import time
from collections.abc import Callable
from itertools import islice
from pathlib import Path

from .axioms import (
    AxiomReport,
    JacobiBlock,
    check_all,
    check_module,
    translation_map,
)
from .cohomology import (
    ModuleAxiomsFail,
    NotACocycle,
    TwoCochain,
    compute_der,
    compute_h2,
)
from .extensions import (
    NotVerified,
    build_deformation,
    build_extension,
    check_equivalence_deformations,
    check_equivalence_extensions,
    verify_extension,
)
from .presets import PRESETS, adjoint_module, build_preset
from .spaces import (
    GradedMap,
    NoVacuum,
    VacuumWrongWeight,
    VertexAlgebra,
    VAModule,
    WeightRuleViolation,
)
from .specfile import (
    ParseError,
    SpecFile,
    dump_spec,
    parse_spec,
    spec_from_objects,
    to_algebra,
    to_cochain,
    to_module,
)


class InputError(Exception):
    """Unusable invocation or input data: exit code 2."""


class MathError(Exception):
    """The computation ran but the mathematics says no: exit code 1."""


# ---------------------------------------------------------------------------
# serialization helpers
# ---------------------------------------------------------------------------

def _coeffs(vec: dict) -> dict:
    """A coefficient vector for output, every scalar as its exact text.

    ``str`` spells an int or a Fraction "p" or "p/q" and a first-order
    coefficient (a jet in one direction) "a + b*t", so a coefficient prints
    the same whichever form it is stored in.  Counts, dimensions and mode
    indices are not coefficients: they stay numbers.
    """
    return {k: str(c) for k, c in vec.items()}


def _report_data(rep: AxiomReport) -> dict:
    """The report's data; ``skipped`` yields its entries' texts as the writer asks.

    A detail report keeps each Jacobi triple's skips as one JacobiBlock; the
    entries expand it here, one text per instance in order (see
    ``_skip_texts``), so no entry exists before the writer asks for it.
    """
    return {
        "verdict": rep.verdict,
        "passed": rep.passed_counts(),
        "failed": [
            {"axiom": a, "instance": inst, "residual": _coeffs(res)}
            for a, inst, res in rep.failed
        ],
        "skipped": _skip_texts(rep.skipped_instances),
    }


def _skip_texts(items):
    """The json text of each skip entry of ``items``, a block's skips in order.

    ``items`` are a detail report's ``(axiom, instance, reason)`` skips.  Each
    text is ``json.dumps({"axiom": axiom, "instance": one, "reason": reason})``
    for one instance ``one``, built without that dict: a ``str`` is encoded
    by json once per report and its text reused, an ``int`` is written as
    json writes it, and the skips of a JacobiBlock share every text but p's
    within each run of its window.  An entry holding any other value, a bool
    or a Fraction say, is encoded by json whole, so no cache ever hands out
    the text of a value of another type.
    """
    import json

    dumps = json.dumps
    strings: dict[str, str] = {}
    reasons: dict[int, tuple] = {}    # id(reason): (reason, its text or None)

    def text(x):
        """x's json text when x is exactly a str or an int, else None."""
        if type(x) is str:
            t = strings.get(x)
            if t is None:
                t = strings[x] = dumps(x)
            return t
        return int.__repr__(x) if type(x) is int else None

    def seq(values):
        """The json text of a list of exact strs and ints, else None."""
        parts = [text(x) for x in values]
        return None if None in parts else "[" + ", ".join(parts) + "]"

    for axiom, inst, why in items:
        head = text(axiom)
        if type(inst) is JacobiBlock:
            labels = seq((inst.lu, inst.lv, inst.lw))
            if head is None or labels is None:
                for one, reason in inst.skips():
                    yield dumps({"axiom": axiom, "instance": one, "reason": reason})
                continue
            prefix = f'{{"axiom": {head}, "instance": {labels[:-1]}, '
            for ps, q, r, weight in inst.window.skips:
                tail = f', {q}, {r}], "reason": ["TruncationBreach", {weight}]}}'
                for p in ps:
                    yield prefix + int.__repr__(p) + tail
            continue
        held = reasons.get(id(why))
        if held is None:
            # keeping the reason alive keeps its id from naming another object
            held = reasons[id(why)] = (why, seq(why) if type(why) is tuple else None)
        reason = held[1]
        if head is not None and reason is not None and type(inst) is tuple:
            instance = seq(inst)
            if instance is not None:
                yield f'{{"axiom": {head}, "instance": {instance}, "reason": {reason}}}'
                continue
        yield dumps({"axiom": axiom, "instance": inst, "reason": why})


def _map_data(g: GradedMap) -> dict:
    return {g.source.label_of(s): _coeffs(g.target.describe(g.columns[s]))
            for s in sorted(g.columns)}


def _cochain_data(psi: TwoCochain) -> dict:
    return {f"{u} {n} {v}": _coeffs(vec)
            for (u, n, v), vec in psi.entries_by_labels().items()}


def _window_suffix(window: str | None) -> str:
    return f" (window {window})" if window else ""


def _write_file(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _verdict_lines(rep: AxiomReport) -> list[str]:
    counts = " ".join(f"{k}={v}" for k, v in sorted(rep.passed_counts().items()))
    lines = [f"verdict: {rep.verdict}", f"passed: {counts or 'none'}"]
    for a, inst, res in rep.failed[:10]:
        lines.append(f"FAIL {a} {inst}: residual {_coeffs(res)}")
    if len(rep.failed) > 10:
        lines.append(f"... and {len(rep.failed) - 10} more failures")
    if rep.skipped:
        lines.append(f"skipped: {len(rep.skipped)} instance(s) beyond the cutoff")
    return lines


# ---------------------------------------------------------------------------
# input loading
# ---------------------------------------------------------------------------

def _read_spec(args, path: str, sources: list[dict]) -> SpecFile:
    """Parse the file at ``path`` and add its provenance entry to ``sources``.

    The file is read once.  Its text is what ``Path.read_text()`` gives
    (locale decoding, universal newlines).  Only ``--json`` reports print the
    entry, so only they get a digest: the sha256 of the bytes parsed.  A text
    run never imports hashlib.
    """
    try:
        data = Path(path).read_bytes()
        text = io.TextIOWrapper(io.BytesIO(data)).read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    source = {"kind": "file", "path": path}
    if args.json:
        import hashlib
        source["sha256"] = hashlib.sha256(data).hexdigest()
    sources.append(source)
    return parse_spec(text)


def _build_preset(name: str, cutoff: int | None) -> VertexAlgebra:
    try:
        return build_preset(name, cutoff=cutoff)
    except KeyError as exc:
        raise InputError(
            f"unknown preset {name!r} (have: {', '.join(sorted(PRESETS))})"
        ) from exc
    except ValueError as exc:
        raise InputError(str(exc)) from exc


def _load_algebra(args) -> tuple[VertexAlgebra, list[dict]]:
    """The algebra under study plus provenance entries for the report."""
    preset = getattr(args, "preset", None)
    path = getattr(args, "input", None)
    cutoff = getattr(args, "cutoff", None)
    if preset and path:
        raise InputError("give an input file or --preset, not both")
    if preset:
        algebra = _build_preset(preset, cutoff)
        return algebra, [{"kind": "preset", "name": preset, "cutoff": cutoff}]
    if not path:
        raise InputError("an input file or --preset is required")
    sources: list[dict] = []
    spec = _read_spec(args, path, sources)
    if cutoff is not None:
        top = max((w for _, w in spec.basis), default=0)
        stated = spec.cutoff if spec.cutoff is not None else top
        if spec.tier == "truncated":
            if cutoff != stated:
                raise InputError(
                    "a truncated file fixes its own cutoff; rebuild the file "
                    "instead of passing --cutoff"
                )
        elif cutoff < top:
            raise InputError(f"cutoff {cutoff} is below the top basis weight {top}")
        else:
            spec.cutoff = cutoff
    try:
        algebra = to_algebra(spec)
    except (NoVacuum, VacuumWrongWeight, WeightRuleViolation, ValueError) as exc:
        raise InputError(str(exc)) from exc
    return algebra, sources


def _load_module(args, V: VertexAlgebra, sources: list[dict]) -> VAModule:
    path = getattr(args, "module", None)
    if path:
        spec = _read_spec(args, path, sources)
        try:
            return to_module(spec, V)
        except (WeightRuleViolation, ValueError) as exc:
            raise InputError(str(exc)) from exc
    try:
        return adjoint_module(V)
    except ValueError as exc:
        raise MathError(str(exc)) from exc


def _load_cochain(args, path: str, V: VertexAlgebra, W: VAModule,
                  sources: list[dict]) -> TwoCochain:
    spec = _read_spec(args, path, sources)
    try:
        return to_cochain(spec, V, W)
    except (WeightRuleViolation, ValueError) as exc:
        raise InputError(str(exc)) from exc


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _emit(args, command: str, sources: list[dict], status: str, code: int,
          data: Callable[[], dict], lines: list[str], started: float) -> int:
    """Print the text lines, or under ``--json`` the report built from ``data()``.

    ``data`` is a zero-argument function, so text mode never builds the
    per-instance data.  File digests exist only in ``--json`` reports: a text
    run's ``sources`` carry none (see ``_read_spec``).  ``elapsed_ms`` is
    read before the report is written, so it leaves out building and
    encoding the skipped instances' entries.
    """
    if args.json:
        _write_json({
            "command": command,
            "inputs": sources,
            "status": status,
            "exit_code": code,
            "data": data(),
            "elapsed_ms": round((time.monotonic() - started) * 1000, 3),
        })
    else:
        for line in lines:
            print(line)
    return code


# skipped entry texts joined per write: about 40 KB
_SKIP_BATCH = 256
# holds data["skipped"]'s place while the rest of a report is encoded; no
# label, path, reason or coefficient holds a NUL, so no input encodes to it
_SKIPPED_MARK = "\0skipped\0"


def _write_json(report: dict) -> None:
    """Write ``json.dumps(report) + "\\n"`` to stdout, byte for byte.

    The report is one line: CPython's json uses its C encoder only when
    ``indent`` is None.  json writes tuples as lists and int keys as their
    decimal text.  ``data["skipped"]``, if present, may be any iterable of
    entry texts, each the ``json.dumps`` of one entry (see ``_skip_texts``):
    they are joined ``_SKIP_BATCH`` at a time and each batch is written at
    once, so neither the list of entries nor the report text is held.
    """
    import json

    data = report["data"]
    entries = iter(data.get("skipped", ()))
    if "skipped" in data:
        report = {**report, "data": {**data, "skipped": _SKIPPED_MARK}}
    head, hole, tail = json.dumps(report).partition(json.dumps(_SKIPPED_MARK))
    write = sys.stdout.write
    write(head)
    if hole:
        write("[")
        batch = list(islice(entries, _SKIP_BATCH))
        while batch:
            write(", ".join(batch))
            batch = list(islice(entries, _SKIP_BATCH))
            if batch:
                write(", ")
        write("]")
    write(tail + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_check(args, started: float) -> int:
    V, sources = _load_algebra(args)
    rep = check_all(V, detail=args.json)
    if getattr(args, "module", None):
        W = _load_module(args, V, sources)
        check_module(V, W, report=rep)
    code = 1 if rep.verdict == "fail" else 0
    return _emit(args, "check", sources, rep.verdict, code,
                 lambda: _report_data(rep), _verdict_lines(rep), started)


def _cmd_h1(args, started: float) -> int:
    V, sources = _load_algebra(args)
    W = _load_module(args, V, sources)
    res = compute_der(V, W)
    data = {
        "h1_dim": res.h_dim,
        "window": res.window,
        "basis": [_map_data(g) for g in res.representative_classes],
    }
    lines = [f"h1 dimension: {data['h1_dim']}{_window_suffix(data['window'])}"]
    lines += [f"derivation {i}: {g}" for i, g in enumerate(data["basis"])]
    return _emit(args, "h1", sources, "computed", 0, lambda: data, lines, started)


def _cmd_h2(args, started: float) -> int:
    V, sources = _load_algebra(args)
    W = _load_module(args, V, sources)
    res = compute_h2(V, W)
    data = {
        "z2_dim": len(res.cocycle_basis),
        "b2_dim": len(res.coboundary_basis),
        "h2_dim": res.h_dim,
        "window": res.window,
        "representatives": [_cochain_data(p) for p in res.representative_classes],
    }
    lines = [
        f"z2 dimension: {data['z2_dim']}",
        f"b2 dimension: {data['b2_dim']}",
        f"h2 dimension: {data['h2_dim']}{_window_suffix(data['window'])}",
    ]
    lines += [f"class {i}: {p}" for i, p in enumerate(data["representatives"])]
    return _emit(args, "h2", sources, "computed", 0, lambda: data, lines, started)


def _cmd_extend(args, started: float) -> int:
    V, sources = _load_algebra(args)
    W = _load_module(args, V, sources)
    psi = (_load_cochain(args, args.psi, V, W, sources) if args.psi
           else TwoCochain.zero(V, W))
    ext = build_extension(V, W, psi)
    rep = verify_extension(ext, detail=args.json)
    extra = {"total_dims": ext.total.space.dims()}

    def data():
        return {**_report_data(rep), **extra}

    lines = _verdict_lines(rep)
    if rep.verdict == "fail":
        return _emit(args, "extend", sources, "fail", 1, data, lines, started)
    if args.out:
        _write_file(args.out, dump_spec(spec_from_objects(ext.total)))
        extra["out"] = args.out
        lines.append(f"total algebra written to {args.out}")
    return _emit(args, "extend", sources, rep.verdict, 0, data, lines, started)


def _cmd_deform(args, started: float) -> int:
    V, sources = _load_algebra(args)
    # W only parses psi: the deformed table's own check covers V's axioms
    W = VAModule(V.space, V.Y, translation_map(V))
    psi = _load_cochain(args, args.psi, V, W, sources)
    try:
        defm = build_deformation(V, psi)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rep = check_all(defm.deformed, detail=args.json)
    code = 1 if rep.verdict == "fail" else 0
    status = rep.verdict if code else "first-order structure verified"
    lines = _verdict_lines(rep)
    if code == 0:
        lines.append("the deformed mode table satisfies every axiom to first order")
    return _emit(args, "deform", sources, status, code,
                 lambda: _report_data(rep), lines, started)


def _cmd_equiv(args, started: float) -> int:
    if args.kind == "deformation" and args.module:
        raise InputError("--kind deformation compares deformations of the "
                         "algebra itself and takes no --module")
    V, sources = _load_algebra(args)
    W = _load_module(args, V, sources)
    psi1 = _load_cochain(args, args.psi, V, W, sources)
    psi2 = _load_cochain(args, args.psi2, V, W, sources)
    if args.kind == "extension":
        res = check_equivalence_extensions(psi1, psi2)
    else:
        res = check_equivalence_deformations(psi1, psi2)
    if res is None:
        lines = ["inequivalent: the difference cochain is a cocycle "
                 "but not a coboundary"]
        return _emit(args, "equiv", sources, "inequivalent", 1,
                     lambda: {"equivalent": False}, lines, started)
    data = {"equivalent": True, "kind": res.kind, "note": res.note,
            "shear": _map_data(res.g)}
    lines = [f"equivalent ({data['kind']}): {data['note']}", f"shear: {data['shear']}"]
    return _emit(args, "equiv", sources, "equivalent", 0, lambda: data, lines, started)


def _cmd_dump_preset(args, started: float) -> int:
    V = _build_preset(args.name, args.cutoff)
    text = dump_spec(spec_from_objects(V))
    sources = [{"kind": "preset", "name": args.name, "cutoff": args.cutoff}]
    if args.out:
        _write_file(args.out, text)
        return _emit(args, "dump-preset", sources, "written", 0,
                     lambda: {"out": args.out}, [f"written to {args.out}"], started)
    if args.json:
        return _emit(args, "dump-preset", sources, "dumped", 0,
                     lambda: {"text": text}, [], started)
    sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vertexcoh",
        description="axiom checking and low-degree cohomology for graded "
                    "vertex algebras with exact arithmetic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, module=True):
        sp.add_argument("input", nargs="?", metavar="FILE",
                        help="algebra file (or use --preset)")
        sp.add_argument("--preset", metavar="NAME",
                        help="built-in example: " + ", ".join(sorted(PRESETS)))
        sp.add_argument("--cutoff", type=int, metavar="N",
                        help="weight cutoff: resizes the free boson, widens "
                             "exact windows")
        if module:
            sp.add_argument("--module", metavar="FILE",
                            help="module file (default: the algebra acting "
                                 "on itself)")
        sp.add_argument("--json", action="store_true",
                        help="emit a full JSON report")

    sp = sub.add_parser("check", help="run the axiom checker")
    common(sp)
    sp.set_defaults(func=_cmd_check)

    sp = sub.add_parser("h1", help="compute the derivation space")
    common(sp)
    sp.set_defaults(func=_cmd_h1)

    sp = sub.add_parser("h2", help="compute cocycles, coboundaries, classes")
    common(sp)
    sp.set_defaults(func=_cmd_h2)

    sp = sub.add_parser("extend", help="build and verify a square-zero extension")
    common(sp)
    sp.add_argument("--psi", metavar="FILE",
                    help="cochain file ([PSI] section); default: zero")
    sp.add_argument("--out", metavar="FILE",
                    help="write the verified total algebra here")
    sp.set_defaults(func=_cmd_extend)

    sp = sub.add_parser("deform", help="check a first-order deformation")
    common(sp, module=False)
    sp.add_argument("--psi", metavar="FILE", required=True,
                    help="cochain file ([PSI] section)")
    sp.set_defaults(func=_cmd_deform)

    sp = sub.add_parser("equiv", help="decide equivalence of two cochains")
    common(sp)
    sp.add_argument("--psi", metavar="FILE", required=True,
                    help="first cochain file")
    sp.add_argument("--psi2", metavar="FILE", required=True,
                    help="second cochain file")
    sp.add_argument("--kind", choices=("extension", "deformation"),
                    default="extension",
                    help="which structures to compare (default: extension)")
    sp.set_defaults(func=_cmd_equiv)

    sp = sub.add_parser("dump-preset", help="write a preset as an algebra file")
    sp.add_argument("name", metavar="NAME",
                    help="one of: " + ", ".join(sorted(PRESETS)))
    sp.add_argument("--cutoff", type=int, metavar="N")
    sp.add_argument("--out", metavar="FILE")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_dump_preset)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.monotonic()
    try:
        code = args.func(args, started)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone; keep the interpreter's final flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (MathError, ModuleAxiomsFail, NotACocycle, NotVerified) as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
