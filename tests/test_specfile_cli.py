"""The plain-text file format and the command-line front end."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracles as orc
import vertexcoh
from vertexcoh.cli import main
from vertexcoh.cohomology import TwoCochain, compute_der, compute_h2
from vertexcoh.axioms import check_module, translation_map
from vertexcoh.extensions import build_extension, verify_extension
from vertexcoh.presets import PRESETS, adjoint_module, build_preset
from vertexcoh.spaces import VAModule
from vertexcoh.specfile import (
    ParseError,
    dump_spec,
    parse_spec,
    spec_from_objects,
    to_algebra,
    to_cochain,
    to_module,
)

F = Fraction

EXACT_PRESETS = ("trivial", "dual-numbers", "split-pair", "graded-nilpotent")


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------

def test_dump_parse_round_trip_every_preset():
    for name in PRESETS:
        V = build_preset(name)
        text = dump_spec(spec_from_objects(V))
        V2 = to_algebra(parse_spec(text))
        assert V2.same_content(V), name
        assert dump_spec(parse_spec(text)) == text, name


def test_dump_parse_round_trip_module_and_cochain():
    V = build_preset("dual-numbers")
    W = adjoint_module(V)
    psi = TwoCochain.from_entries(V, W, {("eps", -1, "eps"): {"one": F(1)}})
    text = dump_spec(spec_from_objects(V, W, psi))
    spec = parse_spec(text)
    V2 = to_algebra(spec)
    W2 = to_module(spec, V2)
    psi2 = to_cochain(spec, V2, W2)
    assert V2.same_content(V)
    assert W2.Y_W.entries == W.Y_W.entries
    assert W2.T_W.columns == W.T_W.columns
    assert psi2.psi.entries == psi.psi.entries
    assert dump_spec(spec) == text


def test_comments_and_blank_lines_are_ignored():
    text = (
        "# a full-line comment\n"
        "\n"
        "[BASIS]   # trailing comment\n"
        "one 0     # the unit\n"
        "\n"
        "[VACUUM]\n"
        "one\n"
        "[MODES]\n"
        "one -1 one -> 1*one\n"
    )
    V = to_algebra(parse_spec(text))
    assert V.space.labels == ("one",)
    assert V.Y.entry(0, -1, 0) == {0: F(1)}


def test_rhs_grammar_coefficients_and_zero():
    text = (
        "[BASIS]\none 0\nu 0\n"
        "[VACUUM]\none\n"
        "[MODES]\n"
        "one -1 one -> 1*one\n"
        "one -1 u -> u\n"            # bare label means coefficient 1
        "u -1 one -> 1/2*u + 1/2*u\n"  # repeated targets accumulate
        "u -1 u -> 0\n"              # explicit zero row stores nothing
    )
    V = to_algebra(parse_spec(text))
    assert V.Y.entry(1, -1, 0) == {1: F(1)}
    assert V.Y.entry(1, -1, 1) is None


# ---------------------------------------------------------------------------
# parse errors carry line and column
# ---------------------------------------------------------------------------

def _err(text: str) -> ParseError:
    with pytest.raises(ParseError) as info:
        parse_spec(text)
    return info.value


def test_parse_error_locations():
    cases = [
        ("[BOGUS]\n", 1, 1, "unknown section"),
        ("one 0\n", 1, 1, "before the first section"),
        ("[WEIGHTS] tier\n", 1, 11, "stand alone"),
        ("[WEIGHTS]\ntier weird\n", 2, 1, "tier"),
        ("[BASIS]\none 0\n[BASIS]\n", 3, 1, "duplicate section"),
        ("[WEIGHTS]\ntier exact\ntier exact\n", 3, 1, "duplicate 'tier'"),
        ("[WEIGHTS]\n1 1\n0 1\n", 1, 1, "sorted and distinct"),
        ("[BASIS]\none 0\none 1\n", 3, 1, "duplicate basis label"),
        ("[VACUUM]\none\ntwo\n", 3, 1, "multiple vacuum rows"),
        ("[VACUUM]\n", 1, 1, "empty [VACUUM]"),
        ("[MODES]\na -1 b 1*c\n", 2, 1, "expected 'u n v ->"),
        ("[MODES]\na x b -> 1*c\n", 2, 3, "must be an integer"),
        ("[MODES]\na -1 b -> 1.5*c\n", 2, 11, "expected 'coeff*label'"),
        ("[MODES]\na -1 b -> c + 1/0*c\n", 2, 15, "zero denominator"),
        ("[MODES]\na -1 b -> 1*c\na -1 b -> 2*c\n", 3, 1, "duplicate mode row"),
        ("[TW]\nx -> 1*y\nx -> 2*y\n", 3, 1, "duplicate TW row 'x'"),
    ]
    for text, line, col, fragment in cases:
        err = _err(text)
        assert err.line == line, text
        assert err.col == col, text
        assert fragment in err.message, text
        assert f"line {line}, col {col}" in str(err), text


def test_parse_error_dangling_plus_and_nonlone_zero():
    text = "[PSI]\na -1 b -> 1*c +\n"
    err = _err(text)
    assert err.line == 2
    assert err.col == text.splitlines()[1].rindex("+") + 1
    assert "dangling '+'" in err.message

    text = "[PSI]\na -1 b -> 0 + 1*c\n"
    err = _err(text)
    assert err.line == 2
    assert "'0' must stand alone" in err.message


def test_cross_section_checks():
    base = "[BASIS]\none 0\neps 1\n[VACUUM]\n{vac}\n"
    err = _err(base.format(vac="missing"))
    assert (err.line, err.col) == (5, 1)
    assert "not a basis label" in err.message

    err = _err("[BASIS]\none 0\n[MODES]\none -1 ghost -> 1*one\n")
    assert err.line == 4 and err.col == 8
    assert "unknown basis label 'ghost'" in err.message

    err = _err("[WEIGHTS]\n0 2\n[BASIS]\none 0\n")
    assert err.line == 1
    assert "weight table says dim 2 at weight 0, basis has 1" in err.message

    err = _err("[WEIGHTS]\n0 1\n[BASIS]\none 0\nfar 5\n")
    assert "outside the weight table range" in err.message

    err = _err("[MODULE_BASIS]\nm 0\n[PSI]\na -1 b -> 1*zzz\n")
    assert "unknown basis label 'zzz'" in err.message


def test_fragment_psi_defers_label_checks_to_the_converter():
    spec = parse_spec("[PSI]\nghost -1 ghost -> 1*ghost\n")
    assert spec.psi and spec.basis == ()
    V = build_preset("dual-numbers")
    W = adjoint_module(V)
    with pytest.raises(ValueError, match="unknown"):
        to_cochain(spec, V, W)


def test_converters_reject_incomplete_files():
    with pytest.raises(ValueError, match="missing basis or vacuum"):
        to_algebra(parse_spec("[PSI]\n"))
    V = build_preset("dual-numbers")
    with pytest.raises(ValueError, match="missing MODULE_BASIS"):
        to_module(parse_spec("[BASIS]\none 0\n"), V)


# a [PSI] file, or a module file without [BASIS], names algebra labels that
# only the converter can resolve
@pytest.mark.parametrize("flag, text, message", [
    ("--psi", "[PSI]\nzz -1 eps -> 1*one\n", "psi row: unknown algebra label 'zz'"),
    ("--psi", "[PSI]\neps -1 zz -> 1*one\n", "psi row: unknown algebra label 'zz'"),
    ("--psi", "[PSI]\neps -1 eps -> 1*zz\n", "psi eps[-1]eps: unknown label 'zz'"),
    ("--module", "[MODULE_BASIS]\nm 0\n[MODULE_MODES]\nzz -1 m -> 1*m\n",
     "module mode row: unknown algebra label 'zz'"),
], ids=["psi-u", "psi-v", "psi-target", "module-u"])
def test_cli_converter_errors_name_the_unknown_label(flag, text, message, tmp_path, capsys):
    f = tmp_path / "input.txt"
    f.write_text(text)
    command = "extend" if flag == "--psi" else "check"
    assert main([command, "--preset", "dual-numbers", flag, str(f)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


# ---------------------------------------------------------------------------
# command line: exit codes and report shapes
# ---------------------------------------------------------------------------

def _dump(name: str, **kw) -> str:
    return dump_spec(spec_from_objects(build_preset(name, **kw)))


def test_cli_check_all_presets_pass(capsys):
    for name in EXACT_PRESETS:
        assert main(["check", "--preset", name]) == 0
        out = capsys.readouterr().out
        assert out.startswith("verdict: pass"), name
    assert main(["check", "--preset", "free-boson", "--cutoff", "2"]) == 0
    assert "verdict: pass-within-window" in capsys.readouterr().out


def test_cli_check_json_report_shape(capsys):
    assert main(["check", "--preset", "dual-numbers", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) == {
        "command", "inputs", "status", "exit_code", "data", "elapsed_ms",
    }
    assert report["command"] == "check"
    assert report["status"] == "pass"
    assert report["exit_code"] == 0
    assert report["inputs"] == [
        {"kind": "preset", "name": "dual-numbers", "cutoff": None}
    ]
    assert report["data"]["verdict"] == "pass"
    assert report["data"]["failed"] == []
    assert report["data"]["passed"]["identity"] > 0
    assert isinstance(report["elapsed_ms"], float)


def test_cli_check_file_and_corruption(tmp_path, capsys):
    good = tmp_path / "dual.txt"
    good.write_text(_dump("dual-numbers"))
    assert main(["check", str(good)]) == 0
    capsys.readouterr()

    bad = tmp_path / "bad.txt"
    bad.write_text(good.read_text().replace("eps -1 one -> 1*eps",
                                            "eps -1 one -> 1*one"))
    assert main(["check", str(bad), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert report["inputs"][0]["kind"] == "file"
    assert len(report["inputs"][0]["sha256"]) == 64
    failed_axioms = {f["axiom"] for f in report["data"]["failed"]}
    assert "creation" in failed_axioms
    instances = [f["instance"] for f in report["data"]["failed"]]
    assert ["eps", -1, "one"] in instances


def test_cli_check_with_module_file(tmp_path, capsys):
    V = build_preset("dual-numbers")
    mod = tmp_path / "mod.txt"
    mod.write_text(dump_spec(spec_from_objects(V, adjoint_module(V))))
    assert main(["check", "--preset", "dual-numbers",
                 "--module", str(mod), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["data"]["passed"]["module-identity"] > 0

    alg_only = tmp_path / "alg.txt"
    alg_only.write_text(_dump("dual-numbers"))
    assert main(["check", "--preset", "dual-numbers",
                 "--module", str(alg_only)]) == 2


def test_cli_input_problems_exit_two(tmp_path, capsys):
    assert main(["check", "--preset", "no-such-thing"]) == 2
    assert "unknown preset" in capsys.readouterr().err
    assert main(["check"]) == 2
    assert main(["check", str(tmp_path / "absent.txt")]) == 2
    f = tmp_path / "dual.txt"
    f.write_text(_dump("dual-numbers"))
    assert main(["check", str(f), "--preset", "dual-numbers"]) == 2
    assert main(["check", "--bogus-flag"]) == 2
    broken = tmp_path / "broken.txt"
    broken.write_text("[BOGUS]\n")
    assert main(["check", str(broken)]) == 2
    assert "line 1, col 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["dump-preset", "dual-numbers"],
    ["extend", "--preset", "dual-numbers"],
], ids=["dump-preset", "extend"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_cli_unwritable_out_path_exits_two(argv, json_flag, tmp_path, capsys):
    target = tmp_path / "absent" / "x.txt"
    assert main([*argv, "--out", str(target), *json_flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert captured.err.count("\n") == 1
    assert not target.parent.exists()


_EACH_FILE_ROLE = pytest.mark.parametrize("argv", [
    lambda bad: ["check", bad],
    lambda bad: ["check", "--preset", "dual-numbers", "--module", bad],
    lambda bad: ["extend", "--preset", "dual-numbers", "--psi", bad],
], ids=["algebra", "module", "psi"])
_TEXT_OR_JSON = pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])


@_EACH_FILE_ROLE
@_TEXT_OR_JSON
def test_cli_undecodable_input_exits_two(argv, json_flag, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe\x00bad")
    assert main([*argv(str(bad)), *json_flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read {bad}: ")
    assert captured.err.count("\n") == 1


@_EACH_FILE_ROLE
@_TEXT_OR_JSON
def test_cli_zero_denominator_is_a_located_parse_error(argv, json_flag, tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("[PSI]\neps -1 eps -> eps + 1/0*one\n")
    assert main([*argv(str(bad)), *json_flag]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: line 2, col 21: zero denominator: '1/0'\n"


def test_cli_cutoff_rules(tmp_path, capsys):
    exact = tmp_path / "graded.txt"
    exact.write_text(_dump("graded-nilpotent"))                # weights 0 and 1
    assert main(["check", str(exact), "--cutoff", "3"]) == 0   # widening is fine
    assert main(["check", str(exact), "--cutoff", "0"]) == 2   # below top weight
    assert "below the top basis weight" in capsys.readouterr().err

    boson = tmp_path / "boson.txt"
    boson.write_text(_dump("free-boson", cutoff=2))
    assert main(["check", str(boson), "--cutoff", "2"]) == 0   # matches the file
    assert main(["check", str(boson), "--cutoff", "3"]) == 2   # cannot be widened
    assert "fixes its own cutoff" in capsys.readouterr().err

    assert main(["check", "--preset", "free-boson", "--cutoff", "-1"]) == 2


@pytest.mark.parametrize("command", ["check", "h1", "h2"])
def test_cli_module_above_the_cutoff_names_its_weight(command, tmp_path, capsys):
    # the module's bottom weight, read off its basis, lies above the cutoff
    mod = tmp_path / "mod.txt"
    mod.write_text("[MODULE_BASIS]\nm 5\n[TW]\n")
    assert main([command, "--preset", "free-boson", "--cutoff", "2",
                 "--module", str(mod)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: weight 5 is above the cutoff 2\n"


def test_cli_dump_preset_round_trips(capsys, tmp_path):
    assert main(["dump-preset", "graded-nilpotent"]) == 0
    text = capsys.readouterr().out
    V = to_algebra(parse_spec(text))
    assert V.same_content(build_preset("graded-nilpotent"))

    out = tmp_path / "boson.txt"
    assert main(["dump-preset", "free-boson", "--cutoff", "3",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["check", str(out)]) == 0
    assert "pass-within-window" in capsys.readouterr().out

    assert main(["dump-preset", "nope"]) == 2


def test_cli_h1_h2_report_dimensions(capsys):
    assert main(["h1", "--preset", "dual-numbers", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["data"]["h1_dim"] == 1
    assert rep["data"]["basis"] == [{"eps": {"eps": "1"}}]

    assert main(["h2", "--preset", "dual-numbers", "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert (rep["data"]["z2_dim"], rep["data"]["b2_dim"],
            rep["data"]["h2_dim"]) == (2, 1, 1)
    assert rep["data"]["representatives"] == [{"eps -1 eps": {"one": "1"}}]

    assert main(["h2", "--preset", "graded-nilpotent"]) == 0
    out = capsys.readouterr().out
    assert "h2 dimension: 0" in out


def test_cli_h2_reports_a_module_that_breaks_its_axioms(tmp_path, capsys):
    # the adjoint module of the dual numbers plus eps_{-1} eps = eps: Jacobi fails
    V = build_preset("dual-numbers")
    eps = V.space.index["eps"]
    Y_W = V.Y.copy()
    Y_W.set_entry(eps, -1, eps, {eps: F(1)})
    mod = tmp_path / "mod.txt"
    mod.write_text(dump_spec(spec_from_objects(V, VAModule(V.space, Y_W, translation_map(V)))))
    assert main(["h2", "--preset", "dual-numbers", "--module", str(mod)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("failure: the module fails its axioms")
    assert "('jacobi', ('eps', 'eps', 'w:eps', -1, 0, -1), 'eps')" in captured.err
    assert "Traceback" not in captured.err


def test_cli_extend_writes_a_checkable_artifact(tmp_path, capsys):
    psi = tmp_path / "psi.txt"
    psi.write_text("[PSI]\neps -1 eps -> 1*one\n")
    total = tmp_path / "total.txt"
    assert main(["extend", "--preset", "dual-numbers",
                 "--psi", str(psi), "--out", str(total), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "pass"
    assert report["data"]["total_dims"] == {"0": 4}
    assert report["data"]["out"] == str(total)

    assert main(["check", str(total)]) == 0          # artifact is a real algebra
    capsys.readouterr()
    V = to_algebra(parse_spec(total.read_text()))
    assert V.space.labels == ("one", "eps", "w:one", "w:eps")


def test_cli_extends_the_total_of_an_extension(tmp_path, capsys, monkeypatch):
    # the total of the README's extension is Q[x]/(x^4) and has labels
    # starting with "w:", so the fiber of its own extensions takes "w:w:"
    monkeypatch.chdir(tmp_path)
    Path("psi.txt").write_text("[PSI]\neps -1 eps -> 1*one\n")
    Path("zero.txt").write_text("[PSI]\n")
    assert main(["extend", "--preset", "dual-numbers", "--psi", "psi.txt",
                 "--out", "total.txt"]) == 0
    assert main(["extend", "total.txt", "--out", "total2.txt"]) == 0
    assert main(["equiv", "total.txt", "--psi", "zero.txt", "--psi2", "zero.txt"]) == 0
    assert capsys.readouterr().err == ""
    labels = ("one", "eps", "w:one", "w:eps")
    total2 = to_algebra(parse_spec(Path("total2.txt").read_text()))
    assert total2.space.labels == labels + tuple("w:w:" + lab for lab in labels)

    index = {lab: i for i, lab in enumerate(labels)}
    x4 = orc.AlgebraTable("x4", labels, (0,) * 4, 0, {
        (index[a], index[b]): {index[t]: c for t, c in vec.items()}
        for (a, b), vec in orc.EXPECTED_X4_TABLE.items()})
    assert main(["h1", "total.txt", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["data"]["h1_dim"] == orc.derivation_dim(x4) == 3
    assert main(["h2", "total.txt", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert (data["z2_dim"], data["b2_dim"], data["h2_dim"]) \
        == orc.classical_h2_dims(x4) == (12, 9, 3)


def test_cli_extend_refuses_non_cocycles(tmp_path, capsys):
    psi = tmp_path / "psi.txt"
    psi.write_text("[PSI]\none -1 eps -> 1*eps\n")
    total = tmp_path / "total.txt"
    assert main(["extend", "--preset", "dual-numbers",
                 "--psi", str(psi), "--out", str(total)]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert not total.exists()                        # no artifact on failure


def test_cli_deform_pass_and_fail(tmp_path, capsys):
    good = tmp_path / "good.txt"
    good.write_text("[PSI]\neps -1 eps -> 1*one\n")
    assert main(["deform", "--preset", "dual-numbers", "--psi", str(good)]) == 0
    assert "every axiom to first order" in capsys.readouterr().out

    bad = tmp_path / "bad.txt"
    bad.write_text("[PSI]\none -1 eps -> 1*eps\n")
    assert main(["deform", "--preset", "dual-numbers",
                 "--psi", str(bad), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "fail"
    assert any(f["axiom"] == "identity" for f in report["data"]["failed"])


def test_cli_deform_reports_a_failing_algebra(tmp_path, capsys):
    # the deformed table's own check reports the algebra's failures
    bad = tmp_path / "bad.txt"
    bad.write_text(_dump("dual-numbers").replace("eps -1 one -> 1*eps",
                                                 "eps -1 one -> 2*eps"))
    zero = tmp_path / "zero.txt"
    zero.write_text("[PSI]\n")

    def fail_instances(out):
        return [line.split(": residual")[0] for line in out.splitlines()
                if line.startswith("FAIL ")]

    assert main(["check", str(bad)]) == 1
    want = fail_instances(capsys.readouterr().out)
    assert len(want) == 5
    assert main(["deform", str(bad), "--psi", str(zero)]) == 1
    assert fail_instances(capsys.readouterr().out) == want


def test_cli_deform_prints_first_order_residuals_as_a_plus_b_t(tmp_path, capsys):
    # the value part is V's own residual and the slope part psi's; both are
    # spelled exactly, a negative slope as "a - |b|*t" and no slope as "+ 0*t"
    bad = tmp_path / "bad.txt"
    bad.write_text("[PSI]\none -1 eps -> 1*eps\n")
    assert main(["deform", "--preset", "dual-numbers", "--psi", str(bad)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "verdict: fail"
    assert out[2:5] == [
        "FAIL identity ('one', -1, 'eps'): residual {'eps': '0 + 1*t'}",
        "FAIL skew-symmetry ('one', -1, 'eps'): residual {'eps': '0 + 1*t'}",
        "FAIL skew-symmetry ('eps', -1, 'one'): residual {'eps': '0 - 1*t'}",
    ]
    assert len(out) == 11
    assert main(["deform", "--preset", "dual-numbers", "--psi", str(bad), "--json"]) == 1
    failed = json.loads(capsys.readouterr().out)["data"]["failed"]
    assert [f["residual"] for f in failed] == [{"eps": s} for s in (
        "0 + 1*t", "0 + 1*t", "0 - 1*t",
        "0 - 1*t", "0 - 1*t", "0 + 1*t", "0 - 1*t", "0 - 1*t", "0 + 1*t")]

    # a failing algebra deformed along a p/q slope: nonzero value parts too
    alg = tmp_path / "alg.txt"
    alg.write_text(_dump("dual-numbers").replace("eps -1 one -> 1*eps",
                                                 "eps -1 one -> 2*eps"))
    pq = tmp_path / "pq.txt"
    pq.write_text("[PSI]\none -1 eps -> -3/4*eps\n")
    assert main(["deform", str(alg), "--psi", str(pq)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[2:5] == [
        "FAIL identity ('one', -1, 'eps'): residual {'eps': '0 - 3/4*t'}",
        "FAIL creation ('eps', -1, 'one'): residual {'eps': '1 + 0*t'}",
        "FAIL skew-symmetry ('one', -1, 'eps'): residual {'eps': '-1 - 3/4*t'}",
    ]
    assert main(["deform", str(alg), "--psi", str(pq), "--json"]) == 1
    failed = json.loads(capsys.readouterr().out)["data"]["failed"]
    assert [f["residual"]["eps"] for f in failed] == [
        "0 - 3/4*t", "1 + 0*t", "-1 - 3/4*t", "1 + 3/4*t", "0 + 3/4*t", "0 + 3/4*t",
        "0 - 3/2*t", "0 + 3/2*t", "2 + 0*t", "2 + 3/2*t", "0 - 3/2*t"]


def test_cli_equiv_both_kinds(tmp_path, capsys):
    rep = tmp_path / "rep.txt"
    rep.write_text("[PSI]\neps -1 eps -> 1*one\n")
    cob = tmp_path / "cob.txt"
    cob.write_text("[PSI]\neps -1 eps -> 2*eps\n")
    zero = tmp_path / "zero.txt"
    zero.write_text("[PSI]\n# no rows: the zero cochain\n")

    for kind in ("extension", "deformation"):
        assert main(["equiv", "--preset", "dual-numbers", "--kind", kind,
                     "--psi", str(cob), "--psi2", str(zero), "--json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "equivalent"
        assert out["data"]["kind"] == kind

        assert main(["equiv", "--preset", "dual-numbers", "--kind", kind,
                     "--psi", str(rep), "--psi2", str(zero)]) == 1
        assert "inequivalent" in capsys.readouterr().out


def test_cli_equiv_rejects_non_cocycles(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("[PSI]\none -1 eps -> 1*eps\n")
    zero = tmp_path / "zero.txt"
    zero.write_text("[PSI]\n")
    for kind in ("extension", "deformation"):
        assert main(["equiv", "--preset", "dual-numbers", "--kind", kind,
                     "--psi", str(bad), "--psi2", str(zero)]) == 1
        assert "failure:" in capsys.readouterr().err
    # a non-cocycle second extension fails too, though only the first is
    # verified: the difference is then no cocycle
    assert main(["equiv", "--preset", "dual-numbers", "--psi", str(zero),
                 "--psi2", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "failure: cannot compare an unverified extension\n"


def test_cli_equiv_refuses_two_unverified_deformations(tmp_path, capsys):
    # the difference of bad and bad is the zero cocycle; the deformations
    # themselves break the identity axiom, so they are not compared
    bad = tmp_path / "bad.txt"
    bad.write_text("[PSI]\none -1 eps -> 1*eps\n")
    assert main(["equiv", "--preset", "dual-numbers", "--kind", "deformation",
                 "--psi", str(bad), "--psi2", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "failure: cannot compare an unverified deformation\n"


def test_cli_equiv_deformation_does_not_depend_on_a_module(tmp_path, capsys):
    # psi = delta g for g: eps -> one under the dual numbers' own action; a
    # module with V's labels on which eps acts by zero would read it otherwise
    dual = tmp_path / "dual.txt"
    assert main(["dump-preset", "dual-numbers", "--out", str(dual)]) == 0
    mod = tmp_path / "mod.txt"
    mod.write_text("[MODULE_BASIS]\none 0\neps 0\n\n"
                   "[MODULE_MODES]\none -1 one -> 1*one\none -1 eps -> 1*eps\n")
    psi = tmp_path / "psi.txt"
    psi.write_text("[PSI]\neps -1 eps -> 2*eps\n")
    zero = tmp_path / "zero.txt"
    zero.write_text("[PSI]\n")
    assert main(["check", str(dual), "--module", str(mod)]) == 0
    capsys.readouterr()
    args = ["equiv", str(dual), "--kind", "deformation", "--psi", str(psi),
            "--psi2", str(zero)]
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == [
        "equivalent (deformation): f_t = 1 + t g carries deformation 1 to deformation 2",
        "shear: {'eps': {'one': '1'}}",
    ]
    assert main(args + ["--module", str(mod)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_exits_quietly_when_stdout_closes_early():
    # the cutoff-3 report is far larger than a pipe buffer, so the writer is
    # still writing when the reader goes away
    src = Path(vertexcoh.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    with subprocess.Popen(
        [sys.executable, "-m", "vertexcoh.cli", "check", "--preset", "free-boson",
         "--cutoff", "3", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.read(80).startswith(b'{"command": "check"')
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_cli_exits_quietly_when_stdout_closes_amid_the_skipped_instances():
    # the 2.3 MB cutoff-3 report is written in batches of skipped instances;
    # the reader leaves after about 1 MB, in the middle of them
    src = Path(vertexcoh.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    with subprocess.Popen(
        [sys.executable, "-m", "vertexcoh.cli", "check", "--preset", "free-boson",
         "--cutoff", "3", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        head = proc.stdout.read(1 << 20)
        assert len(head) == 1 << 20 and b'"skipped": [{"axiom": ' in head
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


# ---------------------------------------------------------------------------
# the zero module: a file whose [MODULE_BASIS] is empty
# ---------------------------------------------------------------------------

ZERO_MODULE = "[MODULE_BASIS]\n[TW]\n"


@pytest.mark.parametrize("name, cutoff", [("dual-numbers", None),
                                          ("graded-nilpotent", None),
                                          ("free-boson", 2)])
def test_an_empty_module_basis_is_the_zero_module(name, cutoff):
    V = build_preset(name, cutoff)
    spec = parse_spec(ZERO_MODULE)
    assert spec.sections == {"MODULE_BASIS", "TW"} and spec.module_basis == ()
    W = to_module(spec, V)
    assert len(W.space) == 0
    assert check_module(V, W).verdict == "pass"
    assert compute_der(V, W).h_dim == 0
    h2 = compute_h2(V, W)
    assert (len(h2.cocycle_basis), len(h2.coboundary_basis), h2.h_dim) == (0, 0, 0)
    ext = build_extension(V, W, TwoCochain.zero(V, W))
    assert verify_extension(ext).verdict != "fail"


@pytest.mark.parametrize("argv, line", [
    (["check", "--preset", "dual-numbers"], "verdict: pass"),
    (["h1", "--preset", "dual-numbers"], "h1 dimension: 0"),
    (["h2", "--preset", "dual-numbers"], "h2 dimension: 0"),
    (["h2", "--preset", "free-boson", "--cutoff", "2"], "h2 dimension: 0 (window level-2)"),
    (["extend", "--preset", "dual-numbers"], "verdict: pass"),
], ids=["check", "h1", "h2", "h2-boson-2", "extend"])
def test_cli_reads_an_empty_module_basis_as_the_zero_module(argv, line, tmp_path, capsys):
    mod = tmp_path / "zero.txt"
    mod.write_text(ZERO_MODULE)
    assert main([*argv, "--module", str(mod)]) == 0
    captured = capsys.readouterr()
    assert line in captured.out.splitlines() and captured.err == ""


def test_cli_a_module_file_without_a_module_basis_header_exits_two(tmp_path, capsys):
    mod = tmp_path / "no-module.txt"
    mod.write_text("[TW]\n")
    assert main(["check", "--preset", "dual-numbers", "--module", str(mod)]) == 2
    assert capsys.readouterr() == (
        "", "error: file does not describe a module (missing MODULE_BASIS)\n")


# ---------------------------------------------------------------------------
# command line: refusals before any computation
# ---------------------------------------------------------------------------

# the dual numbers with eps_{-1} one = 2 eps: creation, skew-symmetry and
# Jacobi fail, so the algebra has no adjoint module
BROKEN_DUAL = ("[BASIS]\none 0\neps 0\n[VACUUM]\none\n[MODES]\n"
               "one -1 one -> 1*one\none -1 eps -> 1*eps\neps -1 one -> 2*eps\n")
NO_ADJOINT = ("failure: cannot take the adjoint module: 5 axiom instance(s) "
              "fail on the algebra itself\n")


@pytest.mark.parametrize("argv, code, err", [
    (["h1", "{alg}"], 1, NO_ADJOINT),
    (["h2", "{alg}"], 1, NO_ADJOINT),
    (["extend", "{alg}"], 1, NO_ADJOINT),
    (["equiv", "{alg}", "--psi", "{psi}", "--psi2", "{psi}"], 1, NO_ADJOINT),
    (["check", "{alg}", "--preset", "trivial"], 2,
     "error: give an input file or --preset, not both\n"),
    (["check"], 2, "error: an input file or --preset is required\n"),
    (["equiv", "--preset", "dual-numbers", "--kind", "deformation", "--module", "{psi}",
      "--psi", "{psi}", "--psi2", "{psi}"], 2,
     "error: --kind deformation compares deformations of the algebra itself "
     "and takes no --module\n"),
], ids=["h1-broken", "h2-broken", "extend-broken", "equiv-broken", "file-and-preset",
        "no-input", "deformation-with-module"])
def test_cli_refusals_print_one_line_and_exit(argv, code, err, tmp_path, capsys):
    alg, psi = tmp_path / "broken-dual.txt", tmp_path / "zero-psi.txt"
    alg.write_text(BROKEN_DUAL)
    psi.write_text("[PSI]\n")
    assert main([a.format(alg=alg, psi=psi) for a in argv]) == code
    assert capsys.readouterr() == ("", err)
