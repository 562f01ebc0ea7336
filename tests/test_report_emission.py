"""The ``--json`` report path: one line from json's C encoder, built lazily.

The reports used to be written by a deep copy (tuples to lists, keys to
strings) followed by ``json.dumps(..., indent=2)``, which runs json's pure
Python encoder.  ``legacy_encoding`` keeps that slow path as the oracle: the
new one-line report must decode to the same object.
"""

from __future__ import annotations

import json

import pytest

from vertexcoh import cli
from vertexcoh.cli import main
from vertexcoh.presets import build_preset
from vertexcoh.specfile import dump_spec, spec_from_objects

_DUMPS = json.dumps


def _legacy_jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _legacy_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_legacy_jsonable(x) for x in obj]
    return obj


def legacy_encoding(report) -> str:
    """The report text as the CLI wrote it before the one-line encoder."""
    return _DUMPS(_legacy_jsonable(report), indent=2)


def _files(tmp_path):
    text = dump_spec(spec_from_objects(build_preset("dual-numbers")))
    files = {
        "broken-dual": text.replace("eps -1 one -> 1*eps", "eps -1 one -> 2*eps"),
        # nonzero on the vacuum, so no cocycle: extend and deform both fail
        "noncocycle2": "[PSI]\none -1 a1 -> 1*a1\na1 -1 a1 -> -2*a2\n",
        "dual-class": "[PSI]\neps -1 eps -> 1*one\n",
        "dual-cob": "[PSI]\neps -1 eps -> 2*eps\n",
        "zero": "[PSI]\n",
    }
    for name, body in files.items():
        (tmp_path / f"{name}.txt").write_text(body)
    return lambda name: str(tmp_path / f"{name}.txt")


# (id, argv builder, exit code); every argv gets "--json" appended
JSON_CASES = [
    ("check-dual", lambda f: ["check", "--preset", "dual-numbers"], 0),
    ("check-broken-dual", lambda f: ["check", f("broken-dual")], 1),
    ("check-boson-3", lambda f: ["check", "--preset", "free-boson", "--cutoff", "3"], 0),
    ("h1-dual", lambda f: ["h1", "--preset", "dual-numbers"], 0),
    ("h1-boson-2", lambda f: ["h1", "--preset", "free-boson", "--cutoff", "2"], 0),
    ("h2-dual", lambda f: ["h2", "--preset", "dual-numbers"], 0),
    ("extend-noncocycle-2", lambda f: ["extend", "--preset", "free-boson", "--cutoff", "2",
                                       "--psi", f("noncocycle2")], 1),
    ("extend-dual-out", lambda f: ["extend", "--preset", "dual-numbers",
                                   "--psi", f("dual-class"), "--out", f("total")], 0),
    ("deform-noncocycle-2", lambda f: ["deform", "--preset", "free-boson", "--cutoff", "2",
                                       "--psi", f("noncocycle2")], 1),
    ("equiv-extension", lambda f: ["equiv", "--preset", "dual-numbers", "--kind",
                                   "extension", "--psi", f("dual-cob"),
                                   "--psi2", f("zero")], 0),
    ("equiv-deformation", lambda f: ["equiv", "--preset", "dual-numbers", "--kind",
                                     "deformation", "--psi", f("dual-cob"),
                                     "--psi2", f("zero")], 0),
    ("equiv-inequivalent", lambda f: ["equiv", "--preset", "dual-numbers",
                                      "--psi", f("dual-class"), "--psi2", f("zero")], 1),
    ("dump-preset", lambda f: ["dump-preset", "free-boson", "--cutoff", "2"], 0),
    ("dump-preset-out", lambda f: ["dump-preset", "dual-numbers", "--out", f("dump")], 0),
]


def _without_elapsed(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "elapsed_ms"}


@pytest.mark.parametrize("argv, code", [c[1:] for c in JSON_CASES],
                         ids=[c[0] for c in JSON_CASES])
def test_json_report_equals_the_legacy_encoding(argv, code, tmp_path, capsys,
                                                monkeypatch):
    captured = []

    def spy(obj, *a, **kw):
        captured.append(obj)
        return _DUMPS(obj, *a, **kw)

    monkeypatch.setattr(cli.json, "dumps", spy)
    assert main([*argv(_files(tmp_path)), "--json"]) == code
    monkeypatch.undo()
    out = capsys.readouterr().out
    assert len(captured) == 1
    assert _without_elapsed(json.loads(out)) == \
        _without_elapsed(json.loads(legacy_encoding(captured[0])))


@pytest.mark.parametrize("argv, code", [c[1:] for c in JSON_CASES],
                         ids=[c[0] for c in JSON_CASES])
def test_json_report_is_one_line_with_default_separators(argv, code, tmp_path, capsys):
    assert main([*argv(_files(tmp_path)), "--json"]) == code
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    # json.loads keeps key order, so re-encoding with json's defaults
    # reproduces the text exactly when it was written with them (compared
    # as a flag: pytest's diff of two megabyte strings takes minutes)
    default_layout = out == _DUMPS(json.loads(out)) + "\n"
    assert default_layout


def test_clean_check_report_spells_an_empty_failure_list(capsys):
    # perfbench/selftest.py doctors exactly this text to fake a failure
    assert main(["check", "--preset", "free-boson", "--cutoff", "2", "--json"]) == 0
    assert '"failed": []' in capsys.readouterr().out


TEXT_CASES = [
    ("check-pass", lambda f: ["check", "--preset", "free-boson", "--cutoff", "2"], 0),
    ("check-fail", lambda f: ["check", f("broken-dual")], 1),
    ("extend-pass", lambda f: ["extend", "--preset", "dual-numbers",
                               "--psi", f("dual-class")], 0),
    ("extend-fail", lambda f: ["extend", "--preset", "free-boson", "--cutoff", "2",
                               "--psi", f("noncocycle2")], 1),
    ("deform-pass", lambda f: ["deform", "--preset", "dual-numbers",
                               "--psi", f("dual-class")], 0),
    ("deform-fail", lambda f: ["deform", "--preset", "free-boson", "--cutoff", "2",
                               "--psi", f("noncocycle2")], 1),
]


@pytest.mark.parametrize("argv, code", [c[1:] for c in TEXT_CASES],
                         ids=[c[0] for c in TEXT_CASES])
def test_text_mode_builds_no_report_data(argv, code, tmp_path, capsys, monkeypatch):
    args = argv(_files(tmp_path))
    assert main(args) == code
    want = capsys.readouterr()
    assert want.out.startswith("verdict: ")

    def refuse(rep):
        raise AssertionError("per-instance report data built in text mode")

    built = cli._report_data
    monkeypatch.setattr(cli, "_report_data", refuse)
    assert main(args) == code
    assert capsys.readouterr() == want

    calls = []

    def count(rep):
        calls.append(rep)
        return built(rep)

    monkeypatch.setattr(cli, "_report_data", count)
    assert main([*args, "--json"]) == code
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["data"]["verdict"] == \
        want.out.splitlines()[0].removeprefix("verdict: ")
