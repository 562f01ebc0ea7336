"""The ``--json`` report path: one line from json's C encoder, streamed.

The reports used to be written by a deep copy (tuples to lists, keys to
strings) followed by ``json.dumps(..., indent=2)``, which runs json's pure
Python encoder.  ``legacy_encoding`` keeps that slow path as the oracle: the
report the CLI hands to its writer, with the skip entries it yields as text
materialised and decoded, must decode to the same object.  The writer
streams those entries in batches, and its text must equal the one-shot
``json.dumps(report) + "\\n"`` byte for byte, whatever the batch size.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vertexcoh
from test_count_reports import seeded_cochains

from vertexcoh import cli
from vertexcoh.cli import main
from vertexcoh.presets import adjoint_module, build_preset
from vertexcoh.specfile import SpecFile, dump_spec, spec_from_objects

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


def _run_capturing_the_report(argv, monkeypatch) -> tuple[int, list[dict]]:
    """Run ``main``: its exit code and the reports it wrote, skips materialised.

    The CLI hands its writer each skip entry as text; the spy hands those
    texts on to the real writer and returns the report with each entry
    decoded, so stdout is the writer's text for exactly the object returned
    (json writes the decoded lists as it writes the tuples they were).
    """
    captured = []
    write = cli._write_json

    def spy(report):
        data = report["data"]
        if "skipped" in data:
            texts = list(data["skipped"])
            report = {**report, "data": {**data, "skipped": texts}}
            captured.append({**report, "data": {**data, "skipped": [
                json.loads(text) for text in texts]}})
        else:
            captured.append(report)
        write(report)

    monkeypatch.setattr(cli, "_write_json", spy)
    code = main(argv)
    monkeypatch.setattr(cli, "_write_json", write)
    return code, captured


@pytest.mark.parametrize("argv, code", [c[1:] for c in JSON_CASES],
                         ids=[c[0] for c in JSON_CASES])
def test_json_report_equals_the_legacy_encoding(argv, code, tmp_path, capsys,
                                                monkeypatch):
    got, captured = _run_capturing_the_report([*argv(_files(tmp_path)), "--json"],
                                              monkeypatch)
    assert got == code
    out = capsys.readouterr().out
    assert len(captured) == 1
    report = captured[0]
    assert _without_elapsed(json.loads(out)) == \
        _without_elapsed(json.loads(legacy_encoding(report)))
    # the report holds the elapsed_ms the writer wrote, so nothing is masked
    # (compared as a flag: pytest's diff of two megabyte strings takes minutes)
    one_shot = out == _DUMPS(report) + "\n"
    assert one_shot


@pytest.mark.parametrize("batch", [1, 2])
@pytest.mark.parametrize("argv, code", [c[1:] for c in JSON_CASES],
                         ids=[c[0] for c in JSON_CASES])
def test_json_report_does_not_depend_on_the_batch_size(argv, code, batch, tmp_path,
                                                       capsys, monkeypatch):
    monkeypatch.setattr(cli, "_SKIP_BATCH", batch)
    got, captured = _run_capturing_the_report([*argv(_files(tmp_path)), "--json"],
                                              monkeypatch)
    assert got == code
    out = capsys.readouterr().out
    assert len(captured) == 1
    one_shot = out == _DUMPS(captured[0]) + "\n"
    assert one_shot


def test_batch_cases_cover_empty_exact_and_remainder(tmp_path, capsys, monkeypatch):
    # skip counts of JSON_CASES: an empty list, a multiple of 2 and an odd count
    counts = set()
    for _name, argv, _code in JSON_CASES:
        _, reports = _run_capturing_the_report([*argv(_files(tmp_path)), "--json"],
                                               monkeypatch)
        for report in reports:
            if "skipped" in report["data"]:
                counts.add(len(report["data"]["skipped"]))
    capsys.readouterr()
    assert 0 in counts
    assert any(n > 2 and n % 2 == 0 for n in counts)
    assert any(n > 2 and n % 2 == 1 for n in counts)


# Runs argv with stdout to os.devnull and prints its exit code and ru_maxrss.
# Linux carries the peak RSS of the address space a process replaces at exec
# into its ru_maxrss, and a child forked from the test process starts in a
# copy of it; started from this small interpreter, the report run does not.
_PEAK_RSS = """
import os, subprocess, sys
with open(os.devnull, "wb") as sink:
    proc = subprocess.Popen(sys.argv[1:], stdout=sink)
    _pid, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_maxrss)
"""


def _peak_rss_mb(argv, cwd=None) -> float:
    """Peak RSS of ``python -m vertexcoh.cli *argv`` in a fresh interpreter,
    which must exit 0."""
    src = Path(vertexcoh.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS, sys.executable, "-m", "vertexcoh.cli", *argv],
        capture_output=True, text=True, env=env, cwd=cwd, check=True)
    code, kib = map(int, run.stdout.split())
    assert code == 0
    return kib / 1024


linux_only = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                reason="ru_maxrss is in KiB on Linux only")


@linux_only
def test_streamed_cutoff_4_report_stays_below_32_mb():
    # the 14.8 MB report used to be held twice, as a list of dicts and as
    # one string (117.8 MB peak).  Streamed, with every fringe skip listed
    # in the detail report, it peaked at about 45 MB; with each run of
    # fringe skips kept whole until the writer encodes it, about 34 MB; with
    # each entry written as text, no dict per entry, about 29 MB
    assert _peak_rss_mb(["check", "--preset", "free-boson", "--cutoff", "4",
                         "--json"]) < 32


@linux_only
def test_streamed_cutoff_3_extension_report_stays_below_40_mb(tmp_path):
    # with every fringe skip of the total listed, about 55 MB; with the runs
    # kept whole, about 42 MB; with each entry written as text, about 37 MB
    V = build_preset("free-boson", 3)
    W = adjoint_module(V)
    psi = seeded_cochains(V, W, "report-emission:boson-3")["cob"]
    (tmp_path / "cob.txt").write_text(
        dump_spec(SpecFile(psi=spec_from_objects(V, psi=psi).psi)))
    assert _peak_rss_mb(["extend", "--preset", "free-boson", "--cutoff", "3",
                         "--psi", "cob.txt", "--json"], cwd=tmp_path) < 40


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
