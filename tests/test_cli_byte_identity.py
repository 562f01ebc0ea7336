"""CLI output pinned byte for byte, in text and in ``--json``.

Axiom reports count their passes and skips, and list the skips only for
``--json``; neither output may move for that.  Each command runs vertexcoh's
``main`` in-process from a directory holding seeded cochain files, and its
exit code, stdout and stderr are compared with a sha256 digest (first 16 hex
digits) recorded from the program as it was before reports could count.  A
``--json`` report is compared without its ``elapsed_ms``.

A ``--json`` report is written as it is encoded, its skipped instances in
batches.  The largest reports, many batches long, are also compared in full
with the one-shot ``json.dumps`` of the report rebuilt from a detail
``AxiomReport`` as the CLI built it before it streamed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

import listing
from test_count_reports import seeded_cochains
from vertexcoh import cli
from vertexcoh.axioms import check_all, check_module, translation_map
from vertexcoh.cli import main
from vertexcoh.extensions import build_deformation, build_extension, verify_extension
from vertexcoh.presets import adjoint_module, build_preset
from vertexcoh.spaces import VAModule
from vertexcoh.specfile import (
    SpecFile,
    dump_spec,
    parse_spec,
    spec_from_objects,
    to_cochain,
    to_module,
)

SETTINGS = {
    "trivial": ("trivial", None),
    "dual-numbers": ("dual-numbers", None),
    "split-pair": ("split-pair", None),
    "graded-nilpotent": ("graded-nilpotent", None),
    "boson-2": ("free-boson", 2),
    "boson-3": ("free-boson", 3),
}
ELAPSED = re.compile(r', "elapsed_ms": [0-9.e+-]+\}$')


def write_inputs(directory) -> None:
    """Per setting a coboundary and a cochain on every slot, plus the zero
    cochain, and the free boson's cutoff-3 adjoint module."""
    (directory / "zero.txt").write_text("[PSI]\n")
    for tag, (name, cutoff) in SETTINGS.items():
        V = build_preset(name, cutoff)
        W = adjoint_module(V)
        if tag == "boson-3":
            (directory / "boson-3-adjoint.txt").write_text(
                dump_spec(spec_from_objects(V, W)))
        for kind, psi in seeded_cochains(V, W, f"cli:{tag}").items():
            text = dump_spec(SpecFile(psi=spec_from_objects(V, psi=psi).psi))
            (directory / f"{tag}-{kind}.txt").write_text(text)


def commands(tag: str) -> dict[str, tuple[str, ...]]:
    name, cutoff = SETTINGS[tag]
    base = ("--preset", name) + (("--cutoff", str(cutoff)) if cutoff is not None else ())
    out = {"check": ("check", *base), "extend": ("extend", *base)}
    for kind in ("cob", "dense"):
        psi = ("--psi", f"{tag}-{kind}.txt")
        out[f"extend-{kind}"] = ("extend", *base, *psi)
        out[f"deform-{kind}"] = ("deform", *base, *psi)
        for structure in ("extension", "deformation"):
            out[f"equiv-{structure}-{kind}"] = (
                "equiv", *base, "--kind", structure, *psi, "--psi2", "zero.txt")
    return out


def run_digest(argv: tuple[str, ...]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    stdout = out.getvalue()
    if "--json" in argv and stdout:        # a refused input prints no report
        stdout, n = ELAPSED.subn("}", stdout.rstrip("\n"))
        assert n == 1, stdout[-200:]
    blob = f"{code}\n{stdout}\n--stderr--\n{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli-inputs")
    write_inputs(directory)
    return directory


# (setting, mode): {command: digest of exit code, stdout and stderr}
DIGESTS: dict = {
    ('boson-2', 'text'): {
        'check': 'e44bb90c1d917abb',
        'extend': 'fc880bef04f3bada',
        'extend-cob': 'fc880bef04f3bada',
        'deform-cob': '7a878c5e7fa3a84b',
        'equiv-extension-cob': '07083bde488a73ac',
        'equiv-deformation-cob': '90a2e1bcdb0ad1e4',
        'extend-dense': '1bda125cfe99f09a',
        'deform-dense': '7cb2c7e640bd9ee1',
        'equiv-extension-dense': 'b46fd4b066fcd75f',
        'equiv-deformation-dense': 'f07a980099de4f71',
    },
    ('boson-2', 'json'): {
        'check': '49e7c9bf3eecf15d',
        'extend': 'f6073d4452446be3',
        'extend-cob': 'ecfd4703eda26adc',
        'deform-cob': '2b2b28156d5a9655',
        'equiv-extension-cob': 'db0c33434a5857a7',
        'equiv-deformation-cob': '806ac923d70da824',
        'extend-dense': 'fae31a07750dde01',
        'deform-dense': '6f640bf4457815a3',
        'equiv-extension-dense': 'b46fd4b066fcd75f',
        'equiv-deformation-dense': 'f07a980099de4f71',
    },
    ('boson-3', 'text'): {
        'check': '76fce13b1c7d9dc6',
        'extend': 'da1f4db6bbdbe3f2',
        'extend-cob': 'da1f4db6bbdbe3f2',
        'deform-cob': '8f612be36690295b',
        'equiv-extension-cob': 'ea65ab20c3c3ca3f',
        'equiv-deformation-cob': '41698cacfc7aa824',
        'extend-dense': '07afce2a3f4d18e2',
        'deform-dense': 'a8cd1fa13f090d35',
        'equiv-extension-dense': 'b46fd4b066fcd75f',
        'equiv-deformation-dense': '7bc23217f4083a64',
    },
    ('boson-3', 'json'): {
        'check': 'd55b0da7abf28401',
        'extend': '6002b5016057443e',
        'extend-cob': '3dd84bd673e8cc5b',
        'deform-cob': 'c7d483608458630b',
        'equiv-extension-cob': 'ab986180ab740320',
        'equiv-deformation-cob': '930f0e31dae07424',
        'extend-dense': '7e98101b0fdbc7be',
        'deform-dense': '8c4a8a199d6c87bc',
        'equiv-extension-dense': 'b46fd4b066fcd75f',
        'equiv-deformation-dense': '7bc23217f4083a64',
    },
    ('dual-numbers', 'text'): {
        'check': '9f2695ac5593d3e0',
        'extend': '000a66066a855fbe',
        'extend-cob': '000a66066a855fbe',
        'deform-cob': '6f9bd2d07ea5c63a',
        'equiv-extension-cob': 'b1e5684360e67153',
        'equiv-deformation-cob': 'f9b5f377716ea0e3',
        'extend-dense': '0e5d413d9056272c',
        'deform-dense': '52c1fe549c82f20e',
        'equiv-extension-dense': 'b46fd4b066fcd75f',
        'equiv-deformation-dense': '869ee7f483600ecd',
    },
    ('dual-numbers', 'json'): {
        'check': '538105084d8ba45f',
        'extend': '17ae7fe2f5490bdb',
        'extend-cob': 'b677aec9f9537594',
        'deform-cob': '2bb1208381a8848e',
        'equiv-extension-cob': 'd28117627c3bb820',
        'equiv-deformation-cob': '65e11c0c0699e34f',
        'extend-dense': '2e2765430738f41f',
        'deform-dense': '3db7d14297977aa7',
        'equiv-extension-dense': 'b46fd4b066fcd75f',
        'equiv-deformation-dense': '869ee7f483600ecd',
    },
    ('graded-nilpotent', 'text'): {
        'check': '4b046a63e62a865d',
        'extend': '4bc372ce24b208b3',
        'extend-cob': '4bc372ce24b208b3',
        'deform-cob': '6ec985efd6bc46d1',
        'equiv-extension-cob': '86845a6b7c415e02',
        'equiv-deformation-cob': '204dd36ee5187752',
        'extend-dense': '7f57c6baf4a3fda6',
        'deform-dense': '5a4a1d24160bd9c9',
        'equiv-extension-dense': 'b46fd4b066fcd75f',
        'equiv-deformation-dense': 'd73f6480fb222592',
    },
    ('graded-nilpotent', 'json'): {
        'check': '250ea13c75d1cb69',
        'extend': '777cfd966ff4d32c',
        'extend-cob': '666a7af5b46c7167',
        'deform-cob': '442cb5a48e879ca5',
        'equiv-extension-cob': '52a3f9fd78bc9711',
        'equiv-deformation-cob': '9f4d7e0c43b5bfff',
        'extend-dense': '96e6ab0aeb7ed41c',
        'deform-dense': '821846f08951c2d6',
        'equiv-extension-dense': 'b46fd4b066fcd75f',
        'equiv-deformation-dense': 'd73f6480fb222592',
    },
    ('split-pair', 'text'): {
        'check': '9f2695ac5593d3e0',
        'extend': '000a66066a855fbe',
        'extend-cob': '000a66066a855fbe',
        'deform-cob': '6f9bd2d07ea5c63a',
        'equiv-extension-cob': 'b8de63502141bc01',
        'equiv-deformation-cob': '2b059d7b760d0927',
        'extend-dense': 'e5cc4ee647e0ad15',
        'deform-dense': 'c2785c39ae8d28cf',
        'equiv-extension-dense': 'b46fd4b066fcd75f',
        'equiv-deformation-dense': '544169c17dcbd939',
    },
    ('split-pair', 'json'): {
        'check': 'cd0872a3b063a4c8',
        'extend': 'c487eb681beebe8d',
        'extend-cob': '340ce04eb3aa29b7',
        'deform-cob': 'b5c2235eef80a2de',
        'equiv-extension-cob': 'c25376666c4bf60e',
        'equiv-deformation-cob': '00bc6a773d140896',
        'extend-dense': 'ad50751a1662fb33',
        'deform-dense': '764b170d0bc370b0',
        'equiv-extension-dense': 'b46fd4b066fcd75f',
        'equiv-deformation-dense': '544169c17dcbd939',
    },
    ('trivial', 'text'): {
        'check': 'b0f4573ce200b1cf',
        'extend': '014e5b9556e18bfd',
        'extend-cob': '014e5b9556e18bfd',
        'deform-cob': '0151d47a168b6822',
        'equiv-extension-cob': '86845a6b7c415e02',
        'equiv-deformation-cob': '204dd36ee5187752',
        'extend-dense': 'e8d38429c7488ddd',
        'deform-dense': '5a42edad10e844af',
        'equiv-extension-dense': 'b46fd4b066fcd75f',
        'equiv-deformation-dense': 'dfed838ed960e451',
    },
    ('trivial', 'json'): {
        'check': 'c8e0a96f50980be9',
        'extend': 'dc3531528c22775b',
        'extend-cob': '43fba19a8f72f3f1',
        'deform-cob': '72cb84e6074cd505',
        'equiv-extension-cob': '5159e44bced086db',
        'equiv-deformation-cob': 'a3ede2d591f13f06',
        'extend-dense': '0ca21042f5097396',
        'deform-dense': 'c2119e0193944372',
        'equiv-extension-dense': 'b46fd4b066fcd75f',
        'equiv-deformation-dense': 'dfed838ed960e451',
    },
}


@pytest.mark.parametrize("tag", sorted(SETTINGS))
@pytest.mark.parametrize("mode", ("text", "json"))
def test_output_is_byte_identical(tag, mode, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    flag = ("--json",) if mode == "json" else ()
    got = {name: run_digest(argv + flag) for name, argv in commands(tag).items()}
    assert got == DIGESTS[tag, mode]


# check --module on a truncated algebra: the module-Jacobi fringe blocks reach
# the writer, which no exact setting above exercises
MODULE_CHECK = ("check", "--preset", "free-boson", "--cutoff", "3",
                "--module", "boson-3-adjoint.txt", "--json")
MODULE_CHECK_DIGEST = "e67792d0e2ff3881"


def test_module_check_on_a_truncated_algebra_is_byte_identical(inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    assert run_digest(MODULE_CHECK) == MODULE_CHECK_DIGEST


# dump-preset of every exact preset at its own cutoff and at cutoff 3, and of
# the free boson at cutoffs 0-8: (preset, cutoff) -> digest, recorded when
# the exact presets were four functions and every mode table kept a second,
# per-pair index
DUMP_DIGESTS = {
    ('trivial', None): 'a68c2dc21bc28d24',
    ('dual-numbers', None): 'edffdd7ea38d84f2',
    ('split-pair', None): '2872b96d5b6b8db1',
    ('graded-nilpotent', None): '5d8361c8f8af78cc',
    ('trivial', 3): 'f6e57c70d40c4c00',
    ('dual-numbers', 3): 'af011040456e50d4',
    ('split-pair', 3): '4edd11977acbc8bd',
    ('graded-nilpotent', 3): '0c2fc59f58a37a2e',
    ('free-boson', 0): '4651e38ba50a1a59',
    ('free-boson', 1): '364d68aa6dd38a47',
    ('free-boson', 2): '68af1bd9e4d9d8f5',
    ('free-boson', 3): '2fcab95c09491917',
    ('free-boson', 4): '1bbaa6f19af8862c',
    ('free-boson', 5): '8914ba37b44f7f22',
    ('free-boson', 6): '769da59e07f48204',
    ('free-boson', 7): 'adb996deef31d2b0',
    ('free-boson', 8): 'e43ce6eab95b731d',
}


@pytest.mark.parametrize("name, cutoff", list(DUMP_DIGESTS))
def test_dump_preset_is_byte_identical(name, cutoff):
    argv = ("dump-preset", name) + (("--cutoff", str(cutoff)) if cutoff is not None else ())
    assert run_digest(argv) == DUMP_DIGESTS[name, cutoff]


# ---------------------------------------------------------------------------
# streamed reports against the one-shot encoding
# ---------------------------------------------------------------------------

def one_shot_report_data(rep) -> dict:
    """An axiom report's ``data`` as the CLI built it in full before streaming,
    its runs of fringe skips listed one instance at a time."""
    return {
        "verdict": rep.verdict,
        "passed": rep.passed_counts(),
        "failed": [
            {"axiom": a, "instance": inst, "residual": {k: str(c) for k, c in res.items()}}
            for a, inst, res in rep.failed
        ],
        "skipped": [
            {"axiom": a, "instance": inst, "reason": why}
            for a, inst, why in listing.expand(rep.skipped_instances)
        ],
    }


def _boson_3() -> dict:
    return {"kind": "preset", "name": "free-boson", "cutoff": 3}


def _file(path: str):
    text = Path(path).read_text()
    source = {"kind": "file", "path": path,
              "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return source, parse_spec(text)


def _psi_file(path: str, V, W):
    source, spec = _file(path)
    return source, to_cochain(spec, V, W)


def oracle_check():
    rep = check_all(build_preset("free-boson", 3), detail=True)
    return [_boson_3()], rep.verdict, 0, one_shot_report_data(rep)


def oracle_check_module():
    V = build_preset("free-boson", 3)
    source, spec = _file("boson-3-adjoint.txt")
    rep = check_module(V, to_module(spec, V), check_all(V, detail=True))
    return [_boson_3(), source], rep.verdict, 0, one_shot_report_data(rep)


def oracle_extend():
    V = build_preset("free-boson", 3)
    W = adjoint_module(V)
    source, psi = _psi_file("boson-3-cob.txt", V, W)
    ext = build_extension(V, W, psi)
    rep = verify_extension(ext, detail=True)
    data = {**one_shot_report_data(rep), "total_dims": ext.total.space.dims()}
    return [_boson_3(), source], rep.verdict, 0, data


def oracle_deform():
    V = build_preset("free-boson", 3)
    source, psi = _psi_file("boson-3-dense.txt", V,
                            VAModule(V.space, V.Y, translation_map(V)))
    rep = check_all(build_deformation(V, psi).deformed, detail=True)
    return [_boson_3(), source], rep.verdict, 1, one_shot_report_data(rep)


BOSON_3 = ("--preset", "free-boson", "--cutoff", "3")
# name: (argv without --json, oracle); the deformation fails its axioms
STREAMED = {
    "check": (("check", *BOSON_3), oracle_check),
    "check-module": (MODULE_CHECK[:-1], oracle_check_module),
    "extend-cob": (("extend", *BOSON_3, "--psi", "boson-3-cob.txt"), oracle_extend),
    "deform-dense": (("deform", *BOSON_3, "--psi", "boson-3-dense.txt"), oracle_deform),
}


@pytest.mark.parametrize("name", sorted(STREAMED))
def test_streamed_report_equals_the_one_shot_encoding(name, inputs, monkeypatch):
    monkeypatch.chdir(inputs)
    argv, oracle = STREAMED[name]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--json"])
    sources, status, want_code, data = oracle()
    assert code == want_code
    assert (status == "fail") == (code == 1) == bool(data["failed"])
    assert len(data["skipped"]) > 4 * cli._SKIP_BATCH
    report = {"command": argv[0], "inputs": sources, "status": status,
              "exit_code": code, "data": data, "elapsed_ms": 0.0}
    got, n = ELAPSED.subn("}", out.getvalue().removesuffix("\n"))
    assert n == 1
    # compared as a flag: pytest's diff of two megabyte strings takes minutes
    same = got == ELAPSED.sub("}", json.dumps(report))
    assert same
