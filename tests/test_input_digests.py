"""Input files are digested only for ``--json`` reports, from the bytes parsed.

Only a ``--json`` report prints the ``inputs`` block with each file's sha256,
so a text run must not import hashlib (which loads OpenSSL's libcrypto,
about 3 MB of peak RSS per process) nor json.  A ``--json`` run reads each
file once: the digest is of its raw bytes, and the text parsed is what
``Path.read_text()`` gives, universal newlines included.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vertexcoh
from vertexcoh.cli import main
from vertexcoh.presets import adjoint_module, build_preset
from vertexcoh.specfile import dump_spec, spec_from_objects

# Runs cli.main on argv, then prints, as the last line of stderr, the exit
# code and which of the modules a text run must not load are loaded.
_PROBE = """
import sys
from vertexcoh import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
loaded = sorted({"hashlib", "_hashlib", "json"} & set(sys.modules))
print(code, *loaded, file=sys.stderr)
"""


def _probe(argv: list[str]) -> tuple[str, int, list[str]]:
    """stdout, exit code and the watched modules loaded, of one fresh process."""
    src = Path(vertexcoh.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", _PROBE, *argv],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    code, *loaded = run.stderr.splitlines()[-1].split()
    return run.stdout, int(code), loaded


def _files(tmp_path: Path):
    V = build_preset("dual-numbers")
    files = {
        "alg": dump_spec(spec_from_objects(V)),
        "mod": dump_spec(spec_from_objects(V, adjoint_module(V))),
        "cob": "[PSI]\neps -1 eps -> 2*eps\n",
        "zero": "[PSI]\n",
    }
    for name, body in files.items():
        (tmp_path / f"{name}.txt").write_text(body)
    return lambda name: str(tmp_path / f"{name}.txt")


# (id, argv builder, exit code, names of the files read, in report order)
CASES = [
    ("h1", lambda f: ["h1", f("alg"), "--module", f("mod")], 0, ["alg", "mod"]),
    ("equiv", lambda f: ["equiv", f("alg"), "--psi", f("cob"), "--psi2", f("zero")], 0,
     ["alg", "cob", "zero"]),
    ("check", lambda f: ["check", f("alg")], 0, ["alg"]),
]


@pytest.mark.parametrize("argv, code", [c[1:3] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_text_runs_load_neither_hashlib_nor_json(argv, code, tmp_path):
    out, got, loaded = _probe(argv(_files(tmp_path)))
    assert got == code
    assert out and not out.startswith("{")
    assert loaded == []


@pytest.mark.parametrize("argv, code, names", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_json_runs_digest_the_raw_bytes_of_each_file(argv, code, names, tmp_path):
    f = _files(tmp_path)
    out, got, _loaded = _probe([*argv(f), "--json"])
    assert got == code
    assert json.loads(out)["inputs"] == [
        {"kind": "file", "path": f(name),
         "sha256": hashlib.sha256(Path(f(name)).read_bytes()).hexdigest()}
        for name in names
    ]


def test_crlf_file_reads_as_its_lf_twin_and_digests_its_own_bytes(tmp_path, capsys):
    lf_text = dump_spec(spec_from_objects(build_preset("split-pair")))
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(lf_text.encode())
    crlf.write_bytes(lf_text.replace("\n", "\r\n").encode())
    assert b"\r\n" in crlf.read_bytes()

    assert main(["check", str(lf)]) == 0
    want = capsys.readouterr()
    assert main(["check", str(crlf)]) == 0
    assert capsys.readouterr() == want

    reports = {}
    for path in (lf, crlf):
        assert main(["check", str(path), "--json"]) == 0
        reports[path] = json.loads(capsys.readouterr().out)
    (source,) = reports[crlf]["inputs"]
    assert source["sha256"] == hashlib.sha256(crlf.read_bytes()).hexdigest()
    assert source["sha256"] != reports[lf]["inputs"][0]["sha256"]
    assert reports[crlf]["data"] == reports[lf]["data"]
