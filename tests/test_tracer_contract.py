"""What perfbench/tracer.py reads of an axiom report, kept by count-only reports.

The tracer wraps ``check_all`` and, when it returns, adds len() of the
report's ``passed``, ``failed`` and ``skipped`` to its counters; it also
wraps the ``check_*`` fragments, which ``check_all`` must call through the
module's globals.  Run unchanged on the benchmark's ``extend-cob`` text job,
which keeps no instance lists, its counters must equal the lengths of the
lists of detail reports over the same structures.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from vertexcoh.axioms import check_all
from vertexcoh.extensions import build_extension
from vertexcoh.presets import adjoint_module, build_preset
from vertexcoh.specfile import parse_spec, to_cochain

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_counts_equal_the_detail_list_lengths(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": "0"}
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "inputs.py"), "structures",
                    "1", str(tmp_path)], env=env, check=True)
    psi_file = tmp_path / "cob3.txt"
    spans_file = tmp_path / "spans.json"
    job = ["extend", "--preset", "free-boson", "--cutoff", "3", "--psi", str(psi_file)]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans_file),
         repr(time.monotonic()), *job],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("verdict: pass-within-window\n")
    traced = json.loads(spans_file.read_text())
    counters, spans = traced["counters"], traced["spans"]

    # the job's two check_all calls: the adjoint module's on V, and
    # verify_extension's on the total space
    V = build_preset("free-boson", 3)
    W = adjoint_module(V)
    psi = to_cochain(parse_spec(psi_file.read_text()), V, W)
    reports = [check_all(V, detail=True),
               check_all(build_extension(V, W, psi).total, detail=True)]
    for kind in ("passed", "failed", "skipped"):
        want = sum(len(getattr(rep, kind)) for rep in reports)
        assert counters[f"axioms.{kind}"] == want, kind
    assert counters["axioms.skipped"] > 0
    assert spans["axioms.check_all"]["calls"] == 2
    assert spans["axioms.check_jacobi"]["calls"] == 2

    counted = check_all(V)
    assert len(counted.skipped) == len(reports[0].skipped)
    with pytest.raises(TypeError):
        for _item in counted.skipped:
            pass
