"""Tests of the benchmark itself: its checks reject wrong answers, its trace adds up.

    python3 perfbench/selftest.py        # from the root of a checkout, about 1 min

Each workload's job list runs once through the CLI.  The real outputs must
pass ``check_round``; the same outputs with one answer doctored (a wrong
dimension, a flipped verdict, a wrong shear, ...) must be rejected for the
doctored job.  One traced job checks that the self times of all
spans add up to the root ``cli.main`` span.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
import unittest
from dataclasses import replace

import run
import workloads

SEED = 7


class WorkloadChecks:
    """Mixed into one TestCase per workload, which sets ``workload``."""

    workload = ""

    @classmethod
    def setUpClass(cls):
        cls.dir = run.RUNS / f"selftest-{cls.workload}"
        shutil.rmtree(cls.dir, ignore_errors=True)
        cls.dir.mkdir(parents=True)
        inputs, _times = run.make_inputs(cls.workload, SEED, cls.dir)
        cls.expected = json.loads((inputs / "expected.json").read_text())
        cls.jobs = workloads.jobs(cls.workload, inputs)
        rnd = run.run_round(cls.jobs, cls.dir / "round", traced=False)
        cls.outcomes = run.read_outcomes(cls.jobs, rnd["jobs"], cls.dir / "round")
        cls.oracle = run.load_oracle()

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.dir, ignore_errors=True)

    def errors(self, outcomes):
        return workloads.check_round(self.workload, self.jobs, outcomes,
                                     self.expected, self.oracle)

    def assert_rejected(self, job: str, old: str, new: str, exit_code=None):
        """Replace ``old`` by ``new`` in one job's stdout; that job must be wrong."""
        stdout = self.outcomes[job].stdout
        self.assertIn(old, stdout)
        self.assert_doctored_rejected(job, stdout.replace(old, new, 1), exit_code)

    def assert_doctored_rejected(self, job: str, stdout: str, exit_code=None):
        outcome = self.outcomes[job]
        doctored = dict(self.outcomes)
        doctored[job] = replace(outcome, stdout=stdout,
                                exit_code=outcome.exit_code if exit_code is None else exit_code)
        self.assertIn(job, self.errors(doctored))

    def test_real_outputs_pass(self):
        self.assertEqual(self.errors(self.outcomes), {})


class CheckBoson(WorkloadChecks, unittest.TestCase):
    workload = "check-boson"

    def test_flipped_verdict_on_corrupted_table(self):
        stdout = self.outcomes["check-corrupt-4"].stdout
        fails = [line for line in stdout.splitlines()
                 if line.startswith(("FAIL", "... and"))]
        doctored = stdout.replace("verdict: fail", "verdict: pass-within-window")
        for line in fails:
            doctored = doctored.replace(line + "\n", "")
        self.assert_doctored_rejected("check-corrupt-4", doctored, 0)

    def test_failure_on_clean_table(self):
        self.assert_rejected("check-3", "verdict: pass-within-window", "verdict: fail", 1)

    def test_instance_count_of_corrupted_table(self):
        skipped = re.search(r"skipped: (\d+)", self.outcomes["check-corrupt-4"].stdout)
        self.assert_rejected("check-corrupt-4", skipped.group(0),
                             f"skipped: {int(skipped.group(1)) - 1}")

    def test_json_report_with_a_failure(self):
        self.assert_rejected("check-json-4", '"failed": []',
                             '"failed": [{"axiom": "jacobi", "instance": [], "residual": {}}]')


class Cohomology(WorkloadChecks, unittest.TestCase):
    workload = "cohomology"

    def test_wrong_h2_dimension(self):
        self.assert_rejected("h2-dual-numbers", "h2 dimension: 1",
                             "h2 dimension: 2\nclass 1: {}")

    def test_widened_window_moves_b2(self):
        self.assert_rejected("h2-split-pair-widened", "b2 dimension: 2", "b2 dimension: 1")

    def test_wrong_h1_dimension(self):
        self.assert_rejected("h1-trivial", "h1 dimension: 0",
                             "h1 dimension: 1\nderivation 0: {}")

    def test_wrong_boson_z2(self):
        self.assert_rejected("h2-boson-2", "z2 dimension: 5", "z2 dimension: 6")

    def test_boson_derivation(self):
        self.assert_rejected("h1-boson-6", "h1 dimension: 0",
                             "h1 dimension: 1\nderivation 0: {}")


class Structures(WorkloadChecks, unittest.TestCase):
    workload = "structures"

    def test_wrong_shear(self):
        stdout = self.outcomes["equiv-extension-cob"].stdout
        coeff = re.search(r"shear: \{'[^']+': \{'[^']+': '(-?\d+)'", stdout)
        old = coeff.group(0)
        new = old[: -len(coeff.group(1)) - 1] + f"{int(coeff.group(1)) + 1}'"
        self.assert_rejected("equiv-extension-cob", old, new)

    def test_flipped_verdict_on_dual_class(self):
        self.assert_rejected("equiv-dual", "inequivalent: the difference cochain",
                             "equivalent (extension): h", 0)

    def test_coboundary_that_fails(self):
        self.assert_rejected("deform-cob", "verdict: pass-within-window",
                             "verdict: fail\nFAIL jacobi x: residual {}", 1)

    def test_deform_disagrees_with_extend(self):
        stdout = self.outcomes["deform-noncocycle"].stdout
        more = re.search(r"\.\.\. and (\d+) more failures", stdout)
        self.assert_rejected("deform-noncocycle", more.group(0),
                             f"... and {int(more.group(1)) + 1} more failures")

    def test_noncocycle_that_passes(self):
        self.assert_rejected("extend-noncocycle", "verdict: fail",
                             "verdict: pass-within-window", 0)


class Trace(unittest.TestCase):
    def test_self_times_add_up_to_the_root(self):
        out_dir = run.RUNS / "selftest-trace"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        try:
            (out_dir / "psi.txt").write_text("[PSI]\neps -1 eps -> 2*eps\n")
            (out_dir / "zero.txt").write_text("[PSI]\n")
            spans_file = out_dir / "spans.json"
            code = subprocess.run(
                [sys.executable, str(run.BENCH / "tracer.py"), str(spans_file),
                 repr(time.monotonic()), "equiv", "--preset", "dual-numbers",
                 "--psi", str(out_dir / "psi.txt"), "--psi2", str(out_dir / "zero.txt")],
                env=run.child_env(), cwd=run.ROOT, capture_output=True).returncode
            self.assertEqual(code, 0)
            trace = json.loads(spans_file.read_text())
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        spans = trace["spans"]
        self.assertEqual(spans["cli.main"]["calls"], 1)
        for name in ("extensions.verify_extension", "axioms.check_jacobi",
                     "cohomology.is_coboundary", "linalg.solve_affine"):
            self.assertIn(name, spans)
        total_self = sum(agg["self_s"] for agg in spans.values())
        self.assertAlmostEqual(total_self, spans["cli.main"]["total_s"], delta=1e-6)
        self.assertGreater(trace["startup_s"], 0)


if __name__ == "__main__":
    unittest.main(verbosity=2)
