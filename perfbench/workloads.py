"""The job lists of the three workloads and the checks of their answers.

A job is one ``vertexcoh`` command line with the exit code its answer must
have.  Every answer is checked against an independent computation or a
property the mathematics guarantees, never against saved output:

* dimensions on the exact presets against ``tests/oracles.py``, a brute-force
  implementation that shares no code with the package;
* widening an exact preset's cutoff only adds vacuous instances, so Z^2, B^2
  and H^2 must not move;
* Z^2 of the boson's adjoint module at cutoff 2 is 5, the figure of the
  independent jet-ring prototype recorded in ROADMAP.md;
* the free boson satisfies every axiom, so clean tables pass within their
  window, and a changed structure constant must fail while enumerating the
  same instances;
* the Heisenberg bracket a_1 a = vacuum forbids a weight-0 derivation, so H^1
  of the boson is 0 and a coboundary delta g determines g;
* a cochain that is nonzero on the vacuum breaks the extension's identity
  axiom, so it is no cocycle;
* eps_{-1} eps -> c*one spans H^2 of the dual numbers for every c != 0.

``check_round`` returns one error string per job whose answer is wrong.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

EXACT_PRESETS = ("trivial", "dual-numbers", "split-pair", "graded-nilpotent")
BOSON_Z2_AT_CUTOFF_2 = 5
WIDENED_CUTOFF = 3


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple[str, ...]      # the vertexcoh command line, without the program
    exit_code: int             # the exit code of the right answer


@dataclass
class Outcome:
    exit_code: int
    stdout: str
    stderr: str


def jobs(workload: str, inputs: Path) -> list[Job]:
    """The fixed job list of one workload; ``inputs`` holds inputs.py's files."""
    def f(name: str) -> str:
        return str(inputs / name)

    if workload == "check-boson":
        return [
            Job("check-json-4", ("check", "--preset", "free-boson", "--cutoff", "4",
                                 "--json"), 0),
            Job("check-3", ("check", "--preset", "free-boson", "--cutoff", "3"), 0),
            Job("check-corrupt-4", ("check", f("boson4-corrupt.txt")), 1),
        ]
    if workload == "cohomology":
        out = [Job("h2-boson-2", ("h2", "--preset", "free-boson", "--cutoff", "2"), 0)]
        for p in EXACT_PRESETS:
            out += [
                Job(f"h2-{p}", ("h2", "--preset", p), 0),
                Job(f"h2-{p}-widened", ("h2", "--preset", p, "--cutoff",
                                        str(WIDENED_CUTOFF)), 0),
                Job(f"h1-{p}", ("h1", "--preset", p), 0),
            ]
        out.append(Job("h1-boson-6", ("h1", f("boson6.txt"), "--module",
                                      f("boson6-adjoint.txt")), 0))
        return out
    if workload == "structures":
        zero = f("zero.txt")
        out = []
        for tag, psi, cutoff, code in (("cob", f("cob3.txt"), "3", 0),
                                       ("noncocycle", f("noncocycle2.txt"), "2", 1)):
            boson = ("--preset", "free-boson", "--cutoff", cutoff)
            out += [
                Job(f"extend-{tag}", ("extend", *boson, "--psi", psi), code),
                Job(f"deform-{tag}", ("deform", *boson, "--psi", psi), code),
                Job(f"equiv-extension-{tag}", ("equiv", *boson, "--kind", "extension",
                                               "--psi", psi, "--psi2", zero), code),
                Job(f"equiv-deformation-{tag}", ("equiv", *boson, "--kind",
                                                 "deformation", "--psi", psi,
                                                 "--psi2", zero), code),
            ]
        dual = f("dual-class.txt")
        out += [
            Job("extend-dual", ("extend", "--preset", "dual-numbers", "--psi", dual), 0),
            Job("equiv-dual", ("equiv", "--preset", "dual-numbers", "--psi", dual,
                               "--psi2", zero), 1),
        ]
        return out
    raise KeyError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# parsing the CLI's text and JSON reports
# ---------------------------------------------------------------------------

class BadOutput(Exception):
    """The output does not have the shape of the expected report."""


def _line(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise BadOutput(f"no line starting with {prefix!r}")


def parse_verdict(stdout: str) -> dict:
    """Verdict, per-axiom pass counts and failure/skip totals of a text report."""
    verdict = _line(stdout, "verdict:")
    passed_text = _line(stdout, "passed:")
    passed = {} if passed_text == "none" else {
        k: int(v) for k, v in (item.split("=") for item in passed_text.split())
    }
    failed = sum(line.startswith("FAIL ") for line in stdout.splitlines())
    more = re.search(r"^\.\.\. and (\d+) more failures$", stdout, re.M)
    if more:
        failed += int(more.group(1))
    skipped = re.search(r"^skipped: (\d+) instance", stdout, re.M)
    return {
        "verdict": verdict,
        "passed": passed,
        "failed": failed,
        "skipped": int(skipped.group(1)) if skipped else 0,
    }


def parse_json_check(stdout: str) -> dict:
    """The same summary as parse_verdict, read from a ``check --json`` report."""
    report = json.loads(stdout)
    data = report["data"]
    if report["status"] != data["verdict"]:
        raise BadOutput("status and verdict disagree")
    return {
        "verdict": data["verdict"],
        "passed": data["passed"],
        "failed": len(data["failed"]),
        "skipped": len(data["skipped"]),
    }


def instances(summary: dict) -> int:
    return sum(summary["passed"].values()) + summary["failed"] + summary["skipped"]


def parse_h2(stdout: str) -> tuple[int, int, int]:
    z = int(_line(stdout, "z2 dimension:"))
    b = int(_line(stdout, "b2 dimension:"))
    h = int(_line(stdout, "h2 dimension:").split()[0])
    classes = sum(line.startswith("class ") for line in stdout.splitlines())
    if classes != h:
        raise BadOutput(f"{classes} class representatives for h2 = {h}")
    return z, b, h


def parse_h1(stdout: str) -> int:
    h = int(_line(stdout, "h1 dimension:").split()[0])
    maps = sum(line.startswith("derivation ") for line in stdout.splitlines())
    if maps != h:
        raise BadOutput(f"{maps} derivations listed for h1 = {h}")
    return h


def parse_shear(stdout: str) -> dict:
    """The shear map g as {source: {target: Fraction}}, zero entries dropped."""
    raw = ast.literal_eval(_line(stdout, "shear:"))
    return {
        src: {tgt: Fraction(c) for tgt, c in col.items() if Fraction(c)}
        for src, col in raw.items() if any(Fraction(c) for c in col.values())
    }


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _read(out: dict[str, Outcome], parsers: dict, errors: dict[str, str]) -> dict:
    """Parse each named job's output; a job whose output does not parse is wrong."""
    facts = {}
    for name, parse in parsers.items():
        try:
            facts[name] = parse(out[name])
        except (BadOutput, ValueError, KeyError, SyntaxError) as exc:
            errors[name] = f"unreadable output: {exc!r}"
    return facts


def _check_boson(out: dict[str, Outcome], expected: dict, oracle) -> dict[str, str]:
    errors: dict[str, str] = {}
    facts = _read(out, {
        "check-json-4": lambda o: parse_json_check(o.stdout),
        "check-3": lambda o: parse_verdict(o.stdout),
        "check-corrupt-4": lambda o: parse_verdict(o.stdout),
    }, errors)
    for name in ("check-json-4", "check-3"):
        s = facts.get(name)
        if s and (s["verdict"] != "pass-within-window" or s["failed"]):
            errors[name] = f"clean table gave {s['verdict']} with {s['failed']} failures"
    s, clean = facts.get("check-corrupt-4"), facts.get("check-json-4")
    if s and (s["verdict"] != "fail" or not s["failed"]):
        errors["check-corrupt-4"] = f"corrupted entry {expected['corrupted']} gave {s['verdict']}"
    elif s and clean and instances(s) != instances(clean):
        errors["check-corrupt-4"] = (f"corrupted table enumerated {instances(s)} instances, "
                                     f"the clean one {instances(clean)}")
    return errors


def _check_cohomology(out: dict[str, Outcome], expected: dict, oracle) -> dict[str, str]:
    errors: dict[str, str] = {}
    h2_jobs = ["h2-boson-2"] + [f"h2-{p}{w}" for p in EXACT_PRESETS for w in ("", "-widened")]
    h1_jobs = [f"h1-{p}" for p in EXACT_PRESETS] + ["h1-boson-6"]
    facts = _read(out, {**{n: lambda o: parse_h2(o.stdout) for n in h2_jobs},
                        **{n: lambda o: parse_h1(o.stdout) for n in h1_jobs}}, errors)
    want: dict[str, object] = {"h1-boson-6": 0}
    for p in EXACT_PRESETS:
        table = oracle.TABLES[p]
        want[f"h2-{p}"] = want[f"h2-{p}-widened"] = tuple(oracle.classical_h2_dims(table))
        want[f"h1-{p}"] = oracle.derivation_dim(table)
    if "h2-boson-2" in facts:
        z, b, h = facts["h2-boson-2"]
        if z != BOSON_Z2_AT_CUTOFF_2 or h != z - b:
            errors["h2-boson-2"] = f"z2={z} b2={b} h2={h}, expected z2={BOSON_Z2_AT_CUTOFF_2}"
    for name, value in want.items():
        if name in facts and facts[name] != value:
            errors[name] = f"got {facts[name]}, expected {value}"
    return errors


def _check_structures(out: dict[str, Outcome], expected: dict, oracle) -> dict[str, str]:
    errors: dict[str, str] = {}
    verdict_jobs = ("extend-cob", "deform-cob", "extend-noncocycle", "deform-noncocycle",
                    "extend-dual")
    shear_jobs = ("equiv-extension-cob", "equiv-deformation-cob")
    facts = _read(out, {**{n: lambda o: parse_verdict(o.stdout) for n in verdict_jobs},
                        **{n: lambda o: parse_shear(o.stdout) for n in shear_jobs}}, errors)
    for name in ("extend-cob", "deform-cob"):
        s = facts.get(name)
        if s and (s["verdict"] != "pass-within-window" or s["failed"]):
            errors[name] = f"coboundary gave {s['verdict']}"
    shear = {s: {t: Fraction(c) for t, c in col.items()}
             for s, col in expected["shear"].items()}
    for name, kind in zip(shear_jobs, ("extension", "deformation")):
        if not out[name].stdout.startswith(f"equivalent ({kind})"):
            errors[name] = "coboundary not equivalent to zero"
        elif name in facts and facts[name] != shear:
            errors[name] = f"shear {facts[name]} is not the drawn g {shear}"

    ext, dfm = facts.get("extend-noncocycle"), facts.get("deform-noncocycle")
    if ext and (ext["verdict"] != "fail" or not ext["failed"]):
        errors["extend-noncocycle"] = f"non-cocycle gave {ext['verdict']}"
    elif ext and dfm and (dfm["verdict"], dfm["failed"]) != (ext["verdict"], ext["failed"]):
        errors["deform-noncocycle"] = (
            f"deform says {dfm['verdict']} with {dfm['failed']} failures, "
            f"extend {ext['verdict']} with {ext['failed']}")
    if "cannot compare an unverified extension" not in out["equiv-extension-noncocycle"].stderr:
        errors["equiv-extension-noncocycle"] = "non-cocycle extension was compared"
    if "nonzero residual" not in out["equiv-deformation-noncocycle"].stderr:
        errors["equiv-deformation-noncocycle"] = "non-cocycle deformation was compared"

    s = facts.get("extend-dual")
    if s and (s["verdict"] != "pass" or not s["passed"].get("square-zero")):
        errors["extend-dual"] = f"H^2 class of the dual numbers gave {s['verdict']}"
    if not out["equiv-dual"].stdout.startswith("inequivalent"):
        errors["equiv-dual"] = "H^2 class of the dual numbers equivalent to zero"
    return errors


CHECKS = {
    "check-boson": _check_boson,
    "cohomology": _check_cohomology,
    "structures": _check_structures,
}


def check_round(workload: str, jobs_run: list[Job], out: dict[str, Outcome],
                expected: dict, oracle) -> dict[str, str]:
    """Map each job with a wrong answer to the reason; empty when all are right."""
    errors = CHECKS[workload](out, expected, oracle)
    for j in jobs_run:
        if out[j.name].exit_code != j.exit_code:
            errors[j.name] = f"exit code {out[j.name].exit_code}, expected {j.exit_code}"
    return errors
