"""End-to-end benchmark of the vertexcoh command line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  The benchmark

1. makes the workload's inputs from the seed with ``perfbench/inputs.py``,
   SETUP_REPEATS times in fresh processes, and reports the median as
   ``setup_s`` (the repeats must write byte-identical files);
2. runs the workload's job list (``perfbench/workloads.py``) in rounds: one
   job at a time, each in a fresh ``python -m vertexcoh.cli`` process with
   ``PYTHONPATH=src`` and a fixed ``PYTHONHASHSEED``, until another round
   would end after S seconds (at least one round);
3. checks every job's answer, writes a result file with one row per job to
   ``.perfbench_runs/results/``, and prints one JSON line last.

Outputs are read only after the last round.  A child's ``ru_maxrss`` starts
from its parent's high-water RSS, so reading the 34 MB JSON report between
rounds would raise the peak RSS of every later job.

With ``--trace 0`` the metrics are the end-to-end ones: ``wall_s`` (first
launch to last exit of a round), ``peak_rss_mb`` (largest peak RSS of any one
job, from its own rusage) and ``setup_s``, medians over the rounds.  With
``--trace 1`` every untraced round is followed by a traced one, in which each
job runs under ``perfbench/tracer.py``; the metrics are the per-layer sums of
the traced rounds plus the traced and untraced wall times and their ratio.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402  (the benchmark's own module, next to this file)

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
RUNS = ROOT / ".perfbench_runs"
SETUP_REPEATS = 5
PYTHONHASHSEED = "0"

# Per-layer metrics: name -> (unit, how to read it off one traced round).
# ``spans`` aggregates tracer.py's span names over the round's jobs.
_T, _S, _C = "total_s", "self_s", "calls"


def _span(name: str, field: str = _T):
    return lambda spans, counters: spans.get(name, {}).get(field, 0)


def _spans(*names: str, field: str = _T):
    return lambda spans, counters: sum(spans.get(n, {}).get(field, 0) for n in names)


def _counter(name: str):
    return lambda spans, counters: counters.get(name, 0)


PER_LAYER = {
    "cli.self_s": ("s", _span("cli.main", _S)),
    "cli.report_bytes": ("B", _counter("cli.report_bytes")),
    "process.startup_s": ("s", _counter("process.startup_s")),
    "specfile.parse_s": ("s", _spans("specfile.parse_spec", "specfile.to_algebra",
                                     "specfile.to_module", "specfile.to_cochain")),
    "specfile.bytes": ("B", _counter("specfile.bytes")),
    "presets.build_s": ("s", _span("presets.build_preset")),
    "presets.adjoint_self_s": ("s", _span("presets.adjoint_module", _S)),
    "axioms.check_all_s": ("s", _span("axioms.check_all")),
    "axioms.check_all_calls": ("count", _span("axioms.check_all", _C)),
    "axioms.check_all_cache_hits": ("count", _counter("axioms.check_all_cache_hits")),
    "axioms.identity_s": ("s", _span("axioms.check_identity")),
    "axioms.creation_s": ("s", _span("axioms.check_creation")),
    "axioms.translation_s": ("s", _span("axioms.check_translation")),
    "axioms.skew_s": ("s", _span("axioms.check_skew_symmetry")),
    "axioms.jacobi_s": ("s", _span("axioms.check_jacobi")),
    "axioms.passed": ("count", _counter("axioms.passed")),
    "axioms.failed": ("count", _counter("axioms.failed")),
    "axioms.skipped": ("count", _counter("axioms.skipped")),
    "axioms.dual_s": ("s", _counter("axioms.dual_s")),
    "cohomology.h2_s": ("s", _span("cohomology.compute_h2")),
    "cohomology.z2_s": ("s", _span("cohomology.compute_z2")),
    "cohomology.residual_s": ("s", _span("cohomology.cocycle_residual")),
    "cohomology.probes": ("count", _counter("cohomology.probes")),
    "cohomology.h1_s": ("s", _span("cohomology.compute_der")),
    "cohomology.der_system_s": ("s", _span("cohomology.derivation_system")),
    "cohomology.coboundary_s": ("s", _span("cohomology.coboundary")),
    "cohomology.is_coboundary_s": ("s", _span("cohomology.is_coboundary")),
    "linalg.rref_s": ("s", _span("linalg.rref")),
    "linalg.rref_calls": ("count", _span("linalg.rref", _C)),
    "linalg.rows": ("count", _counter("linalg.rows")),
    "linalg.unknowns": ("count", _counter("linalg.unknowns")),
    "linalg.solve_affine_s": ("s", _span("linalg.solve_affine")),
    "linalg.quotient_dim_s": ("s", _span("linalg.quotient_dim")),
    "spaces.skew_mode_s": ("s", _span("spaces.skew_mode")),
    "spaces.skew_mode_calls": ("count", _span("spaces.skew_mode", _C)),
    "extensions.build_s": ("s", _span("extensions.build_extension")),
    "extensions.build_calls": ("count", _span("extensions.build_extension", _C)),
    "extensions.verify_self_s": ("s", _span("extensions.verify_extension", _S)),
    "extensions.certificate_s": ("s", _spans("extensions.check_equivalence_extensions",
                                             "extensions.check_equivalence_deformations",
                                             field=_S)),
    "extensions.deform_build_s": ("s", _span("extensions.build_deformation")),
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = PYTHONHASHSEED
    return env


def run_child(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float]:
    """Run one process to its end: (exit code, seconds, its own peak RSS in MB)."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _pid, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024    # ru_maxrss is in KiB


def make_inputs(workload: str, seed: int, run_dir: Path) -> tuple[Path, list[float]]:
    """Run inputs.py SETUP_REPEATS times; all repeats must write the same bytes."""
    times, snapshots = [], []
    for k in range(SETUP_REPEATS):
        out = run_dir / f"inputs-{k}"
        code, seconds, _rss = run_child(
            [sys.executable, str(BENCH / "inputs.py"), workload, str(seed), str(out)],
            run_dir / "setup.out", run_dir / "setup.err")
        if code != 0:
            raise SystemExit(f"input generation failed:\n{(run_dir / 'setup.err').read_text()}")
        times.append(seconds)
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    if any(s != snapshots[0] for s in snapshots):
        raise SystemExit(f"inputs.py wrote different files for seed {seed}")
    for k in range(1, SETUP_REPEATS):
        shutil.rmtree(run_dir / f"inputs-{k}")
    return run_dir / "inputs-0", times


def run_round(jobs: list[workloads.Job], round_dir: Path, traced: bool) -> dict:
    """Run the job list once, one process at a time; outputs stay in ``round_dir``."""
    round_dir.mkdir(parents=True)
    rows = []
    started = time.perf_counter()
    for job in jobs:
        prefix = [sys.executable, "-m", "vertexcoh.cli"]
        if traced:
            prefix = [sys.executable, str(BENCH / "tracer.py"),
                      str(round_dir / f"{job.name}.spans.json"), repr(time.monotonic())]
        argv = prefix + list(job.args)
        code, seconds, rss = run_child(argv, round_dir / f"{job.name}.out",
                                       round_dir / f"{job.name}.err")
        rows.append({"job": job.name, "argv": argv, "exit_code": code,
                     "seconds": seconds, "peak_rss_mb": rss})
    wall = time.perf_counter() - started
    return {"traced": traced, "wall_s": wall, "jobs": rows,
            "peak_rss_mb": max(r["peak_rss_mb"] for r in rows)}


def read_outcomes(jobs: list[workloads.Job], rows: list[dict],
                  round_dir: Path) -> dict[str, workloads.Outcome]:
    """Every job's exit code, stdout and stderr; adds ``stdout_bytes`` to its row."""
    outcomes = {}
    for job, row in zip(jobs, rows):
        stdout = (round_dir / f"{job.name}.out").read_text()
        row["stdout_bytes"] = len(stdout.encode())
        outcomes[job.name] = workloads.Outcome(
            row["exit_code"], stdout, (round_dir / f"{job.name}.err").read_text())
    return outcomes


def read_traces(jobs: list[workloads.Job], rows: list[dict], round_dir: Path) -> dict:
    """Sum the spans and counters of a traced round's jobs into the per-layer metrics."""
    spans: dict[str, dict] = {}
    counters: dict[str, float] = {"cli.report_bytes": 0, "process.startup_s": 0.0}
    for job, row in zip(jobs, rows):
        trace = json.loads((round_dir / f"{job.name}.spans.json").read_text())
        for name, agg in trace["spans"].items():
            into = spans.setdefault(name, {_C: 0, _T: 0.0, _S: 0.0})
            for key in into:
                into[key] += agg[key]
        for name, value in trace["counters"].items():
            counters[name] = counters.get(name, 0) + value
        counters["cli.report_bytes"] += row["stdout_bytes"]
        counters["process.startup_s"] += trace["startup_s"]
    return {name: read(spans, counters) for name, (_unit, read) in PER_LAYER.items()}


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree; None otherwise."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def load_oracle():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules["oracles"] = module        # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.CHECKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "vertexcoh" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} is missing; run from a source "
                  "checkout of vertexcoh", file=sys.stderr)
            return 2
    oracle = load_oracle()

    run_dir = RUNS / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        inputs, setup_times = make_inputs(args.workload, args.seed, run_dir)
        expected = json.loads((inputs / "expected.json").read_text())
        jobs = workloads.jobs(args.workload, inputs)

        rounds = []
        kinds = (False, True) if args.trace else (False,)
        started = time.monotonic()
        while True:
            for traced in kinds:
                rounds.append(run_round(jobs, run_dir / f"round-{len(rounds)}", traced))
            elapsed = time.monotonic() - started
            if elapsed * (1 + len(kinds) / len(rounds)) > args.seconds:
                break
        spawner_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        failed = 0
        for k, rnd in enumerate(rounds):
            round_dir = run_dir / f"round-{k}"
            errors = workloads.check_round(args.workload, jobs,
                                           read_outcomes(jobs, rnd["jobs"], round_dir),
                                           expected, oracle)
            for row in rnd["jobs"]:
                row["error"] = errors.get(row["job"])
            for name, why in sorted(errors.items()):
                print(f"WRONG {name}: {why}", file=sys.stderr)
            failed += len(errors)
            if rnd["traced"]:
                rnd["layers"] = read_traces(jobs, rnd["jobs"], round_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    plain = [r for r in rounds if not r["traced"]]

    if args.trace:
        traced = [r for r in rounds if r["traced"]]
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in traced),
                          "unit": unit} for name, (unit, _read) in PER_LAYER.items()}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        plain_wall = statistics.median(r["wall_s"] for r in plain)
        metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100 * (traced_wall / plain_wall - 1),
                                         "unit": "%"}
    else:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain),
                            "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        }
    result = {"correct": failed == 0, "attempted": len(jobs) * len(rounds),
              "failed": failed, "metrics": metrics}

    (RUNS / "results").mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    record = RUNS / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    record.write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "pythonhashseed": PYTHONHASHSEED, "setup_s": setup_times,
        "spawner_peak_rss_mb": spawner_rss,
        "rounds": rounds, "result": result,
    }, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
