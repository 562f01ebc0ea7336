"""Summarise result files written by run.py.

    python3 perfbench/summarize.py [RESULT.json ...]

Without arguments it reads every file in ``.perfbench_runs/results``.  For
each workload it prints, over the untraced runs, every end-to-end metric's
median, quartiles and spread (the distance between the quartiles as a share
of the median, as ``statistics.quantiles(values, n=4)`` gives them), the
median seconds of each job, and for traced runs the median of every
per-layer metric.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent.parent / ".perfbench_runs" / "results"


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med


def main(paths: list[str]) -> int:
    files = [Path(p) for p in paths] or sorted(RESULTS.glob("*.json"))
    runs: dict[tuple[str, int], list[dict]] = {}
    for path in files:
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    for (workload, trace), records in sorted(runs.items()):
        seeds = sorted(r["seed"] for r in records)
        failed = sum(r["result"]["failed"] for r in records)
        attempted = sum(r["result"]["attempted"] for r in records)
        print(f"## {workload}, trace {trace}: {len(records)} runs, seeds {seeds}, "
              f"{failed} of {attempted} operations failed")
        metrics = records[0]["result"]["metrics"]
        for name, first in metrics.items():
            med, q1, q3, share = spread([r["result"]["metrics"][name]["value"]
                                         for r in records])
            print(f"  {name:32s} median {med:12.4f} {first['unit']:6s} "
                  f"q1 {q1:12.4f} q3 {q3:12.4f} spread {100 * share:6.2f} %")
        if not trace:
            per_job: dict[str, list[dict]] = {}
            for r in records:
                for rnd in r["rounds"]:
                    for row in rnd["jobs"]:
                        per_job.setdefault(row["job"], []).append(row)
            for job, rows in per_job.items():
                secs = statistics.median(row["seconds"] for row in rows)
                rss = statistics.median(row["peak_rss_mb"] for row in rows)
                print(f"    job {job:30s} exit {rows[0]['exit_code']}  median {secs:7.3f} s "
                      f"{rss:7.1f} MB  over {len(rows)} rounds")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
