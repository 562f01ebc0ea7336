"""Run one vertexcoh command with timing wrappers on its layer boundaries.

    PYTHONPATH=src python3 perfbench/tracer.py SPANS_JSON SPAWN_STAMP ARGS...

SPAWN_STAMP is the parent's ``time.monotonic()`` just before it started this
process, so the time to reach ``cli.main`` (interpreter start-up and imports)
is measured on one clock.  The wrappers replace public names that callers
look up at call time (``cli.check_all``, ``extensions.build_extension``, the
``check_*`` fragments ``check_all`` calls through module globals, ...).  Spans
stay in memory; at exit their self times are computed and SPANS_JSON gets
one aggregate per span name plus the counters the per-layer metrics need.
No file of the package is changed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref


class Tracer:
    """Nested spans of one process: [name, start, end, parent index]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        # weak references to every report check_all returned, to spot cache hits
        # without keeping the reports alive
        self._reports: list[weakref.ref] = []

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace ``module.attr`` by a wrapper that records a span ``name``.

        ``after(args, result, seconds)`` runs once the call has returned.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = [name, time.perf_counter(), None, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = original(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if after is not None:
                after(args, result, record[2] - record[1])
            return result

        setattr(module, attr, wrapper)

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for (name, start, end, parent), inner in zip(self.spans, child):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["total_s"] += end - start
            agg["self_s"] += end - start - inner
        return out

    def parent_name(self) -> str | None:
        """Name of the span enclosing the one that just returned."""
        return self.spans[self.stack[-1]][0] if self.stack else None

    # -- hooks that turn arguments and results into counters ----------------

    def after_check_all(self, args, report, seconds) -> None:
        if any(seen() is report for seen in self._reports):
            self.count("axioms.check_all_cache_hits")
            return
        self._reports.append(weakref.ref(report))
        self.count("axioms.passed", len(report.passed))
        self.count("axioms.failed", len(report.failed))
        self.count("axioms.skipped", len(report.skipped))
        if args[0].ring == "dual":
            self.count("axioms.dual_s", seconds)

    def after_rref(self, args, result, seconds) -> None:
        system = args[0]
        self.count("linalg.rows", len(system.rows))
        self.count("linalg.unknowns", len(system.unknowns))

    def after_residual(self, args, result, seconds) -> None:
        if self.parent_name() == "cohomology.compute_z2":
            self.count("cohomology.probes")

    def after_parse(self, args, result, seconds) -> None:
        self.count("specfile.bytes", len(args[0].encode()))


def install(tracer: Tracer):
    """Wrap every layer boundary the per-layer metrics read; returns the root."""
    from vertexcoh import axioms, cli, cohomology, extensions, linalg, presets

    w = tracer.wrap
    for name in ("parse_spec", "to_algebra", "to_module", "to_cochain"):
        w(cli, name, f"specfile.{name}",
          tracer.after_parse if name == "parse_spec" else None)
    w(cli, "build_preset", "presets.build_preset")
    w(cli, "adjoint_module", "presets.adjoint_module")
    for module in (cli, presets, extensions):
        w(module, "check_all", "axioms.check_all", tracer.after_check_all)
    for frag in ("identity", "creation", "translation", "skew_symmetry", "jacobi"):
        w(axioms, f"check_{frag}", f"axioms.check_{frag}")
    w(cli, "compute_h2", "cohomology.compute_h2")
    w(cli, "compute_der", "cohomology.compute_der")
    w(cohomology, "compute_z2", "cohomology.compute_z2")
    w(cohomology, "cocycle_residual", "cohomology.cocycle_residual", tracer.after_residual)
    w(cohomology, "derivation_system", "cohomology.derivation_system")
    w(cohomology, "coboundary", "cohomology.coboundary")
    w(extensions, "is_coboundary", "cohomology.is_coboundary")
    w(linalg, "rref", "linalg.rref", tracer.after_rref)
    w(cohomology, "solve_affine", "linalg.solve_affine")
    w(cohomology, "quotient_dim", "linalg.quotient_dim")
    for module in (cohomology, extensions):
        w(module, "skew_mode", "spaces.skew_mode")
    for module in (cli, extensions):
        w(module, "build_extension", "extensions.build_extension")
        w(module, "verify_extension", "extensions.verify_extension")
    w(cli, "build_deformation", "extensions.build_deformation")
    w(cli, "check_equivalence_extensions", "extensions.check_equivalence_extensions")
    w(cli, "check_equivalence_deformations", "extensions.check_equivalence_deformations")
    w(cli, "main", "cli.main")
    return cli.main


def main(argv: list[str]) -> int:
    out_path, spawned, args = argv[0], float(argv[1]), argv[2:]
    tracer = Tracer()
    root = install(tracer)
    entered = time.monotonic()
    code = root(args)
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({
            "startup_s": entered - spawned,
            "spans": tracer.aggregate(),
            "counters": tracer.counters,
        }, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
