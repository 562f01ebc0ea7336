"""Make one workload's input files from a seed, through vertexcoh's public API.

    PYTHONPATH=src python3 perfbench/inputs.py WORKLOAD SEED OUTDIR

Writes the files the workload's jobs read into OUTDIR, plus ``expected.json``
holding the seeded values the checks compare against (the corrupted entry,
the drawn map g, the dual-numbers scale).  The same seed gives byte-identical
files.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from vertexcoh import (
    GradedMap,
    SpecFile,
    TwoCochain,
    VAModule,
    adjoint_module,
    build_preset,
    coboundary,
    cochain_slots,
    dump_spec,
    format_rational,
    spec_from_objects,
    translation_map,
    vacuum_killing_basis,
)

# The corrupted entry is drawn from (u, n, v) with wt(u) + wt(v) <= this bound:
# every such entry sits deep enough inside the cutoff-4 window that the
# checker evaluates, rather than skips, the instances that read it.  Entries
# with the vacuum as an argument are left out: they are read by nearly every
# instance, and the thousands of failures they cause would make the job's
# time depend on the seed.
CORRUPT_MAX_ARG_WEIGHT = 3


def _psi_file(V, psi: TwoCochain) -> str:
    return dump_spec(SpecFile(psi=spec_from_objects(V, psi=psi).psi))


def make_check_boson(rng: random.Random, out: Path) -> dict:
    V = build_preset("free-boson", cutoff=4)
    sp = V.space
    candidates = sorted(
        key for key in V.Y.entries
        if sp.weight_of(key[0]) + sp.weight_of(key[2]) <= CORRUPT_MAX_ARG_WEIGHT
        and V.vacuum not in (key[0], key[2])
    )
    u, n, v = rng.choice(candidates)
    vec = dict(V.Y.entry(u, n, v))
    t = rng.choice(sorted(vec))
    vec[t] += rng.choice((1, 2, 3))
    V.Y.set_entry(u, n, v, vec)
    (out / "boson4-corrupt.txt").write_text(dump_spec(spec_from_objects(V)))
    return {"corrupted": [sp.label_of(u), n, sp.label_of(v), sp.label_of(t)]}


def make_cohomology(rng: random.Random, out: Path) -> dict:
    V = build_preset("free-boson", cutoff=6)
    # translation_map is the adjoint module's T once creation holds, which the
    # free boson satisfies; adjoint_module itself would first run check_all at
    # cutoff 6, far longer than the whole workload.
    W = VAModule(V.space, V.Y, translation_map(V))
    (out / "boson6.txt").write_text(dump_spec(spec_from_objects(V)))
    (out / "boson6-adjoint.txt").write_text(dump_spec(spec_from_objects(V, W)))
    return {}


def make_structures(rng: random.Random, out: Path) -> dict:
    V = build_preset("free-boson", cutoff=3)
    W = adjoint_module(V)
    sp = V.space

    # g is nonzero on every elementary vacuum-killing map, so that the size of
    # delta g, and with it the work of every job that reads it, does not
    # depend on the seed.
    g = GradedMap(sp, sp, 0)
    for b in vacuum_killing_basis(V, W):
        (src, col), = b.columns.items()
        (tgt, _one), = col.items()
        g.set_entry(tgt, src, Fraction(rng.choice((-3, -2, -1, 1, 2, 3))))
    (out / "cob3.txt").write_text(_psi_file(V, coboundary(V, W, g)))
    shear = {
        sp.label_of(s): {sp.label_of(t): format_rational(c) for t, c in col.items()}
        for s, col in g.columns.items() if col
    }

    # A cochain that is nonzero on the vacuum is never a cocycle: the
    # extension's identity axiom reads psi(vacuum, n, v) directly.
    V2 = build_preset("free-boson", cutoff=2)
    W2 = adjoint_module(V2)
    slots = cochain_slots(V2, W2)
    vacuum_slots = [s for s in slots if s[0] == V2.vacuum]
    chosen = {rng.choice(vacuum_slots)} | set(rng.sample(slots, 2))
    noncocycle = TwoCochain.from_slots(
        V2, W2, {s: Fraction(rng.choice((-2, -1, 1, 2))) for s in sorted(chosen)})
    (out / "noncocycle2.txt").write_text(_psi_file(V2, noncocycle))

    scale = Fraction(rng.randint(1, 5), rng.randint(1, 3)) * rng.choice((-1, 1))
    (out / "dual-class.txt").write_text(
        f"[PSI]\neps -1 eps -> {format_rational(scale)}*one\n")
    (out / "zero.txt").write_text("[PSI]\n")
    return {"shear": shear, "dual_scale": format_rational(scale)}


MAKERS = {
    "check-boson": make_check_boson,
    "cohomology": make_cohomology,
    "structures": make_structures,
}


def main(argv: list[str]) -> int:
    workload, seed, outdir = argv
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    expected = MAKERS[workload](random.Random(f"{workload}:{seed}"), out)
    (out / "expected.json").write_text(json.dumps(expected, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
