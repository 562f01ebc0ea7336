"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines on stdout as well).
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

import oracles as orc
from vertexcoh.axioms import check_all
from vertexcoh.cohomology import (
    TwoCochain,
    coboundary,
    cochain_slots,
    cocycle_residual,
    compute_der,
    compute_h2,
    compute_z2,
    is_coboundary,
    vacuum_killing_basis,
)
from vertexcoh.extensions import (
    build_deformation,
    build_extension,
    check_equivalence_deformations,
    check_equivalence_extensions,
    extension_to_cocycle,
    verify_extension,
)
from vertexcoh.presets import adjoint_module, build_preset
from vertexcoh.spaces import GradedSpace, build_vertex_algebra

F = Fraction
SEED = 20260815
EXACT_PRESETS = ("trivial", "dual-numbers", "split-pair", "graded-nilpotent")


@contextmanager
def criterion(num: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] {label}: FAIL")
        raise
    print(f"[criterion {num:2d}] {label}: PASS")


def _setting(name: str):
    V = build_preset(name)
    return V, adjoint_module(V)


def _compatible_slots(V):
    """All (u, n, v, target) the weight rule allows inside the window."""
    sp = V.space
    out = []
    for u in range(len(sp)):
        for v in range(len(sp)):
            wuv = sp.weight_of(u) + sp.weight_of(v)
            for n in range(wuv - 1 - sp.cutoff, wuv - 1 - sp.min_weight + 1):
                for t in sp.by_weight.get(wuv - n - 1, ()):
                    out.append((u, n, v, t))
    return out


def _corrupt(V, slot):
    """Rebuild V with +1 added to one mode-table coefficient."""
    sp = V.space
    u, n, v, t = slot
    entries = {k: dict(vec) for k, vec in V.entries_by_labels().items()}
    vec = entries.setdefault((sp.label_of(u), n, sp.label_of(v)), {})
    vec[sp.label_of(t)] = vec.get(sp.label_of(t), F(0)) + 1
    space = GradedSpace(list(zip(sp.labels, sp.weights)), tier="exact")
    return build_vertex_algebra(space, sp.label_of(V.vacuum), entries)


def test_criterion_01_checker_passes_presets_and_catches_corruptions():
    with criterion(1, "exact presets pass; seeded corruptions are caught"):
        rng = random.Random(SEED)
        for name in EXACT_PRESETS:
            started = time.perf_counter()
            V = build_preset(name)
            rep = check_all(V, detail=True)
            assert rep.verdict == "pass", name
            assert not rep.skipped and rep.skipped_instances == [], name

            # A corruption must actually break an axiom to be detectable:
            # bumping the plain product of two non-vacuum elements can land
            # on a different but perfectly lawful algebra, so those slots
            # are excluded.  Everything else is pinned by some axiom.
            vac = V.vacuum
            slots = [
                s for s in _compatible_slots(V)
                if not (s[1] == -1 and s[0] != vac and s[2] != vac)
            ]
            for _ in range(6):
                slot = rng.choice(slots)
                bad = check_all(_corrupt(V, slot))
                assert bad.verdict == "fail", (name, slot)
                assert bad.failed, (name, slot)
                labs = {V.space.label_of(slot[0]), V.space.label_of(slot[2])}
                named = any(
                    labs & {x for x in inst if isinstance(x, str)}
                    for _axiom, inst, _res in bad.failed
                )
                assert named, (name, slot, bad.failed)
            assert time.perf_counter() - started < 1.0, name


def test_criterion_02_derivations_match_brute_force_solver():
    with criterion(2, "derivation spaces match the brute-force solver"):
        frozen = {"trivial": 0, "dual-numbers": 1, "split-pair": 0}
        for name in EXACT_PRESETS:
            V, W = _setting(name)
            res = compute_der(V, W)
            table = orc.TABLES[name]
            oracle = orc.leibniz_derivations(table)
            assert res.h_dim == len(oracle), name
            assert res.h_dim == orc.EXPECTED_DERIVATION_DIM[name], name
            if name in frozen:
                assert res.h_dim == frozen[name], name

            # exact correspondence: the two bases span the same subspace
            slots = orc.derivation_slots(table)
            pos = {s: k for k, s in enumerate(slots)}

            def dense(sparse_by_label):
                row = [F(0)] * len(slots)
                for (src, tgt), c in sparse_by_label.items():
                    row[pos[(src, tgt)]] = c
                return row

            mine = []
            for g in res.representative_classes:
                by_label = {}
                for s in sorted(g.columns):
                    for t, c in g.columns[s].items():
                        by_label[(s, t)] = c
                mine.append(dense(by_label))
            theirs = [dense(vec) for vec in oracle]
            r_mine, r_theirs = orc.rank_dense(mine), orc.rank_dense(theirs)
            assert r_mine == len(mine) == r_theirs == len(theirs), name
            assert orc.rank_dense(mine + theirs) == r_mine, name


def test_criterion_03_derivations_kill_the_vacuum():
    with criterion(3, "every derivation sends the vacuum to zero"):
        for name in EXACT_PRESETS:
            V, W = _setting(name)
            for g in compute_der(V, W).representative_classes:
                assert g.apply(V.vacuum_vec()) == {}, name


def test_criterion_04_second_cohomology_dimensions_match_brute_force():
    with criterion(4, "(Z2, B2, H2) dimensions match the brute-force count"):
        for name in EXACT_PRESETS:
            V, W = _setting(name)
            res = compute_h2(V, W)
            trip = (len(res.cocycle_basis), len(res.coboundary_basis), res.h_dim)
            assert trip == orc.classical_h2_dims(orc.TABLES[name]), name
            assert trip == orc.EXPECTED_H2_DIMS[name], name
        V, W = _setting("dual-numbers")
        assert compute_h2(V, W).h_dim == 1
        assert compute_h2(*_setting("split-pair")).h_dim == 0
        assert compute_z2(*_setting("graded-nilpotent")) == []


def test_criterion_05_extension_round_trip_and_x4_table():
    with criterion(5, "extensions round-trip; the nontrivial class is Q[x]/(x^4)"):
        for name in EXACT_PRESETS:
            V, W = _setting(name)
            for psi in compute_z2(V, W):
                ext = build_extension(V, W, psi)
                assert verify_extension(ext).verdict == "pass", name
                back = extension_to_cocycle(ext)
                assert back.psi.entries == psi.psi.entries, name

        V, W = _setting("dual-numbers")
        (rep,) = compute_h2(V, W).representative_classes
        assert is_coboundary(V, W, rep) is None
        ext = build_extension(V, W, rep)
        assert verify_extension(ext).verdict == "pass"
        got = {
            (u, v): vec
            for (u, n, v), vec in ext.total.entries_by_labels().items()
            if n == -1
        }
        assert got == orc.EXPECTED_X4_TABLE
        assert all(n == -1 for (_u, n, _v) in ext.total.entries_by_labels())


def test_criterion_06_extension_equivalence_matches_coboundary_test():
    with criterion(6, "extensions equivalent exactly when difference bounds"):
        V, W = _setting("dual-numbers")
        cands = compute_z2(V, W) + [
            coboundary(V, W, g) for g in vacuum_killing_basis(V, W)
        ]
        cands = [p for p in cands if p]
        assert len(cands) ** 2 <= 9
        for i, p1 in enumerate(cands):
            for j, p2 in enumerate(cands):
                bounds = is_coboundary(V, W, p1 - p2) is not None
                res = check_equivalence_extensions(p1, p2)
                assert (res is not None) == bounds, (i, j)


def test_criterion_07_deformation_and_extension_verdicts_agree():
    with criterion(7, "first-order deformation and extension verdicts agree"):
        rng = random.Random(SEED)
        for name in EXACT_PRESETS:
            V, W = _setting(name)
            slots = cochain_slots(V, W)
            z_basis = compute_z2(V, W)
            samples = []
            for _ in range(10):                      # guaranteed cocycles
                psi = TwoCochain.zero(V, W)
                for b in z_basis:
                    psi = psi + b.scale(F(rng.randint(-2, 2)))
                samples.append(psi)
            for _ in range(10):                      # arbitrary cochains
                vec = {s: F(rng.randint(-3, 3))
                       for s in slots if rng.random() < 0.5}
                samples.append(TwoCochain.from_slots(V, W, vec))
            assert len(samples) == 20
            for psi in samples:
                dual = check_all(build_deformation(V, psi).deformed).verdict
                ext = verify_extension(build_extension(V, W, psi)).verdict
                assert dual == ext, (name, sorted(psi.entries_by_labels()))


def test_criterion_08_coboundary_deformations_are_trivial():
    with criterion(8, "coboundary deformations are equivalent to trivial"):
        V, W = _setting("dual-numbers")
        trivial = TwoCochain.zero(V, W)
        basis = vacuum_killing_basis(V, W)
        assert basis
        for g in basis:
            psi = coboundary(V, W, g)
            res = check_equivalence_deformations(psi, trivial)
            assert res is not None            # the shear is verified exactly
            assert res.kind == "deformation"  # over dual numbers internally
            assert coboundary(V, W, res.g).psi.entries == psi.psi.entries


def test_criterion_09_cocycle_residual_is_additive():
    with criterion(9, "the cocycle residual is additive in the cochain"):
        rng = random.Random(SEED)
        for name in EXACT_PRESETS:
            V, W = _setting(name)
            slots = cochain_slots(V, W)
            assert slots, name

            def rand():
                vec = {s: F(rng.randint(-3, 3))
                       for s in slots if rng.random() < 0.6}
                return TwoCochain.from_slots(V, W, vec)

            for _ in range(50):
                p, q = rand(), rand()
                rp, rq, rs = (cocycle_residual(V, W, x) for x in (p, q, p + q))
                for k in set(rp) | set(rq) | set(rs):
                    assert rs.get(k, F(0)) == rp.get(k, F(0)) + rq.get(k, F(0))


def test_criterion_10_cocycles_vanish_on_the_vacuum():
    with criterion(10, "computed cocycles vanish against the vacuum"):
        checked = 0
        for name in EXACT_PRESETS:
            V, W = _setting(name)
            sp = V.space
            vac = V.vacuum
            for psi in compute_z2(V, W):
                checked += 1
                for v in range(len(sp)):
                    for side in ((vac, v), (v, vac)):
                        wuv = sp.weight_of(side[0]) + sp.weight_of(side[1])
                        lo = wuv - 1 - sp.cutoff
                        hi = wuv - 1 - sp.min_weight
                        for n in range(lo, hi + 1):
                            entry = psi.entry(side[0], n, side[1])
                            assert entry in (None, {}), (name, side, n)
        assert checked > 0                    # the claim was actually tested


def test_criterion_11_coboundary_dimension_identity():
    with criterion(11, "dim B2 = dim(vacuum-killing maps) - dim(derivations)"):
        for name in EXACT_PRESETS:
            V, W = _setting(name)
            b2 = len(compute_h2(V, W).coboundary_basis)
            killing = len(vacuum_killing_basis(V, W))
            der = compute_der(V, W).h_dim
            assert b2 == killing - der, name
            assert killing == orc.EXPECTED_VACUUM_KILLING_DIM[name], name


def test_criterion_12_truncated_boson_bookkeeping():
    with criterion(12, "truncated free boson: clean pass within its window"):
        started = time.perf_counter()
        V = build_preset("free-boson", cutoff=4)
        rep = check_all(V, detail=True)
        elapsed = time.perf_counter() - started
        assert rep.verdict == "pass-within-window"
        assert rep.failed == []
        assert rep.skipped
        for _axiom, _inst, reason in rep.skipped_instances:
            assert reason[0] == "TruncationBreach"
            assert reason[1] > 4, reason
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
        print(f"  (free boson at cutoff 4: {len(rep.passed)} checks passed, "
              f"{len(rep.skipped)} skipped, {elapsed:.2f}s)")
