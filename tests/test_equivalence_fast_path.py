"""Certificate-first equivalence against the path it replaces.

``is_coboundary`` solves psi = delta g first and runs the cocycle pass only
when no vacuum-killing shear exists, so ``check_equivalence_extensions`` and
``check_equivalence_deformations`` answer "equivalent" from a verified
certificate, without a cocycle pass.  The references below are the sequence
they replace, written with public calls: verify the first structure, run the
cocycle pass on the difference, solve, then check the certificate.  Verdict,
shear, exception type and message must agree on every input.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from vertexcoh import cohomology
from vertexcoh.axioms import check_all, translation_map
from vertexcoh.cohomology import (
    NotACocycle,
    TwoCochain,
    coboundary,
    cochain_slots,
    cocycle_residual,
    compute_h2,
    is_coboundary,
    vacuum_killing_basis,
)
from vertexcoh.extensions import (
    Equivalence,
    NotVerified,
    build_deformation,
    build_extension,
    check_equivalence_deformations,
    check_equivalence_extensions,
    verify_extension,
)
from vertexcoh.presets import adjoint_module, build_preset
from vertexcoh.scalars import JetScalar
from vertexcoh.spaces import GradedMap, VAModule, mode_apply, mode_window, viadd, vsub

F = Fraction

SETTINGS = (
    ("trivial", None), ("dual-numbers", None), ("split-pair", None),
    ("graded-nilpotent", None), ("free-boson", 2), ("free-boson", 3),
)


def _residual_first(V, W, psi) -> GradedMap | None:
    """is_coboundary as it was: the cocycle pass, then the solve."""
    residual = cocycle_residual(V, W, psi)
    if any(residual.values()):
        raise NotACocycle(sorted(residual))
    return is_coboundary(V, W, psi)         # a cocycle: the solve decides


def _reference_extensions(psi1: TwoCochain, psi2: TwoCochain) -> Equivalence | None:
    V, W = psi1.V, psi1.W
    ext1 = build_extension(V, W, psi1)
    if verify_extension(ext1).verdict == "fail":
        raise NotVerified("cannot compare an unverified extension")
    try:
        g = _residual_first(V, W, psi1 - psi2)
    except NotACocycle:
        raise NotVerified("cannot compare an unverified extension") from None
    if g is None:
        return None
    ext2 = build_extension(V, W, psi2)
    total1, total2 = ext1.total, ext2.total
    sp = total1.space

    def h(vec):
        out = dict(vec)
        viadd(out, 1, ext2.lift_fiber(g.apply(ext1.proj.apply(vec))))
        return out

    for a in range(len(sp)):
        for b in range(len(sp)):
            for n in mode_window(sp, sp.weight_of(a) + sp.weight_of(b)):
                lhs = h(total1.Y.entry(a, n, b) or {})
                if vsub(lhs, mode_apply(total2.Y, h({a: 1}), n, h({b: 1}))):
                    raise RuntimeError(
                        "equivalence certificate failed exact verification "
                        f"at ({sp.label_of(a)}, {n}, {sp.label_of(b)})")
    for a in range(len(sp)):
        if ext2.proj.apply(h({a: 1})) != ext1.proj.apply({a: 1}):
            raise RuntimeError("projection leg of the diagram failed")
    for w in range(len(W.space)):
        if h(ext1.incl.apply({w: 1})) != ext2.incl.apply({w: 1}):
            raise RuntimeError("inclusion leg of the diagram failed")
    if h(total1.vacuum_vec()) != total2.vacuum_vec():
        raise RuntimeError("equivalence does not preserve the vacuum")
    return Equivalence(g=g, kind="extension",
                       note="h(v, w) = (v, w + g(v)) from total space 1 to total space 2")


def _reference_deformations(psi1: TwoCochain, psi2: TwoCochain) -> Equivalence | None:
    V = psi1.V
    defm1, defm2 = build_deformation(V, psi1), build_deformation(V, psi2)
    g = _residual_first(V, VAModule(V.space, V.Y, translation_map(V)), psi1 - psi2)
    if check_all(defm1.deformed).verdict == "fail":
        raise NotVerified("cannot compare an unverified deformation")
    if g is None:
        return None
    sp = V.space

    def f_t(vec):
        out = dict(vec)
        viadd(out, JetScalar(0, {0: 1}), g.apply(vec))
        return out

    for u in range(len(sp)):
        for v in range(len(sp)):
            for n in mode_window(sp, sp.weight_of(u) + sp.weight_of(v)):
                lhs = f_t(defm1.deformed.Y.entry(u, n, v) or {})
                if vsub(lhs, mode_apply(defm2.deformed.Y, f_t({u: 1}), n, f_t({v: 1}))):
                    raise RuntimeError(
                        "deformation equivalence failed exact verification "
                        f"at ({sp.label_of(u)}, {n}, {sp.label_of(v)})")
    return Equivalence(g=g, kind="deformation",
                       note="f_t = 1 + t g carries deformation 1 to deformation 2")


def _outcome(check, psi1, psi2):
    try:
        res = check(psi1, psi2)
    except (NotVerified, NotACocycle, RuntimeError) as exc:
        return ("raises", type(exc), str(exc))
    if res is None:
        return ("inequivalent",)
    return ("equivalent", res.kind, res.note, res.g.columns)


PAIRS = {
    "extension": (check_equivalence_extensions, _reference_extensions),
    "deformation": (check_equivalence_deformations, _reference_deformations),
}


def _random_vacuum_killing(V, W, rng) -> GradedMap:
    g = GradedMap(V.space, W.space, 0)
    for b in vacuum_killing_basis(V, W):
        (src, col), = b.columns.items()
        (tgt, _one), = col.items()
        if rng.random() < 0.7:
            g.set_entry(tgt, src, F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)))
    return g


def _cochains(name, cutoff, seed):
    """Seeded inputs: delta g, delta g plus a class, a non-cocycle, and delta g
    with a nonzero vacuum slot."""
    V = build_preset(name, cutoff)
    W = adjoint_module(V)
    rng = random.Random(f"{name}:{cutoff}:{seed}")
    vac = V.vacuum
    out = {"zero": TwoCochain.zero(V, W)}
    cob = coboundary(V, W, _random_vacuum_killing(V, W, rng))
    out["cob"] = cob
    if name == "dual-numbers":
        out["class"] = TwoCochain.from_entries(V, W, {("eps", -1, "eps"): {"one": F(1)}})
    elif name != "free-boson":          # the boson has h2 = 0
        reps = compute_h2(V, W).representative_classes
        if reps:
            out["class"] = reps[0]
    if "class" in out:
        out["cob+class"] = cob + out["class"]
    slots = cochain_slots(V, W)
    chosen = rng.sample(slots, min(3, len(slots)))
    out["noncocycle"] = TwoCochain.from_slots(
        V, W, {s: F(rng.choice((-2, -1, 1, 2))) for s in chosen})
    vacuum_slot = TwoCochain.from_slots(V, W, {(vac, -1, vac, vac): F(rng.choice((-2, 1, 3)))})
    out["vacuum"] = cob + vacuum_slot
    return out


def _pairs(c):
    pairs = [("cob", "zero"), ("zero", "noncocycle"), ("noncocycle", "zero"),
             ("vacuum", "zero")]
    if "class" in c:
        pairs += [("cob+class", "zero"), ("cob+class", "class"), ("class", "zero")]
    return pairs


@pytest.mark.parametrize("name,cutoff", SETTINGS)
@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_fast_path_gives_the_answers_of_the_path_it_replaces(name, cutoff, kind):
    check, reference = PAIRS[kind]
    seen = set()
    for seed in ((1,) if cutoff == 3 else (1, 2)):       # cutoff 3 takes seconds
        c = _cochains(name, cutoff, seed)
        for a, b in _pairs(c):
            got = _outcome(check, c[a], c[b])
            assert got == _outcome(reference, c[a], c[b]), (seed, a, b)
            seen.add(got[0])
    # the inputs reach both the shortcut and the path that explains a "no"
    assert {"equivalent", "raises"} <= seen


@pytest.mark.parametrize("name,cutoff", SETTINGS)
def test_is_coboundary_answers_as_the_residual_first_sequence(name, cutoff):
    V = build_preset(name, cutoff)
    W = adjoint_module(V)
    c = _cochains(name, cutoff, 1)

    def outcome(solve, psi):
        try:
            g = solve(V, W, psi)
        except NotACocycle as exc:
            return ("raises", str(exc), exc.coords)
        return None if g is None else g.columns
    for key, psi in c.items():
        assert outcome(is_coboundary, psi) == outcome(_residual_first, psi), key


def _plant_doubled_solve(monkeypatch, vacuum) -> list:
    """Make is_coboundary's solve return 2 g, or one elementary
    vacuum-killing map where there is no solution."""
    calls = []
    original = cohomology.solve_affine

    def planted(ids, rows):
        calls.append(ids)
        solution = original(ids, rows)
        if solution is None:
            return {next(u for u in ids if u[1] != vacuum): 1}
        return {uid: 2 * c for uid, c in solution.items()}
    monkeypatch.setattr(cohomology, "solve_affine", planted)
    return calls


@pytest.mark.parametrize("name,cutoff", (("dual-numbers", None), ("free-boson", 2)))
@pytest.mark.parametrize("kind", sorted(PAIRS))
def test_a_wrong_shear_is_never_called_equivalent(monkeypatch, name, cutoff, kind):
    # the certificate, not the solve, decides "equivalent": a planted wrong
    # shear gives the old answer or fails exact verification (2 g is right
    # only where g = 0)
    check, reference = PAIRS[kind]
    c = _cochains(name, cutoff, 1)
    expected = {pair: _outcome(reference, c[pair[0]], c[pair[1]]) for pair in _pairs(c)}
    calls = _plant_doubled_solve(monkeypatch, c["zero"].V.vacuum)
    caught = 0
    for (a, b), want in expected.items():
        got = _outcome(check, c[a], c[b])
        if got != want:
            assert got[:2] == ("raises", RuntimeError), (a, b, got)
            assert "failed exact verification" in got[2], (a, b, got)
            caught += 1
    assert calls, "the planted solve was never consulted"
    assert caught, "no planted shear reached the certificate"
