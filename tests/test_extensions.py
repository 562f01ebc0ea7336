"""Square-zero extensions, first-order deformations, and their equivalences."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import listing
import oracles as orc
from vertexcoh import cohomology, extensions
from vertexcoh.axioms import check_all, check_module, translation_map
from vertexcoh.cohomology import (
    NotACocycle,
    TwoCochain,
    coboundary,
    cochain_slots,
    compute_der,
    compute_z2,
    is_coboundary,
    vacuum_killing_basis,
)
from vertexcoh.extensions import (
    NotVerified,
    _homomorphism_residuals,
    build_deformation,
    build_extension,
    check_equivalence_deformations,
    check_equivalence_extensions,
    deformation_to_extension,
    extension_to_cocycle,
    verify_extension,
)
from vertexcoh.presets import PRESETS, adjoint_module, build_preset, truncated_free_boson
from vertexcoh.scalars import JetScalar, value_part
from vertexcoh.spaces import (
    GradedMap,
    GradedSpace,
    ModeFamily,
    VAModule,
    mode_window,
    vsub,
)
from vertexcoh.specfile import dump_spec, parse_spec, spec_from_objects, to_algebra

F = Fraction

EXACT_PRESETS = ("trivial", "dual-numbers", "split-pair", "graded-nilpotent")


def _setting(name):
    V = build_preset(name)
    return V, adjoint_module(V)


# ---------------------------------------------------------------------------
# building and verifying
# ---------------------------------------------------------------------------

def test_total_space_layout_and_structure_maps():
    V, W = _setting("dual-numbers")
    ext = build_extension(V, W, TwoCochain.zero(V, W))
    tsp = ext.total.space
    assert tsp.labels == ("one", "eps", "w:one", "w:eps")
    assert ext.total.vacuum == tsp.index["one"]
    # projection kills the fiber, inclusion hits it
    for w in range(len(W.space)):
        assert ext.proj.apply(ext.incl.apply({w: F(1)})) == {}
    for v in range(len(V.space)):
        assert ext.proj.apply({ext.base_to_total[v]: F(1)}) == {v: F(1)}
    assert ext.lift_base({0: F(2)}) == {ext.base_to_total[0]: F(2)}
    assert ext.lift_fiber({1: F(3)}) == {ext.fiber_to_total[1]: F(3)}


def test_zero_cochain_extension_verifies_with_structural_axioms():
    for name in EXACT_PRESETS:
        V, W = _setting(name)
        rep = verify_extension(build_extension(V, W, TwoCochain.zero(V, W)))
        assert rep.verdict == "pass", name
        counts = rep.passed_counts()
        for axiom in ("square-zero", "projection", "inclusion", "vacuum-preserved"):
            assert counts.get(axiom, 0) > 0, (name, axiom)


def test_square_zero_holds_entrywise():
    V, W = _setting("split-pair")
    (psi, *_rest) = compute_z2(V, W)
    ext = build_extension(V, W, psi)
    fiber = set(ext.fiber_to_total)
    assert not [key for key in ext.total.Y.entries if key[0] in fiber and key[2] in fiber]


def test_round_trip_is_entry_exact_on_every_cocycle():
    for name in EXACT_PRESETS:
        V, W = _setting(name)
        for psi in compute_z2(V, W):
            ext = build_extension(V, W, psi)
            assert verify_extension(ext).verdict == "pass"
            back = extension_to_cocycle(ext)
            assert back.psi.entries == psi.psi.entries, name


def test_non_cocycle_extension_fails_and_refuses_extraction():
    V, W = _setting("dual-numbers")
    bad = TwoCochain.from_entries(V, W, {("one", -1, "eps"): {"eps": F(1)}})
    ext = build_extension(V, W, bad)
    rep = verify_extension(ext)
    assert rep.verdict == "fail"
    assert any(a == "identity" for a, _i, _r in rep.failed)
    with pytest.raises(NotVerified):
        extension_to_cocycle(ext)


def test_nontrivial_class_builds_the_x4_ring():
    # the one nontrivial class of the dual-numbers algebra glues two copies
    # into Q[x]/(x^4): x = eps, x^2 = w:one, x^3 = w:eps
    V, W = _setting("dual-numbers")
    psi = TwoCochain.from_entries(V, W, {("eps", -1, "eps"): {"one": F(1)}})
    assert is_coboundary(V, W, psi) is None     # genuinely nontrivial
    ext = build_extension(V, W, psi)
    assert verify_extension(ext).verdict == "pass"
    got = {
        (u, v): vec
        for (u, n, v), vec in ext.total.entries_by_labels().items()
        if n == -1
    }
    assert got == orc.EXPECTED_X4_TABLE
    assert all(n == -1 for (_u, n, _v) in ext.total.entries_by_labels())


def _reference_verify_extension(ext, lists):
    """verify_extension as four hand-written loops after check_all: the
    reference, as (passed, failed, skipped) lists.

    The one deliberate difference from those loops as first written is the
    vacuum-preserved residual: a failure now records the total vacuum minus
    the lifted base vacuum, where the loop recorded an empty residual.
    """
    checked = check_all(ext.total, detail=True)
    passed, skipped = (list(entries) for entries in lists(checked))
    failed = list(checked.failed)
    total, V, W = ext.total, ext.base, ext.fiber
    tsp, vsp, wsp = total.space, V.space, W.space

    for wi, w1 in enumerate(ext.fiber_to_total):     # square-zero ideal
        lw1 = tsp.label_of(w1)
        for wj, w2 in enumerate(ext.fiber_to_total):
            lw2 = tsp.label_of(w2)
            for n in mode_window(tsp, wsp.weight_of(wi) + wsp.weight_of(wj)):
                inst = (lw1, n, lw2)
                vec = total.Y.entry(w1, n, w2)
                if vec:
                    failed.append(("square-zero", inst, tsp.describe(vec)))
                else:
                    passed.append(("square-zero", inst))

    # projection homomorphism
    for a, n, b, residual in _homomorphism_residuals(ext.proj.apply, total.Y, V.Y):
        inst = (tsp.label_of(a), n, tsp.label_of(b))
        if residual:
            failed.append(("projection", inst, vsp.describe(residual)))
        else:
            passed.append(("projection", inst))

    for v in range(len(vsp)):                        # inclusion intertwines Y_W
        lv = vsp.label_of(v)
        vt = ext.base_to_total[v]
        for w in range(len(wsp)):
            lw = wsp.label_of(w)
            wt = ext.fiber_to_total[w]
            for n in mode_window(wsp, vsp.weight_of(v) + wsp.weight_of(w)):
                inst = (lv, n, lw)
                lhs = total.Y.entry(vt, n, wt) or {}
                rhs = ext.lift_fiber(W.Y_W.entry(v, n, w) or {})
                residual = vsub(lhs, rhs)
                if residual:
                    failed.append(("inclusion", inst, tsp.describe(residual)))
                else:
                    passed.append(("inclusion", inst))

    if ext.total.vacuum == ext.base_to_total[V.vacuum]:
        passed.append(("vacuum-preserved", ("vacuum",)))
    else:
        moved = vsub(total.vacuum_vec(), ext.lift_base(V.vacuum_vec()))
        failed.append(("vacuum-preserved", ("vacuum",), tsp.describe(moved)))
    return passed, failed, skipped


def _assert_same_report(ext, lists):
    got = verify_extension(ext, detail=True)
    want_passed, want_failed, want_skipped = _reference_verify_extension(ext, lists)
    assert lists(got) == (want_passed, want_skipped)
    assert got.failed == want_failed
    assert list(listing.expand(got.skipped_instances)) == want_skipped
    return got


def _plant(ext, fault: str) -> None:
    """Break one structural property of a built extension in place."""
    Y, V, W = ext.total.Y, ext.base, ext.fiber
    vac = ext.base_to_total[V.vacuum]
    w_vac = ext.fiber_to_total[W.space.index[V.space.label_of(V.vacuum)]]
    if fault == "square-zero":          # a fiber x fiber entry
        Y.set_entry(w_vac, -1, w_vac, {w_vac: 1})
    elif fault == "inclusion":          # an edited base x fiber entry
        Y.set_entry(vac, -1, w_vac, {w_vac: 2})
    elif fault == "projection":         # an edited base x base entry
        Y.set_entry(vac, -1, vac, {vac: 2})
    else:                               # a moved vacuum
        ext.total.vacuum = w_vac


@pytest.mark.parametrize("name, cutoff",
                         [(p, None) for p in EXACT_PRESETS]
                         + [("free-boson", 2), ("free-boson", 3)])
def test_structural_checks_match_the_reference_loops(name, cutoff, monkeypatch):
    lists = listing.install(monkeypatch)
    V = build_preset(name, cutoff)
    W = adjoint_module(V)
    rng = random.Random(20261019)
    slots = cochain_slots(V, W)
    g = GradedMap(V.space, W.space, 0)
    for b in vacuum_killing_basis(V, W):
        (src, col), = b.columns.items()
        (tgt, _one), = col.items()
        g.set_entry(tgt, src, F(rng.randint(-3, 3), rng.randint(1, 2)))
    cocycles = [coboundary(V, W, g)]
    if cutoff is None:
        cocycles += compute_z2(V, W)
    non_cocycle = TwoCochain.from_slots(
        V, W, {s: F(rng.randint(-3, 3), rng.randint(1, 2)) for s in slots}
    )
    for psi in cocycles:
        assert _assert_same_report(build_extension(V, W, psi), lists).verdict != "fail"
    rep = _assert_same_report(build_extension(V, W, non_cocycle), lists)
    assert rep.verdict == ("fail" if slots else "pass")
    if cutoff == 3:                     # the planted faults run on the smaller settings
        return
    for fault in ("square-zero", "projection", "inclusion", "vacuum-preserved"):
        ext = build_extension(V, W, TwoCochain.zero(V, W))
        _plant(ext, fault)
        rep = _assert_same_report(ext, lists)
        assert fault in {axiom for axiom, _inst, _res in rep.failed}, fault


def test_moved_vacuum_records_the_difference_of_the_vacuum_vectors():
    V, W = _setting("dual-numbers")
    ext = build_extension(V, W, TwoCochain.zero(V, W))
    _plant(ext, "vacuum-preserved")
    (res,) = [r for axiom, _inst, r in verify_extension(ext).failed
              if axiom == "vacuum-preserved"]
    assert res == {"one": -1, "w:one": 1}


def test_build_extension_refuses_a_module_above_a_truncated_base_cutoff():
    # Only a hand-built module can reach above a truncated base's cutoff (a
    # module file takes the algebra's cutoff).  The total would claim base
    # weights the base does not know, so the build is refused, naming both
    # cutoffs.
    V = truncated_free_boson(1)
    wsp = GradedSpace(list(zip(V.space.labels, V.space.weights)) + [("x", 2)],
                      tier="truncated", cutoff=2)
    W = VAModule(wsp, ModeFamily(V.space, wsp, wsp), GradedMap(wsp, wsp, 1))
    with pytest.raises(ValueError, match="module's cutoff 2 .* algebra's cutoff 1"):
        build_extension(V, W, TwoCochain.zero(V, W))
    # a module at the base's cutoff still builds
    ok = VAModule(V.space, V.Y, translation_map(V))
    assert build_extension(V, ok, TwoCochain.zero(V, ok)).total.space.cutoff == 1


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------

def test_deformation_value_part_is_the_base_and_slope_is_psi():
    V, W = _setting("dual-numbers")
    (psi, *_rest) = compute_z2(V, W)
    defm = build_deformation(V, psi)
    assert defm.deformed.ring == "dual"
    assert defm.deformed.space is V.space
    keys = set(V.Y.entries) | set(psi.psi.entries)
    assert set(defm.deformed.Y.entries) <= keys
    for key in keys:
        vec = defm.deformed.Y.entries.get(key, {})
        base = V.Y.entries.get(key, {})
        slope = psi.psi.entries.get(key, {})
        targets = set(vec) | set(base) | set(slope)
        for t in targets:
            c = vec.get(t, JetScalar(0))
            assert value_part(c) == base.get(t, F(0))
            assert c.slopes.get(0, 0) == slope.get(t, F(0))


def test_ring_is_read_off_the_stored_coefficients():
    for name in PRESETS:
        V = build_preset(name, 2 if name == "free-boson" else None)
        assert V.ring == "rational"
        assert to_algebra(parse_spec(dump_spec(spec_from_objects(V)))).ring == "rational"
    for name in EXACT_PRESETS:
        V, W = _setting(name)
        for psi in [TwoCochain.zero(V, W)] + compute_z2(V, W):
            assert build_extension(V, W, psi).total.ring == "rational", name
            assert build_deformation(V, psi).deformed.ring == "dual", name


def test_deformation_checker_verdict_matches_extension_verdict():
    rng = random.Random(77)
    for name in EXACT_PRESETS:
        V, W = _setting(name)
        slots = cochain_slots(V, W)
        if not slots:
            continue
        for _ in range(6):
            vec = {s: F(rng.randint(-2, 2)) for s in slots if rng.random() < 0.5}
            psi = TwoCochain.from_slots(V, W, vec)
            dual_verdict = check_all(build_deformation(V, psi).deformed).verdict
            ext_verdict = verify_extension(build_extension(V, W, psi)).verdict
            assert dual_verdict == ext_verdict, (name, vec)


def test_deformation_to_extension_is_the_adjoint_extension():
    V, W = _setting("split-pair")
    (psi, *_rest) = compute_z2(V, W)
    ext = deformation_to_extension(build_deformation(V, psi))
    assert ext.base is V
    assert ext.psi.psi.entries == psi.psi.entries
    assert verify_extension(ext).verdict == "pass"


def test_deformation_requires_adjoint_valued_cochain():
    V, W = _setting("dual-numbers")
    V2, W2 = _setting("split-pair")
    psi = TwoCochain.zero(V2, W2)
    with pytest.raises(ValueError):
        build_deformation(V, psi)


# ---------------------------------------------------------------------------
# equivalence, both pictures
# ---------------------------------------------------------------------------

def test_equivalence_of_extensions_iff_difference_is_coboundary():
    V, W = _setting("dual-numbers")
    cands = compute_z2(V, W) + [
        coboundary(V, W, g) for g in vacuum_killing_basis(V, W)
    ]
    cands = [p for p in cands if p]
    for i, p1 in enumerate(cands):
        for j, p2 in enumerate(cands):
            expected = is_coboundary(V, W, p1 - p2) is not None
            res = check_equivalence_extensions(p1, p2)
            assert (res is not None) == expected, (i, j)
            if res is not None:
                assert res.kind == "extension"


def test_equivalence_of_deformations_iff_difference_is_coboundary():
    V, W = _setting("dual-numbers")
    cands = compute_z2(V, W) + [
        coboundary(V, W, g) for g in vacuum_killing_basis(V, W)
    ]
    cands = [p for p in cands if p]
    for i, p1 in enumerate(cands):
        for j, p2 in enumerate(cands):
            expected = is_coboundary(V, W, p1 - p2) is not None
            res = check_equivalence_deformations(p1, p2)
            assert (res is not None) == expected, (i, j)
            if res is not None:
                assert res.kind == "deformation"


def test_coboundary_deformation_is_equivalent_to_undeformed_exactly():
    # for every vacuum-killing g, the deformation along delta(g) is carried
    # to the zero deformation by f_t = 1 + t g, checked in exact dual numbers
    for name in EXACT_PRESETS:
        V, W = _setting(name)
        zero = TwoCochain.zero(V, W)
        for g in vacuum_killing_basis(V, W):
            psi = coboundary(V, W, g)
            res = check_equivalence_deformations(psi, zero)
            assert res is not None, name
            # the certificate differs from g by a derivation at most; it must
            # still be a coboundary witness for psi itself
            assert coboundary(V, W, res.g).psi.entries == psi.psi.entries


def test_equivalence_rejects_mismatched_inputs():
    V1, W1 = _setting("dual-numbers")
    V2, W2 = _setting("split-pair")
    z1, z2 = TwoCochain.zero(V1, W1), TwoCochain.zero(V2, W2)
    with pytest.raises(ValueError):
        check_equivalence_extensions(z1, z2)
    with pytest.raises(ValueError):
        check_equivalence_deformations(z1, z2)


def _two_state_module(V, c, top_weight=1):
    """m0 (weight 0) and m1 over the dual numbers: one acts as the identity,
    eps as zero, and T_W m0 = c m1."""
    wsp = GradedSpace([("m0", 0), ("m1", top_weight)])
    Y_W = ModeFamily(V.space, wsp, wsp)
    for m in range(len(wsp)):
        Y_W.set_entry(V.space.index["one"], -1, m, {m: 1})
    T_W = GradedMap(wsp, wsp, 1)
    if c:
        T_W.set_entry(wsp.index["m1"], wsp.index["m0"], c)
    return VAModule(wsp, Y_W, T_W)


def test_modules_differing_in_translation_or_weights_do_not_mix():
    V = build_preset("dual-numbers")
    W0, W1 = _two_state_module(V, 0), _two_state_module(V, 1)
    for W in (W0, W1):
        assert check_module(V, W).verdict == "pass"
    assert [compute_der(V, W).h_dim for W in (W0, W1)] == [1, 0]
    assert not W0.same_content(W1)
    assert not W0.same_content(_two_state_module(V, 0, top_weight=2))
    z0, z1 = TwoCochain.zero(V, W0), TwoCochain.zero(V, W1)
    with pytest.raises(ValueError):
        z0 - z1
    with pytest.raises(ValueError):
        check_equivalence_extensions(z0, z1)


def test_unverified_extensions_cannot_be_compared():
    V, W = _setting("dual-numbers")
    bad = TwoCochain.from_entries(V, W, {("one", -1, "eps"): {"eps": F(1)}})
    good = TwoCochain.zero(V, W)
    for pair in ((bad, good), (good, bad)):
        with pytest.raises(NotVerified, match="cannot compare an unverified extension"):
            check_equivalence_extensions(*pair)


def _count_checker_passes(monkeypatch) -> dict:
    calls = {"check_all": 0, "cocycle_residual": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args):
            calls[name] += 1
            return original(*args)
        monkeypatch.setattr(module, name, wrapper)

    counted(extensions, "check_all")
    counted(cohomology, "cocycle_residual")
    return calls


def test_equivalent_extensions_take_two_checker_passes(monkeypatch):
    # ext1 is checked in full and the verified certificate proves the rest:
    # one check_all and no cocycle_residual in all
    calls = _count_checker_passes(monkeypatch)
    V = build_preset("free-boson", 2)
    W = adjoint_module(V)
    g = vacuum_killing_basis(V, W)[0]
    res = check_equivalence_extensions(coboundary(V, W, g), TwoCochain.zero(V, W))
    assert res is not None and res.g.columns == g.columns
    assert calls == {"check_all": 1, "cocycle_residual": 0}


def test_inequivalent_extensions_take_one_cocycle_pass(monkeypatch):
    # no shear solves the dual numbers' class, so is_coboundary explains the
    # "no" with one cocycle pass over the difference
    calls = _count_checker_passes(monkeypatch)
    V, W = _setting("dual-numbers")
    rep = TwoCochain.from_entries(V, W, {("eps", -1, "eps"): {"one": F(1)}})
    assert check_equivalence_extensions(rep, TwoCochain.zero(V, W)) is None
    assert calls == {"check_all": 1, "cocycle_residual": 1}


def test_deformation_equivalence_rejects_non_cocycle_difference():
    V, W = _setting("dual-numbers")
    bad = TwoCochain.from_entries(V, W, {("one", -1, "eps"): {"eps": F(1)}})
    with pytest.raises(NotACocycle):
        check_equivalence_deformations(bad, TwoCochain.zero(V, W))


def test_unverified_deformations_cannot_be_compared():
    # bad breaks the identity axiom; bad - bad = 0 and bad - rep = -rep are
    # cocycles, so only checking the deformations themselves rules them out
    V, W = _setting("dual-numbers")
    bad = TwoCochain.from_entries(V, W, {("one", -1, "eps"): {"eps": F(1)}})
    rep = TwoCochain.from_entries(V, W, {("eps", -1, "eps"): {"one": F(4, 3)}})
    assert is_coboundary(V, W, rep) is None           # a nontrivial class
    for other in (bad, bad + rep):
        with pytest.raises(NotVerified, match="cannot compare an unverified deformation"):
            check_equivalence_deformations(bad, other)


def test_equivalent_deformations_take_one_checker_pass(monkeypatch):
    # defm1 is checked in full and defm2 passes by linearity
    V = build_preset("free-boson", 2)
    W = adjoint_module(V)
    g = vacuum_killing_basis(V, W)[0]
    calls = {"check_all": 0}
    original = extensions.check_all

    def wrapper(*args):
        calls["check_all"] += 1
        return original(*args)
    monkeypatch.setattr(extensions, "check_all", wrapper)
    res = check_equivalence_deformations(coboundary(V, W, g), TwoCochain.zero(V, W))
    assert res is not None and res.kind == "deformation"
    assert calls == {"check_all": 1}


def test_deformation_equivalence_reads_delta_off_the_adjoint_action():
    # Y + t psi does not depend on the module psi was read against: here eps
    # acts by zero on a module with V's labels, and psi = delta g under V's
    # own action for g: eps -> one
    V = build_preset("dual-numbers")
    sp, one = V.space, V.space.index["one"]
    Y_W = ModeFamily(sp, sp, sp)
    for w in range(len(sp)):
        Y_W.set_entry(one, -1, w, {w: 1})
    W = VAModule(sp, Y_W, translation_map(V))
    psi = TwoCochain.from_entries(V, W, {("eps", -1, "eps"): {"eps": 2}})
    res = check_equivalence_deformations(psi, TwoCochain.zero(V, W))
    assert res is not None and res.kind == "deformation"
    assert res.g.columns == {sp.index["eps"]: {one: 1}}
