"""Derivations, 2-cocycles, coboundaries and quotients, against the oracles."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import listing
import oracles as orc
from vertexcoh import cohomology
from vertexcoh.axioms import (
    _gen_creation,
    _gen_identity,
    _gen_jacobi,
    _gen_skew,
    _gen_translation,
    check_all,
    translation_map,
)
from vertexcoh.cohomology import (
    ModuleAxiomsFail,
    NotACocycle,
    TwoCochain,
    VacuumNotKilled,
    _delta_unknowns,
    _mode_index_triples,
    _right_lookup,
    coboundary,
    cochain_slots,
    compute_der,
    compute_h2,
    compute_z2,
    cocycle_residual,
    derivation_system,
    is_coboundary,
    vacuum_killing_basis,
)
from vertexcoh.extensions import build_extension
from vertexcoh.linalg import (
    Echelon,
    SubspaceNotContained,
    quotient_dim,
)
from vertexcoh.presets import (
    CommDiffAlgebraSpec,
    adjoint_module,
    build_preset,
    from_commutative_algebra,
    truncated_free_boson,
)
from vertexcoh.scalars import JetScalar
from vertexcoh.spaces import (
    GradedMap,
    GradedSpace,
    ModeFamily,
    TruncationBreach,
    VAModule,
    mode_apply,
    skew_mode,
    viadd,
    vsub,
)
from vertexcoh.specfile import parse_spec, to_algebra, to_module

F = Fraction

EXACT_PRESETS = ("trivial", "dual-numbers", "split-pair", "graded-nilpotent")


def _setting(name, cutoff=None):
    V = build_preset(name, cutoff)
    return V, adjoint_module(V)


def _random_vacuum_killing(V, W, rng):
    """A degree-zero map V -> W, nonzero on every vacuum-killing slot."""
    g = GradedMap(V.space, W.space, 0)
    for b in vacuum_killing_basis(V, W):
        (src, col), = b.columns.items()
        (tgt, _one), = col.items()
        g.set_entry(tgt, src, F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)))
    return g


# ---------------------------------------------------------------------------
# derivations (first cohomology)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", EXACT_PRESETS)
def test_derivation_dims_match_brute_force(name):
    V, W = _setting(name)
    res = compute_der(V, W)
    assert res.degree == 1
    assert res.h_dim == orc.derivation_dim(orc.TABLES[name])
    assert res.h_dim == orc.EXPECTED_DERIVATION_DIM[name]
    assert res.window is None
    assert len(res.representative_classes) == res.h_dim


def test_derivations_satisfy_leibniz_and_kill_vacuum():
    for name in EXACT_PRESETS:
        V, W = _setting(name)
        sp = V.space
        for f in compute_der(V, W).representative_classes:
            assert f.column(V.vacuum) == {}        # derived, not imposed
            for u, n, v, vec in V.Y.iter_entries():
                lhs = f.apply(vec)
                rhs = viadd(
                    skew_mode(W, f.apply(sp.basis_vec(u)), n, sp.basis_vec(v)),
                    1, mode_apply(W.Y_W, sp.basis_vec(u), n, f.apply(sp.basis_vec(v))),
                )
                assert lhs == rhs, (name, u, n, v)


def test_dual_numbers_derivation_is_the_eps_scaling():
    V, W = _setting("dual-numbers")
    (f,) = compute_der(V, W).representative_classes
    eps = V.space.index["eps"]
    assert f.columns == {eps: {eps: F(1)}}
    # and the brute-force oracle sees the same unique slot
    (ovec,) = orc.leibniz_derivations(orc.TABLES["dual-numbers"])
    assert ovec == {(1, 1): F(1)}


def test_derivation_system_covers_every_checked_slot():
    V, W = _setting("split-pair")
    unknowns = _delta_unknowns(V, W)
    assert set(unknowns) == {
        ("f", v, t)
        for v in range(len(V.space))
        for t in range(len(V.space))
        if V.space.weight_of(v) == V.space.weight_of(t)
    }
    rows = list(derivation_system(V, W))
    assert len(rows) > 0 and all(tag for _row, tag in rows)
    assert len(rows) == len(cochain_slots(V, W))    # one tagged row per slot
    assert all(set(row) <= set(unknowns) for row, _tag in rows)
    # sparse rows in exact form: no zero, no integral Fraction
    assert all(c and (type(c) is int or c.denominator != 1)
               for row, _tag in rows for c in row.values())


# every exact preset at its own cutoff and at 3, and small boson windows
SLOT_SETTINGS = ([(p, c) for p in EXACT_PRESETS for c in (None, 3)]
                 + [("free-boson", c) for c in (1, 2, 3)])


@pytest.mark.parametrize("name, cutoff", SLOT_SETTINGS)
def test_derivation_rows_are_tagged_with_their_slots(name, cutoff):
    # the readers take each row's slot from its tag, so the tags must list
    # the cochain slots in order
    V, W = _setting(name, cutoff)
    assert [slot for _row, slot in derivation_system(V, W)] == cochain_slots(V, W)


def _reference_vacuum_killing_basis(V, W):
    """vacuum_killing_basis's former loop, the reference."""
    basis = []
    for v in range(len(V.space)):
        if v == V.vacuum:
            continue
        for t in W.space.by_weight.get(V.space.weight_of(v), ()):
            gmap = GradedMap(V.space, W.space, 0)
            gmap.set_entry(t, v, 1)
            basis.append(gmap)
    return basis


@pytest.mark.parametrize("name, cutoff", SLOT_SETTINGS)
def test_vacuum_killing_basis_equals_the_reference_loop(name, cutoff):
    V, W = _setting(name, cutoff)
    got = vacuum_killing_basis(V, W)
    assert got == _reference_vacuum_killing_basis(V, W)      # same maps, same order
    assert all(type(c) is int for g in got for _s, _t, c in g.items_sorted())


@pytest.mark.parametrize("name, cutoff",
                         [(p, None) for p in EXACT_PRESETS] + [("free-boson", 3)])
def test_right_action_of_the_adjoint_module_is_the_mode_table(name, cutoff):
    # skew-symmetry: w_n v computed from the module action is the algebra's own
    V, W = _setting(name, cutoff)
    sp = V.space
    right = _right_lookup(W)
    for w in range(len(sp)):
        for v in range(len(sp)):
            for tau in sp.by_weight:
                n = sp.weight_of(w) + sp.weight_of(v) - 1 - tau
                assert right(w, n, v) == (V.Y.entry(w, n, v) or {}), (name, w, n, v)


def test_derivations_on_truncated_boson_are_window_consistent():
    V = truncated_free_boson(2)
    W = adjoint_module(V)
    res = compute_der(V, W)
    assert res.window == "level-2"
    sp = V.space
    for f in res.representative_classes:
        assert f.column(V.vacuum) == {}
        for u, n, v, vec in V.Y.iter_entries():
            lhs = f.apply(vec)
            rhs = viadd(
                skew_mode(W, f.apply(sp.basis_vec(u)), n, sp.basis_vec(v)),
                1, mode_apply(W.Y_W, sp.basis_vec(u), n, f.apply(sp.basis_vec(v))),
            )
            assert lhs == rhs


# ---------------------------------------------------------------------------
# cochains and coboundaries
# ---------------------------------------------------------------------------

def test_two_cochain_arithmetic_and_slot_forms():
    V, W = _setting("dual-numbers")
    eps = V.space.index["eps"]
    one = V.space.index["one"]
    a = TwoCochain.from_entries(V, W, {("eps", -1, "eps"): {"one": F(2)}})
    b = TwoCochain.from_slots(V, W, {(eps, -1, eps, one): F(-2),
                                     (eps, -1, eps, eps): F(1)})
    s = a + b
    assert s.entry(eps, -1, eps) == {eps: F(1)}
    assert (s - b).psi.entries == a.psi.entries
    assert a.scale(F(1, 2)).entry(eps, -1, eps) == {one: F(1)}
    assert not TwoCochain.zero(V, W)
    assert a and a != b
    assert a.slots() == {(eps, -1, eps, one): F(2)}
    assert list(a.entries_by_labels()) == [("eps", -1, "eps")]


def test_cochains_valued_in_different_modules_do_not_combine():
    V = build_preset("split-pair")
    module = "[MODULE_BASIS]\nx 0\ny 0\n[MODULE_MODES]\n" + "".join(
        f"{u} -1 {w} -> 1*{t}\n" for u, w, t in
        (("one", "x", "x"), ("one", "y", "y"), ("u", "x", "y"), ("u", "y", "x")))
    adjoint, W = adjoint_module(V), to_module(parse_spec(module), V)
    a = TwoCochain.from_entries(V, adjoint, {("u", -1, "u"): {"one": F(1)}})
    b = TwoCochain.from_entries(V, W, {("u", -1, "u"): {"x": F(1)}})
    for combine in (a.__add__, a.__sub__):
        with pytest.raises(ValueError, match="different modules"):
            combine(b)
    assert not a - TwoCochain.from_entries(V, adjoint_module(V), {("u", -1, "u"): {"one": F(1)}})


def test_cochains_over_same_labelled_but_different_tables_do_not_combine():
    # same labels as split-pair's adjoint module, but u acts as zero
    V = build_preset("split-pair")
    module = "[MODULE_BASIS]\none 0\nu 0\n[MODULE_MODES]\none -1 one -> 1*one\none -1 u -> 1*u\n"
    entry = {("u", -1, "u"): {"one": F(1)}}
    a = TwoCochain.from_entries(V, adjoint_module(V), entry)
    b = TwoCochain.from_entries(V, to_module(parse_spec(module), V), entry)
    with pytest.raises(ValueError, match="different modules"):
        a - b
    # same labels as split-pair, but u squares to zero
    dual = to_algebra(parse_spec(
        "[BASIS]\none 0\nu 0\n[VACUUM]\none\n[MODES]\n"
        "one -1 one -> 1*one\none -1 u -> 1*u\nu -1 one -> 1*u\n"))
    c = TwoCochain.from_entries(dual, adjoint_module(dual), entry)
    with pytest.raises(ValueError, match="different algebras"):
        a - c


def test_cochain_slots_enumeration_order_and_count():
    V, W = _setting("dual-numbers")
    slots = cochain_slots(V, W)
    # every pair has exactly the n = -1 stratum in an all-weight-zero algebra
    assert len(slots) == 2 * 2 * 2
    assert slots == sorted(
        slots, key=lambda s: (V.space.weight_of(s[0]),) + s)
    V2, W2 = _setting("graded-nilpotent")
    for u, n, v, t in cochain_slots(V2, W2):
        want = V2.space.weight_of(u) + V2.space.weight_of(v) - n - 1
        assert W2.space.weight_of(t) == want


def _reference_mode_index_triples(V, W):
    """The hand-written window loop that mode_triples replaced."""
    vsp, wsp = V.space, W.space
    target_weights = sorted(wsp.by_weight)
    for u in range(len(vsp)):
        wu = vsp.weight_of(u)
        ns = sorted({
            wu + vsp.weight_of(v) - 1 - tau
            for v in range(len(vsp))
            for tau in target_weights
        })
        for n in ns:
            for v in range(len(vsp)):
                if (wu + vsp.weight_of(v) - n - 1) in wsp.by_weight:
                    yield u, n, v


def _module_on(V, space):
    """A module of V on ``space`` with no action; the slots read only weights."""
    return VAModule(space, ModeFamily(V.space, space, space), GradedMap(space, space, 1))


@pytest.mark.parametrize("name, cutoff",
                         [(p, c) for p in EXACT_PRESETS for c in (None, 3)]
                         + [("free-boson", c) for c in range(7)])
def test_mode_index_triples_equal_the_reference_loop(name, cutoff):
    V = build_preset(name, cutoff)
    rng = random.Random(f"{name}/{cutoff}")
    modules = [_module_on(V, V.space)]
    for _ in range(4):   # weights unlike V's: gaps, shifts, other bounds
        weights = sorted(rng.sample(range(-2, 6), rng.randint(1, 4)))
        lo = min(weights) - rng.randint(0, 1)
        space = GradedSpace([(f"w{i}", w) for i, w in enumerate(weights)],
                            tier=rng.choice(("exact", "truncated")),
                            cutoff=max(weights) + rng.randint(0, 2), min_weight=lo)
        modules.append(_module_on(V, space))
    for W in modules:
        assert _mode_index_triples(V, W) == list(_reference_mode_index_triples(V, W))


def test_vacuum_killing_basis_dims_match_oracle():
    for name in EXACT_PRESETS:
        V, W = _setting(name)
        basis = vacuum_killing_basis(V, W)
        assert len(basis) == orc.vacuum_killing_dim(orc.TABLES[name])
        assert len(basis) == orc.EXPECTED_VACUUM_KILLING_DIM[name]
        for g in basis:
            assert g.degree == 0 and g.column(V.vacuum) == {}


def test_coboundary_hand_value_and_vacuum_guard():
    V, W = _setting("dual-numbers")
    sp = V.space
    one, eps = sp.index["one"], sp.index["eps"]
    g = GradedMap(sp, sp, 0)
    g.set_entry(one, eps, F(1))                       # g: eps -> one
    delta = coboundary(V, W, g)
    assert delta.entry(eps, -1, eps) == {eps: F(2)}   # eps.g(eps) twice
    assert delta.entry(one, -1, eps) is None          # unit slots stay clean
    bad = GradedMap(sp, sp, 0)
    bad.set_entry(one, one, F(1))
    with pytest.raises(VacuumNotKilled):
        coboundary(V, W, bad)
    with pytest.raises(ValueError):
        coboundary(V, W, GradedMap(sp, sp, 1))        # wrong degree


@pytest.mark.parametrize("name, cutoff", SLOT_SETTINGS)
def test_coboundary_is_the_defining_formula(name, cutoff):
    # delta g (u, n, v) = -g(u_n v) + g(u)_n v + u_n g(v), term by term
    V, W = _setting(name, cutoff)
    rng = random.Random(20261018)
    for _ in range(3):
        g = _random_vacuum_killing(V, W, rng)
        want = {}
        for u, n, v in _mode_index_triples(V, W):
            uvec, vvec = {u: F(1)}, {v: F(1)}
            vec = viadd(
                skew_mode(W, g.apply(uvec), n, vvec),
                1, mode_apply(W.Y_W, uvec, n, g.apply(vvec)),
            )
            vec = vsub(vec, g.apply(V.Y.entry(u, n, v) or {}))
            if vec:
                want[(u, n, v)] = vec
        assert coboundary(V, W, g).psi.entries == want


def test_coboundary_of_a_derivation_vanishes():
    V, W = _setting("dual-numbers")
    (f,) = compute_der(V, W).representative_classes
    assert not coboundary(V, W, f)


# ---------------------------------------------------------------------------
# cocycles (second cohomology)
# ---------------------------------------------------------------------------

def test_cocycle_residual_is_zero_exactly_on_cocycles():
    V, W = _setting("dual-numbers")
    assert cocycle_residual(V, W, TwoCochain.zero(V, W)) == {}
    for psi in compute_z2(V, W):
        assert cocycle_residual(V, W, psi) == {}
    # a non-cocycle: a unit-slot entry breaks the identity axiom upstairs
    bad = TwoCochain.from_entries(V, W, {("one", -1, "eps"): {"eps": F(1)}})
    res = cocycle_residual(V, W, bad)
    assert res and any(axiom == "identity" for axiom, _i, _t in res)


def test_cocycle_residual_is_linear():
    rng = random.Random(20260815)
    for name in EXACT_PRESETS:
        V, W = _setting(name)
        slots = cochain_slots(V, W)
        if not slots:
            continue
        def rand_cochain():
            vec = {s: F(rng.randint(-3, 3)) for s in slots if rng.random() < 0.6}
            return TwoCochain.from_slots(V, W, vec)
        for _ in range(8):
            p, q = rand_cochain(), rand_cochain()
            rp, rq, rs = (cocycle_residual(V, W, x) for x in (p, q, p + q))
            keys = set(rp) | set(rq) | set(rs)
            for k in keys:
                assert rs.get(k, F(0)) == rp.get(k, F(0)) + rq.get(k, F(0))


def _residual_with_the_fringe(V, W, psi):
    """cocycle_residual as check_all enumerates it: the depth-1 fringe
    included, its breaches dropped.  Also returns how many breaches it saw."""
    ext = build_extension(V, W, psi)
    total = ext.total
    tmap = translation_map(total)
    fringe = 1 if total.space.tier == "truncated" else 0
    fiber_of_total = {ti: wi for wi, ti in enumerate(ext.fiber_to_total)}
    out, breaches = {}, 0
    for gen in (_gen_identity(total.Y, total.vacuum), _gen_creation(total),
                _gen_translation(total.Y, tmap, tmap), _gen_skew(total, tmap, fringe),
                _gen_jacobi(total.Y, total.Y, fringe)):
        for axiom, inst, result in listing.expand(gen):
            if isinstance(result, TruncationBreach):
                breaches += 1
                continue
            for t, c in result.items():
                wi = fiber_of_total.get(t)
                if wi is not None and c:
                    out[(axiom, inst, W.space.label_of(wi))] = c
    return out, breaches


@pytest.mark.parametrize(
    "name, cutoff",
    [(p, c) for p in EXACT_PRESETS for c in (None, 3)]
    + [("free-boson", c) for c in (1, 2, 3)])
def test_window_only_residual_equals_the_fringe_enumeration(name, cutoff):
    # cocycle_residual skips the fringe, whose instances only ever breach: the
    # coordinates, their values and their order must be unchanged
    rng = random.Random(f"window:{name}:{cutoff}")
    V, W = _setting(name, cutoff)
    slots = cochain_slots(V, W)
    dense = TwoCochain.from_slots(
        V, W, {s: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) for s in slots})
    cochains = [dense] + [coboundary(V, W, g) for g in vacuum_killing_basis(V, W)[:1]]
    for psi in cochains:
        got = cocycle_residual(V, W, psi)
        want, breaches = _residual_with_the_fringe(V, W, psi)
        assert list(got.items()) == list(want.items())
        assert got or psi is not dense       # a dense random cochain breaks something
        if V.space.tier == "truncated":
            assert breaches                  # the fringe was there to skip


@pytest.mark.parametrize("name", EXACT_PRESETS)
def test_h2_dimensions_match_brute_force(name):
    V, W = _setting(name)
    res = compute_h2(V, W)
    trip = (len(res.cocycle_basis), len(res.coboundary_basis), res.h_dim)
    assert trip == orc.classical_h2_dims(orc.TABLES[name])
    assert trip == orc.EXPECTED_H2_DIMS[name]
    assert len(res.representative_classes) == res.h_dim


@pytest.mark.parametrize("name, cutoff",
                         [(p, None) for p in EXACT_PRESETS]
                         + [("free-boson", 1), ("free-boson", 2)])
def test_h2_picks_are_the_greedily_independent_ones(name, cutoff):
    V = build_preset(name, cutoff)
    # coboundaries: each nonzero delta g independent of those picked before;
    # representatives: each cocycle independent of everything picked before
    W = adjoint_module(V)
    res = compute_h2(V, W)
    slots = cochain_slots(V, W)
    picked: list = []

    def greedy(candidates):
        out = []
        for c in candidates:
            vec = [c.slots().get(s, F(0)) for s in slots]
            if orc.rank_dense(picked + [vec]) > len(picked):
                picked.append(vec)
                out.append(c)
        return out

    deltas = [coboundary(V, W, g) for g in vacuum_killing_basis(V, W)]
    assert res.coboundary_basis == greedy(deltas)
    assert res.representative_classes == greedy(res.cocycle_basis)


def _h2_by_quotient_dim(V, W, z_basis):
    """compute_h2's former sequence, the reference: B2 picks, then quotient_dim
    for h_dim, then the representatives, each elimination on its own."""
    slots = cochain_slots(V, W)
    unknowns = _delta_unknowns(V, W)
    columns: dict = {uid: {} for uid in unknowns}
    for slot, (row, _tag) in zip(slots, derivation_system(V, W)):
        for uid, c in row.items():
            columns[uid][slot] = c
    b_candidates = [
        TwoCochain.from_slots(V, W, columns[uid])
        for uid in unknowns if uid[1] != V.vacuum
    ]
    picked = Echelon(slots)
    b_basis = [b for b in b_candidates if b and picked.insert(b.slots()) is not None]
    h_dim = quotient_dim(
        [z.slots() for z in z_basis], [b.slots() for b in b_basis]
    )
    reps = [z for z in z_basis if picked.insert(z.slots()) is not None]
    return h_dim, b_basis, reps


@pytest.mark.parametrize("name, cutoff",
                         [(p, c) for p in EXACT_PRESETS for c in (None, 3)]
                         + [("free-boson", c) for c in (1, 2, 3)])
def test_h2_matches_the_quotient_dim_sequence(name, cutoff):
    V, W = _setting(name, cutoff)
    res = compute_h2(V, W)
    h_dim, b_basis, reps = _h2_by_quotient_dim(V, W, res.cocycle_basis)
    assert res.h_dim == h_dim == len(res.representative_classes)
    assert res.coboundary_basis == b_basis
    assert res.representative_classes == reps


def test_h2_raises_when_a_coboundary_leaves_z2(monkeypatch):
    # boson cutoff 2: B2 = Z2, so without one cocycle some coboundary is outside
    V, W = _setting("free-boson", 2)
    assert compute_h2(V, W).h_dim == 0
    z_basis = compute_z2(V, W)
    monkeypatch.setattr(cohomology, "compute_z2", lambda V, W, rank_bound: z_basis[1:])
    with pytest.raises(SubspaceNotContained):
        compute_h2(V, W)
    with pytest.raises(SubspaceNotContained):
        _h2_by_quotient_dim(V, W, z_basis[1:])


def test_representatives_are_cocycles_and_not_coboundaries():
    V, W = _setting("dual-numbers")
    res = compute_h2(V, W)
    for rep in res.representative_classes:
        assert cocycle_residual(V, W, rep) == {}
        assert is_coboundary(V, W, rep) is None
    # and they are independent modulo the coboundaries
    z_slots = [p.slots() for p in res.cocycle_basis]
    b_slots = [p.slots() for p in res.coboundary_basis]
    r_slots = [p.slots() for p in res.representative_classes]
    assert quotient_dim(z_slots, b_slots + r_slots) == 0


def test_is_coboundary_round_trip_and_rejection():
    rng = random.Random(20261019)
    cases = [(p, None) for p in EXACT_PRESETS] + [("free-boson", 2), ("free-boson", 3)]
    for name, cutoff in cases:
        V, W = _setting(name, cutoff)
        gs = vacuum_killing_basis(V, W) if cutoff is None else []
        gs += [_random_vacuum_killing(V, W, rng) for _ in range(2)]
        for g in gs:
            psi = coboundary(V, W, g)
            g2 = is_coboundary(V, W, psi)
            assert g2 is not None
            assert g2.column(V.vacuum) == {}
            assert coboundary(V, W, g2) == psi
            if name == "free-boson":              # H1 = 0: the shear is unique
                assert g2 == g
        if name == "free-boson":
            assert compute_der(V, W).h_dim == 0
    V, W = _setting("split-pair")
    bad = TwoCochain.from_entries(V, W, {("one", -1, "u"): {"u": F(1)}})
    with pytest.raises(NotACocycle):
        is_coboundary(V, W, bad)


def _probe_z2(V, W):
    """Z2 the slow way: one residual per elementary cochain, one column each."""
    slots = cochain_slots(V, W)
    rows: dict = {}
    for slot in slots:
        probe = TwoCochain.from_slots(V, W, {slot: F(1)})
        for coord, value in cocycle_residual(V, W, probe).items():
            rows.setdefault(coord, {})[slot] = value
    ech = Echelon(slots)
    ech.extend((row, f"{axiom} {inst} @ {fiber}")
               for (axiom, inst, fiber), row in rows.items())
    return [TwoCochain.from_slots(V, W, vec) for vec in ech.kernel()]


def _random_lawful_algebra(rng, w):
    """A seeded commutative graded algebra with a derivation, in a rescaled basis.

    For w = 0 or 1: Q[x]/(x^k) with x in weight w, and D x = c x^2 when
    w = 1.  For w = None: the square-zero ideal span(x, y), x in weight 0 and
    y in weight 1, with D x = c y.  Random rescalings make the structure
    constants generic.
    """
    def q():
        return F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))

    c = q()
    if w is not None:
        k = rng.randint(2, 4)
        lam = [F(1)] + [q() for _ in range(1, k)]
        labels = ("one",) + tuple(f"x{i}" for i in range(1, k))
        products = {
            (labels[i], labels[j]):
                {labels[i + j]: lam[i] * lam[j] / lam[i + j]} if i + j < k else {}
            for i in range(k) for j in range(i, k)
        }
        derivation = {
            labels[i]: {labels[i + 1]: lam[i] * i * c / lam[i + 1]}
            for i in range(1, k - 1) if w == 1
        }
        spec = CommDiffAlgebraSpec(labels, tuple(i * w for i in range(k)), "one",
                                   products, derivation)
    else:
        products = {("one", a): {a: F(1)} for a in ("one", "x", "y")}
        products.update({(a, b): {} for a, b in (("x", "x"), ("x", "y"), ("y", "y"))})
        spec = CommDiffAlgebraSpec(("one", "x", "y"), (0, 0, 1), "one", products,
                                   {"x": {"y": c}})
    return from_commutative_algebra(spec)


def _random_lawful_algebras():
    rng = random.Random(20261018)
    return [_random_lawful_algebra(rng, w) for w in (0, 1, None, 0, 1, None)]


@pytest.mark.parametrize(
    "name, cutoff",
    [(p, c) for p in EXACT_PRESETS for c in (None, 3)]
    + [("free-boson", 1), ("free-boson", 2), ("random", None)],
)
def test_z2_equals_the_probe_oracle(name, cutoff):
    algebras = (_random_lawful_algebras() if name == "random"
                else [build_preset(name, cutoff)])
    for V in algebras:
        W = adjoint_module(V)
        assert [z.slots() for z in compute_z2(V, W)] == \
            [z.slots() for z in _probe_z2(V, W)]


def _skipped(V, W, psi):
    """(axiom, instance) of every skipped check of the extension along psi."""
    report = check_all(build_extension(V, W, psi).total, detail=True)
    return {(axiom, inst)
            for axiom, inst, _why in listing.expand(report.skipped_instances)}


@pytest.mark.parametrize("name, cutoff",
                         [(p, 3) for p in EXACT_PRESETS] + [("free-boson", 1)])
def test_skipped_instances_do_not_depend_on_psi(name, cutoff):
    # Z2 from one symbolic run is exact only if psi never decides a skip
    rng = random.Random(20261020)
    V, W = _setting(name, cutoff)
    slots = cochain_slots(V, W)
    base = _skipped(V, W, TwoCochain.zero(V, W))
    assert bool(base) == (name == "free-boson")
    symbolic = {s: JetScalar(0, {i: 1}) for i, s in enumerate(slots)}
    dense = {s: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) for s in slots}
    cochains = [symbolic, dense] + [{s: F(1)} for s in slots]
    for vec in cochains:
        assert _skipped(V, W, TwoCochain.from_slots(V, W, vec)) == base


def test_h2_on_the_boson_at_cutoff_3():
    V, W = _setting("free-boson", 3)
    res = compute_h2(V, W)
    assert (len(res.cocycle_basis), len(res.coboundary_basis), res.h_dim) == (14, 14, 0)
    # H1 = 0, so delta is injective on vacuum-killing maps: every one is picked
    assert res.coboundary_basis == [coboundary(V, W, g) for g in vacuum_killing_basis(V, W)]


def test_h2_on_graded_nilpotent_is_rigid():
    # no cocycles at all, so nothing to represent and nothing to deform
    V, W = _setting("graded-nilpotent")
    assert compute_z2(V, W) == []
    res = compute_h2(V, W)
    assert (res.h_dim, res.cocycle_basis, res.representative_classes) == (0, [], [])


def _dual_numbers_with_a_changed_action(reverse: bool):
    """The dual numbers' adjoint module plus eps_{-1} eps = eps: Jacobi fails.

    ``reverse`` enters the action's entries in the opposite order, which
    changes the order in which the checker sums its terms.
    """
    V = build_preset("dual-numbers")
    sp = V.space
    eps = sp.index["eps"]
    entries = list(V.Y.iter_entries())
    Y_W = ModeFamily(sp, sp, sp)
    for u, n, w, vec in (entries[::-1] if reverse else entries):
        Y_W.set_entry(u, n, w, vec)
    Y_W.set_entry(eps, -1, eps, {eps: F(1)})
    return V, VAModule(sp, Y_W, translation_map(V))


def test_module_axioms_fail_names_sorted_coordinates():
    messages = []
    for reverse in (False, True):
        V, W = _dual_numbers_with_a_changed_action(reverse)
        with pytest.raises(ModuleAxiomsFail) as exc:
            compute_z2(V, W)
        coords = exc.value.coords
        assert len(coords) == 12 and coords == sorted(coords)
        assert str(exc.value).endswith(
            "residual at " + ", ".join(map(str, coords[:3])) + " (+9 more)")
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
