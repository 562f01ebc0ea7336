"""Graded spaces, graded maps, mode tables and the skew/translation helpers."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from vertexcoh.axioms import translation_map
from vertexcoh.presets import (
    adjoint_module,
    build_preset,
    truncated_free_boson,
)
from vertexcoh.spaces import (
    GradedMap,
    GradedSpace,
    ModeFamily,
    NoVacuum,
    TruncationBreach,
    VacuumWrongWeight,
    WeightRuleViolation,
    build_vertex_algebra,
    exp_T,
    mode_apply,
    mode_triples,
    skew_mode,
    viadd,
    vscale,
    vsub,
)

F = Fraction


# ---------------------------------------------------------------------------
# spaces
# ---------------------------------------------------------------------------

def test_graded_space_sorts_by_weight_and_keeps_input_order_within_weight():
    sp = GradedSpace([("b", 1), ("a", 0), ("c", 1), ("d", 0)])
    assert sp.labels == ("a", "d", "b", "c")
    assert sp.weights == (0, 0, 1, 1)
    assert sp.index == {"a": 0, "d": 1, "b": 2, "c": 3}
    assert sp.dims() == {0: 2, 1: 2}
    assert sp.dim(0) == 2 and sp.dim(5) == 0
    assert sp.min_weight == 0 and sp.cutoff == 1 and sp.tier == "exact"
    assert sp.by_weight == {0: (0, 1), 1: (2, 3)}


def test_graded_space_rejects_duplicates_and_bad_bounds():
    with pytest.raises(ValueError):
        GradedSpace([("a", 0), ("a", 1)])
    with pytest.raises(ValueError, match=r"^weight 3 is above the cutoff 2$"):
        GradedSpace([("a", 0), ("b", 3)], cutoff=2)
    with pytest.raises(ValueError, match=r"^weight 0 is below the bottom weight 1$"):
        GradedSpace([("a", 0)], min_weight=1)
    # an inferred bottom weight above the cutoff names the weight, not an empty range
    with pytest.raises(ValueError, match=r"^weight 5 is above the cutoff 2$"):
        GradedSpace([("m", 5)], tier="truncated", cutoff=2)
    # an empty space has no weight to break either bound
    assert len(GradedSpace([], cutoff=2, min_weight=3)) == 0
    with pytest.raises(ValueError):
        GradedSpace([("a", 0)], tier="approximate")


def test_graded_space_helpers():
    sp = GradedSpace([("a", 0), ("b", 1)])
    assert sp.basis_vec("b") == {1: F(1)}
    assert sp.basis_vec(0) == {0: F(1)}
    assert sp.describe({1: F(2), 0: F(-1)}) == {"a": F(-1), "b": F(2)}
    wider = sp.with_cutoff(4)
    assert wider.cutoff == 4 and wider.labels == sp.labels


def _gapped_space(rng, prefix: str, tier: str) -> GradedSpace:
    """A random space whose weights span [lo, lo + 6] with lo < 0, one
    interior weight left out, and bounds at or beyond the populated ones."""
    lo = rng.randint(-3, -1)
    gap = rng.randint(lo + 1, lo + 5)
    weights = [lo, lo + 6] + [rng.choice([w for w in range(lo, lo + 7) if w != gap])
                              for _ in range(rng.randint(0, 4))]
    return GradedSpace([(f"{prefix}{i}", w) for i, w in enumerate(weights)], tier=tier,
                       min_weight=lo - rng.randint(0, 1), cutoff=lo + 6 + rng.randint(0, 2))


@pytest.mark.parametrize("seed", range(8))
def test_mode_triples_match_a_brute_force_window(seed):
    rng = random.Random(seed)
    for tier in ("exact", "truncated"):
        left, right, space = (_gapped_space(rng, p, tier) for p in "abc")
        for shift, fringe in itertools.product((0, 1), (0, 1)):
            lo, hi = space.min_weight, space.cutoff + fringe
            want = [
                (a, n, b)
                for a, wa in enumerate(left.weights)
                for b, wb in enumerate(right.weights)
                for n in range(-60, 60)
                if lo <= wa + wb + shift - n - 1 <= hi
            ]
            assert want
            assert list(mode_triples(left, right, space, shift, fringe)) == want


def test_vector_helpers():
    a = {0: F(1), 1: F(2)}
    b = {1: F(-2), 2: F(3)}
    assert vsub(a, a) == {}
    assert vscale(F(2), b) == {1: F(-4), 2: F(6)}
    assert vscale(F(0), b) == {}


# ---------------------------------------------------------------------------
# graded maps
# ---------------------------------------------------------------------------

def _three_step_space():
    return GradedSpace([("x0", 0), ("x1", 1), ("x2", 2)])


def test_graded_map_degree_enforced_and_apply_compose():
    sp = _three_step_space()
    t = GradedMap(sp, sp, 1)
    t.set_entry(1, 0, F(1))          # x0 -> x1
    t.set_entry(2, 1, F(2))          # x1 -> 2 x2
    with pytest.raises(WeightRuleViolation):
        t.set_entry(0, 0, F(1))      # degree 1 cannot fix weight
    assert t.apply({0: F(3)}) == {1: F(3)}
    t2 = t.compose(t)
    assert t2.degree == 2
    assert t2.apply({0: F(1)}) == {2: F(2)}
    assert exp_T(t, 2, {0: F(1)}) == {2: F(1)}      # (1/2!) T^2
    assert exp_T(t, 0, {0: F(5)}) == {0: F(5)}
    assert list(t.items_sorted()) == [(0, 1, F(1)), (1, 2, F(2))]
    assert not t.is_zero() and GradedMap(sp, sp, 1).is_zero()


def test_graded_map_undefined_weights_raise_breach():
    sp = GradedSpace([("x0", 0), ("x1", 1)], tier="truncated", cutoff=1)
    t = GradedMap(sp, sp, 1)
    assert t.undefined_source_weights == frozenset({1})
    t.set_entry(1, 0, F(1))
    assert t.apply({0: F(1)}) == {1: F(1)}
    with pytest.raises(TruncationBreach) as err:
        t.apply({1: F(1)})
    assert err.value.weight == 2
    assert t.apply({1: F(0), 0: F(1)}) == {1: F(1)}  # zero coefficients skipped


def test_degree_zero_map_into_a_lower_truncated_target_breaks_above_its_cutoff():
    # Only a hand-built module can sit at a cutoff below some algebra weight
    # (a module file takes the algebra's cutoff).  A degree-0 map V -> W is
    # then undefined above W's cutoff, as a translation is at the top weight:
    # applying it there raises, where an empty column once read as zero.
    sp = truncated_free_boson(3).space
    low = [(sp.label_of(i), sp.weight_of(i)) for i in range(len(sp)) if sp.weight_of(i) <= 1]
    target = GradedSpace(low, tier="truncated", cutoff=1)
    g = GradedMap(sp, target, 0)
    assert g.undefined_source_weights == frozenset({2, 3})
    (a,) = sp.by_weight[1]
    g.set_entry(target.index[sp.label_of(a)], a, 2)
    assert g.apply({a: 1}) == {target.index[sp.label_of(a)]: 2}
    with pytest.raises(TruncationBreach) as err:
        g.apply({sp.by_weight[2][0]: 1})
    assert err.value.weight == 2
    exact_target = GradedSpace(low, cutoff=1)
    assert GradedMap(sp, exact_target, 0).undefined_source_weights == frozenset()


# ---------------------------------------------------------------------------
# mode families
# ---------------------------------------------------------------------------

def test_mode_family_weight_rule():
    sp = _three_step_space()
    fam = ModeFamily(sp, sp, sp)
    fam.set_entry(0, -1, 1, {1: F(1)})       # wt 0 + 1 - (-1) - 1 = 1 ok
    with pytest.raises(WeightRuleViolation):
        fam.set_entry(0, -1, 1, {2: F(1)})   # wt 2 target in a weight-1 slot
    fam.set_entry(0, -2, 1, {2: F(4)})
    assert fam.entry(0, -2, 1) == {2: F(4)}
    assert fam.entry(0, 0, 0) is None
    assert sorted(n for (u, n, v) in fam.entries if (u, v) == (0, 1)) == [-2, -1]
    fam.set_entry(0, -1, 1, {})              # deleting by setting empty
    assert fam.entry(0, -1, 1) is None
    assert list(fam.iter_entries()) == [(0, -2, 1, {2: F(4)})]


def test_mode_apply_is_bilinear():
    V = build_preset("graded-nilpotent")
    sp, Y = V.space, V.Y
    rng = random.Random(19)
    n_basis = len(sp)
    def rand_vec():
        return {i: F(rng.randint(-4, 4)) for i in range(n_basis) if rng.random() < 0.7}
    for _ in range(60):
        u1, u2, v = rand_vec(), rand_vec(), rand_vec()
        a, b = F(rng.randint(-3, 3)), F(rng.randint(-3, 3))
        n = rng.randint(-3, 2)
        lhs = mode_apply(Y, viadd(vscale(a, u1), b, u2), n, v)
        rhs = viadd(vscale(a, mode_apply(Y, u1, n, v)),
                    b, mode_apply(Y, u2, n, v))
        assert lhs == rhs
        lhs = mode_apply(Y, v, n, viadd(vscale(a, u1), b, u2))
        rhs = viadd(vscale(a, mode_apply(Y, v, n, u1)),
                    b, mode_apply(Y, v, n, u2))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# algebras and vacuums
# ---------------------------------------------------------------------------

def test_build_vertex_algebra_vacuum_validation():
    sp = GradedSpace([("one", 0), ("eps", 1)])
    entries = {("one", -1, "one"): {"one": F(1)}}
    with pytest.raises(NoVacuum):
        build_vertex_algebra(sp, "missing", entries)
    sp2 = GradedSpace([("one", 1), ("z", 0)])
    with pytest.raises(VacuumWrongWeight):
        build_vertex_algebra(sp2, "one", {})
    with pytest.raises(WeightRuleViolation):
        build_vertex_algebra(sp, "one", {("one", -1, "one"): {"eps": F(1)}})
    V = build_vertex_algebra(sp, "one", entries)
    assert V.vacuum_vec() == {0: F(1)}


def test_entries_by_labels_round_trip():
    V = build_preset("dual-numbers")
    table = V.entries_by_labels()
    assert table[("eps", -1, "one")] == {"eps": F(1)}
    rebuilt = build_vertex_algebra(V.space, "one", table)
    assert rebuilt.same_content(V)


# ---------------------------------------------------------------------------
# skew_mode
# ---------------------------------------------------------------------------

def test_skew_mode_on_commutative_preset_recovers_opposite_product():
    # with T = 0 and all weights 0, skew of the (-1)-mode is just v.w = w.v
    V = build_preset("dual-numbers")
    W = adjoint_module(V)
    sp = V.space
    for wl in sp.labels:
        for vl in sp.labels:
            got = skew_mode(W, sp.basis_vec(wl), -1, sp.basis_vec(vl))
            expect = mode_apply(V.Y, sp.basis_vec(vl), -1, sp.basis_vec(wl))
            assert got == expect
            assert skew_mode(W, sp.basis_vec(wl), 0, sp.basis_vec(vl)) == {}


def test_skew_mode_against_vacuum_gives_translation_series():
    # u_n vacuum = T^(-n-1) u / (-n-1)!  — visible on the boson where T != 0
    V = truncated_free_boson(3)
    W = adjoint_module(V)
    tmap = translation_map(V)
    sp = V.space
    vac = V.vacuum_vec()
    for u in range(len(sp)):
        wu = sp.weight_of(u)
        for n in range(-1, wu - 1 - sp.cutoff - 1, -1):
            got = skew_mode(W, sp.basis_vec(u), n, vac)
            assert got == exp_T(tmap, -n - 1, sp.basis_vec(u))
            # the opposite direction reconstructs the identity axiom instead
            forced_id = skew_mode(W, vac, n, sp.basis_vec(u))
            assert forced_id == (sp.basis_vec(u) if n == -1 else {})


def test_skew_mode_is_an_involution_on_checked_presets():
    for name in ("dual-numbers", "split-pair", "graded-nilpotent"):
        V = build_preset(name)
        W = adjoint_module(V)
        sp = V.space
        for u in range(len(sp)):
            for v in range(len(sp)):
                top = sp.weight_of(u) + sp.weight_of(v) - 1 - sp.min_weight
                lo = sp.weight_of(u) + sp.weight_of(v) - 1 - sp.cutoff
                for n in range(lo, top + 1):
                    direct = V.Y.entry(u, n, v) or {}
                    forced = skew_mode(W, sp.basis_vec(u), n, sp.basis_vec(v))
                    back = skew_mode(W, sp.basis_vec(v), n, sp.basis_vec(u))
                    assert forced == (V.Y.entry(v, n, u) or {})
                    assert back == direct


def test_skew_mode_breaches_above_cutoff():
    V = truncated_free_boson(2)
    W = adjoint_module(V)
    sp = V.space
    a1 = sp.basis_vec("a1")
    a2 = sp.basis_vec("a2")
    with pytest.raises(TruncationBreach) as err:
        skew_mode(W, a2, -2, a1)   # result weight 2 + 1 + 2 - 1 = 4 > 2
    assert err.value.weight == 4
    assert skew_mode(W, {}, -2, a1) == {}
