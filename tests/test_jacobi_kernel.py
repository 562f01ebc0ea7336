"""The Jacobi kernel against the per-instance evaluation it replaced.

``axioms._gen_jacobi`` builds the inner vectors (u_m v)_{s-m} w,
u_{s-m}(v_m w) and v_{s-m}(u_m w) once per (u, v, w) and s = p + q + r,
evaluates the first in-window row r of each (u, v, w), and counts the later
rows as passes by Pascal's rule when that row is all zero; a triple's skips
and derived passes come as one JacobiBlock.  ``reference_jacobi`` is the
kernel as it was before, which evaluated every instance on its own: per
category, in enumeration order, the two must agree on every scalar ring the
checker meets.  The passes are the kernel's evaluated ones and its derived
ones together, the failures carry their residuals, and the skips their
offending weights.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from test_cohomology import _random_lawful_algebras
from test_integral_coefficients import _corrupted, _random_fractional_algebras
from vertexcoh.axioms import JacobiBlock, _gen_jacobi, check_all
from vertexcoh.cohomology import TwoCochain, cochain_slots
from vertexcoh.extensions import build_deformation, build_extension
from vertexcoh.presets import PRESETS, adjoint_module, build_preset
from vertexcoh.scalars import JetScalar, binom
from vertexcoh.spaces import GradedMap, GradedSpace, ModeFamily, TruncationBreach, VAModule
from vertexcoh.spaces import viadd

F = Fraction


def reference_jacobi(YV: ModeFamily, Y_act: ModeFamily, tier: str, axiom: str = "jacobi"):
    """The component identity

        sum_i C(p,i) (u_{r+i} v)_{p+q-i} w
          = sum_i (-1)^i C(r,i) [ u_{p+r-i}(v_{q+i} w)
                                  - (-1)^r v_{q+r-i}(u_{p+i} w) ]

    with u, v in the algebra and w in the acted-on space (the algebra itself
    for the adjoint case).  Enumerates the finite window where every
    intermediate fits under its cutoff and the result weight is admissible,
    plus — on truncated tiers — the depth-1 fringe, yielded as breaches.
    """
    vsp = YV.left
    wsp = Y_act.right
    NV, NW, mwW = vsp.cutoff, wsp.cutoff, wsp.min_weight
    fringe = 1 if tier == "truncated" else 0
    act_entries = Y_act.entries
    act_pairs: dict = {}
    v_pairs: dict = {}
    for pairs, Y in ((act_pairs, Y_act), (v_pairs, YV)):
        for (u, n, v), vec in Y.entries.items():
            pairs.setdefault((u, v), {})[n] = vec
    for u in range(len(vsp)):
        wu = vsp.weight_of(u)
        lu = vsp.label_of(u)
        for v in range(len(vsp)):
            wv = vsp.weight_of(v)
            lv = vsp.label_of(v)
            pm_uv = v_pairs.get((u, v), {})
            r_lo = wu + wv - 1 - NV - fringe
            for w in range(len(wsp)):
                ww = wsp.weight_of(w)
                lw = wsp.label_of(w)
                pm_vw = act_pairs.get((v, w), {})
                pm_uw = act_pairs.get((u, w), {})
                q_lo = wv + ww - 1 - NW - fringe
                p_lo = wu + ww - 1 - NW - fringe
                s_hi = wu + wv + ww - 2 - mwW
                s_lo = wu + wv + ww - 2 - NW
                for r in range(r_lo, s_hi - q_lo - p_lo + 1):
                    Ar = wu + wv - 1 - r
                    for q in range(q_lo, s_hi - p_lo - r + 1):
                        Aq = wv + ww - 1 - q
                        for p in range(max(p_lo, s_lo - q - r), s_hi - q - r + 1):
                            inst = (lu, lv, lw, p, q, r)
                            Ap = wu + ww - 1 - p
                            over = [a for a, cap in ((Ar, NV), (Aq, NW), (Ap, NW))
                                    if a > cap]
                            if over:
                                yield axiom, inst, TruncationBreach(max(over))
                                continue
                            residual: dict = {}
                            for m, ivec in pm_uv.items():
                                i = m - r
                                if i < 0:
                                    continue
                                c = binom(p, i)
                                if not c:
                                    continue
                                on = p + q - i
                                for x, cx in ivec.items():
                                    e = act_entries.get((x, on, w))
                                    if e:
                                        viadd(residual, c * cx, e)
                            for m, ivec in pm_vw.items():
                                i = m - q
                                if i < 0:
                                    continue
                                c = binom(r, i)
                                if not c:
                                    continue
                                sign = -c if i % 2 == 0 else c
                                on = p + r - i
                                for x, cx in ivec.items():
                                    e = act_entries.get((u, on, x))
                                    if e:
                                        viadd(residual, sign * cx, e)
                            for m, ivec in pm_uw.items():
                                i = m - p
                                if i < 0:
                                    continue
                                c = binom(r, i)
                                if not c:
                                    continue
                                sign = c if (i + r) % 2 == 0 else -c
                                on = q + r - i
                                for x, cx in ivec.items():
                                    e = act_entries.get((v, on, x))
                                    if e:
                                        viadd(residual, sign * cx, e)
                            yield axiom, inst, residual


def _categories(stream) -> tuple[list, list, list, list]:
    """(passes, failures with their sorted residuals, skips with their
    offending weights, derived passes) of a Jacobi stream, each in stream
    order; the passes include the derived ones."""
    passes, failures, skips, derived = [], [], [], []
    for axiom, inst, res in stream:
        if type(inst) is JacobiBlock:
            ones = [(axiom, one) for one in inst.passes()]
            derived += ones
            passes += ones
            skips += [(axiom, one, weight) for one, (_kind, weight) in inst.skips()]
        elif isinstance(res, TruncationBreach):
            skips.append((axiom, inst, res.weight))
        elif res:
            failures.append((axiom, inst, sorted(res.items())))
        else:
            passes.append((axiom, inst))
    return passes, failures, skips, derived


def _assert_same_jacobi(YV, Y_act, tier, axiom="jacobi"):
    """The kernel's (passes, failures, skips, derived passes), the first three
    having matched the reference's."""
    new = _categories(_gen_jacobi(YV, Y_act, 1 if tier == "truncated" else 0, axiom))
    assert new[:3] == _categories(reference_jacobi(YV, Y_act, tier, axiom))[:3]
    return new


def _assert_same_on(V):
    return _assert_same_jacobi(V.Y, V.Y, V.space.tier)


# the boson's own cutoff is 4, so its rows are cutoffs 1-4
@pytest.mark.parametrize("name, cutoff",
                         [(p, c) for p in sorted(PRESETS) if p != "free-boson"
                          for c in (None, 3)]
                         + [("free-boson", c) for c in (1, 2, 3, 4)])
def test_presets(name, cutoff):
    V = build_preset(name, cutoff)
    passes, _failures, skips, derived = _assert_same_on(V)
    assert passes   # every preset has Jacobi instances
    assert bool(skips) == (name == "free-boson")
    assert derived  # the later rows of some triple are counted, not evaluated


def test_boson_with_one_structure_constant_changed():
    assert _assert_same_on(_corrupted(build_preset("free-boson", 3), 2))[1]


def test_deformed_boson_tables_over_dual_numbers():
    rng = random.Random(20261201)
    for cutoff, size in ((3, 8), (2, 3)):
        V = build_preset("free-boson", cutoff)
        W = adjoint_module(V)
        slots = cochain_slots(V, W)
        psi = TwoCochain.from_slots(V, W, {s: F(rng.choice((-3, -1, 1, 3)), 2)
                                           for s in rng.sample(slots, size)})
        failures = _assert_same_on(build_deformation(V, psi).deformed)[1]
        assert any(isinstance(c, JetScalar) and c.slopes.get(0)
                   for _a, _i, res in failures for _t, c in res)


def test_the_jet_total_of_compute_z2():
    V = build_preset("free-boson", 2)
    W = adjoint_module(V)
    slots = cochain_slots(V, W)
    psi = TwoCochain.from_slots(V, W, {s: JetScalar(0, {i: 1}) for i, s in enumerate(slots)})
    failures = _assert_same_on(build_extension(V, W, psi).total)[1]
    assert any(isinstance(c, JetScalar) and c.slopes
               for _a, _i, res in failures for _t, c in res)


def _restricted_adjoint(V, cutoff):
    """V acting on its states of weight <= cutoff: a module with a lower cutoff."""
    sp = V.space
    keep = [i for i in range(len(sp)) if sp.weight_of(i) <= cutoff]
    wsp = GradedSpace([(sp.label_of(i), sp.weight_of(i)) for i in keep],
                      tier="truncated", cutoff=cutoff, min_weight=sp.min_weight)
    Y_W = ModeFamily(sp, wsp, wsp)
    for u, n, w, vec in V.Y.iter_entries():
        lw = sp.label_of(w)
        if lw in wsp.index and sp.weight_of(u) + sp.weight_of(w) - n - 1 <= cutoff:
            Y_W.set_entry(u, n, wsp.index[lw],
                          {wsp.index[sp.label_of(t)]: c for t, c in vec.items()})
    return VAModule(wsp, Y_W, GradedMap(wsp, wsp, 1))


def _shifted_adjoint(V, shift):
    """V acting on itself with every module weight raised by ``shift``.

    The weight rule is shift-invariant, so the action is unchanged; only the
    module's bottom weight and cutoff move.
    """
    sp = V.space
    wsp = GradedSpace([(lab, sp.weight_of(i) + shift) for i, lab in enumerate(sp.labels)],
                      tier=sp.tier, cutoff=sp.cutoff + shift,
                      min_weight=sp.min_weight + shift)
    Y_W = ModeFamily(sp, wsp, wsp)
    for u, n, w, vec in V.Y.iter_entries():
        Y_W.set_entry(u, n, w, vec)
    return VAModule(wsp, Y_W, GradedMap(wsp, wsp, 1))


@pytest.mark.parametrize("name, cutoff", [("free-boson", 3), ("graded-nilpotent", None)])
def test_module_jacobi_with_other_windows(name, cutoff):
    V = build_preset(name, cutoff)
    modules = [_shifted_adjoint(V, 1)]
    if name == "free-boson":
        modules.append(_restricted_adjoint(V, 2))
    for W in modules:
        assert (W.space.cutoff, W.space.min_weight) != (V.space.cutoff, V.space.min_weight)
        assert _assert_same_jacobi(V.Y, W.Y_W, W.space.tier, "module-jacobi")[0]


def test_seeded_random_lawful_and_corrupted_tables():
    tables = _random_lawful_algebras() + _random_fractional_algebras()
    for V in tables:
        _assert_same_on(V)
        _assert_same_on(_corrupted(V, F(1, 2)))


def _corruptions(Y: ModeFamily, seed) -> dict:
    """{weight: Y with one seeded entry of that result weight changed}, for
    every weight an entry of Y lands in: a seeded multiple of a basis vector
    of that weight is added to the entry."""
    rng = random.Random(seed)
    usp, sp = Y.left, Y.right
    by_weight: dict = {}
    for u, n, v in sorted(Y.entries):
        by_weight.setdefault(usp.weight_of(u) + sp.weight_of(v) - n - 1, []).append((u, n, v))
    out = {}
    for weight, keys in sorted(by_weight.items()):
        key = rng.choice(keys)
        vec = dict(Y.entries[key])
        viadd(vec, F(rng.choice((-3, -1, 1, 2)), rng.choice((1, 2))),
              {rng.choice(sp.by_weight[weight]): 1})
        out[weight] = Y.copy()
        out[weight].set_entry(*key, vec)
    return out


@pytest.mark.parametrize("cutoff", [3, 4])
def test_single_entry_corruptions_of_every_weight(cutoff):
    V = build_preset("free-boson", cutoff)
    tables = _corruptions(V.Y, f"jacobi-kernel:{cutoff}")
    assert sorted(tables) == list(range(cutoff + 1))
    failing = sum(bool(_assert_same_jacobi(Y, Y, "truncated")[1]) for Y in tables.values())
    assert failing >= cutoff


def test_a_corrupted_module_table():
    V = build_preset("free-boson", 3)
    W = adjoint_module(V)
    for weight, Y_W in _corruptions(W.Y_W, "jacobi-kernel:module").items():
        failures = _assert_same_jacobi(V.Y, Y_W, W.space.tier, "module-jacobi")[1]
        assert failures or not weight, weight


def test_a_changed_entry_is_seen_by_the_next_check():
    # windows are built per call: the second run must read the new entry
    V = build_preset("free-boson", 3)
    first = check_all(V)
    assert first.verdict == "pass-within-window"
    a1, a2 = V.space.index["a1"], V.space.index["a2"]
    V.Y.set_entry(a1, 2, a2, {t: 3 * c for t, c in V.Y.entries[a1, 2, a2].items()})
    second = check_all(V)
    assert second.verdict == "fail"
    assert any(axiom == "jacobi" for axiom, _inst, _res in second.failed)
    assert check_all(V).failed == second.failed

