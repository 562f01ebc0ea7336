"""The Jacobi kernel against the per-instance evaluation it replaced.

``axioms._gen_jacobi`` builds the inner vectors (u_m v)_{s-m} w,
u_{s-m}(v_m w) and v_{s-m}(u_m w) once per (u, v, w) and s = p + q + r, and
combines them per instance.  ``reference_jacobi`` is the kernel as it was
before, which re-ran the inner loop for every instance: the two must yield
the same stream, instance by instance, over every scalar ring the checker
meets.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import listing
from test_cohomology import _random_lawful_algebras
from test_integral_coefficients import _corrupted, _random_fractional_algebras
from vertexcoh.axioms import _gen_jacobi
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


def _stream(gen) -> list:
    """(axiom, instance, breach weight or sorted residual) for every instance,
    runs of breaches expanded."""
    return [
        (axiom, inst, ("breach", res.weight) if isinstance(res, TruncationBreach)
         else sorted(res.items()))
        for axiom, inst, res in listing.expand(gen)
    ]


def _assert_same_jacobi(YV, Y_act, tier, axiom="jacobi"):
    new = _stream(_gen_jacobi(YV, Y_act, 1 if tier == "truncated" else 0, axiom))
    old = _stream(reference_jacobi(YV, Y_act, tier, axiom))
    assert new == old
    return new


def _assert_same_on(V):
    return _assert_same_jacobi(V.Y, V.Y, V.space.tier)


# the boson's own cutoff is 4, so its rows are cutoffs 1-4
@pytest.mark.parametrize("name, cutoff",
                         [(p, c) for p in sorted(PRESETS) if p != "free-boson"
                          for c in (None, 3)]
                         + [("free-boson", c) for c in (1, 2, 3, 4)])
def test_presets(name, cutoff):
    stream = _assert_same_on(build_preset(name, cutoff))
    assert stream   # every preset has Jacobi instances
    if name == "free-boson":
        assert any(res[0] == "breach" for _a, _i, res in stream)


def test_boson_with_one_structure_constant_changed():
    stream = _assert_same_on(_corrupted(build_preset("free-boson", 3), 2))
    assert any(res and res[0] != "breach" for _a, _i, res in stream)


def test_deformed_boson_tables_over_dual_numbers():
    rng = random.Random(20261201)
    for cutoff, size in ((3, 8), (2, 3)):
        V = build_preset("free-boson", cutoff)
        W = adjoint_module(V)
        slots = cochain_slots(V, W)
        psi = TwoCochain.from_slots(V, W, {s: F(rng.choice((-3, -1, 1, 3)), 2)
                                           for s in rng.sample(slots, size)})
        stream = _assert_same_on(build_deformation(V, psi).deformed)
        assert any(isinstance(c, JetScalar) and c.slopes.get(0)
                   for _a, _i, res in stream if res and res[0] != "breach" for _t, c in res)


def test_the_jet_total_of_compute_z2():
    V = build_preset("free-boson", 2)
    W = adjoint_module(V)
    slots = cochain_slots(V, W)
    psi = TwoCochain.from_slots(V, W, {s: JetScalar(0, {i: 1}) for i, s in enumerate(slots)})
    stream = _assert_same_on(build_extension(V, W, psi).total)
    assert any(isinstance(c, JetScalar) and c.slopes
               for _a, _i, res in stream if res and res[0] != "breach" for _t, c in res)


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
        stream = _assert_same_jacobi(V.Y, W.Y_W, W.space.tier, "module-jacobi")
        assert stream


def test_seeded_random_lawful_and_corrupted_tables():
    tables = _random_lawful_algebras() + _random_fractional_algebras()
    for V in tables:
        _assert_same_on(V)
        _assert_same_on(_corrupted(V, F(1, 2)))
