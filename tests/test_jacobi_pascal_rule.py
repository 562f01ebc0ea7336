"""The Jacobi residual obeys Pascal's rule in (p, q, r).

Write J(p, q, r) for the Jacobi residual of one (u, v, w).  Splitting
C(p+1, i) = C(p, i) + C(p, i-1) in each of its three sums gives

    J(p, q, r) = J(p+1, q, r-1) - J(p, q+1, r-1)

for any mode table, lawful or not, over any commutative ring.  So wherever
``reference_jacobi``, which evaluates every instance on its own, evaluated
both right-hand instances, its residual at (p, q, r) must be their
difference exactly.  ``axioms._gen_jacobi`` counts a triple's later rows as
passes by this rule when its first in-window row is zero; that needs each
later in-window instance's two right-hand instances to be in-window
instances of the row below, which is checked on every window the kernel
builds.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from test_count_reports import seeded_cochains
from test_integral_coefficients import _corrupted
from test_jacobi_kernel import _restricted_adjoint, reference_jacobi
from vertexcoh import axioms
from vertexcoh.axioms import _JacobiWindow, _fringe, _gen_jacobi
from vertexcoh.cohomology import TwoCochain, cochain_slots
from vertexcoh.extensions import build_deformation, build_extension
from vertexcoh.presets import PRESETS, adjoint_module, build_preset
from vertexcoh.scalars import JetScalar
from vertexcoh.spaces import TruncationBreach


def _minus(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) - c
    return {k: c for k, c in out.items() if c}


def pascal_counts(V) -> tuple[int, int, int]:
    """(instances the rule derives, instances evaluated, nonzero residuals)
    of V's Jacobi check; asserts the rule on every derivable instance."""
    derived = evaluated = failing = 0
    group, seen = None, {}
    for _axiom, inst, res in reference_jacobi(V.Y, V.Y, V.space.tier):
        if isinstance(res, TruncationBreach):
            continue
        # instances come grouped by (u, v, w), r ascending
        if inst[:3] != group:
            group, seen = inst[:3], {}
        p, q, r = inst[3:]
        res = {k: c for k, c in res.items() if c}
        seen[p, q, r] = res
        evaluated += 1
        failing += bool(res)
        left, right = seen.get((p + 1, q, r - 1)), seen.get((p, q + 1, r - 1))
        if left is not None and right is not None:
            derived += 1
            assert res == _minus(left, right), inst
    return derived, evaluated, failing


@pytest.mark.parametrize("name", sorted(p for p in PRESETS if p != "free-boson"))
def test_exact_presets(name):
    derived, _evaluated, failing = pascal_counts(build_preset(name))
    assert derived > 0 and failing == 0


# the counts pin the window, so the rule is held on every instance it reaches
@pytest.mark.parametrize("cutoff, counts", [(2, (964, 1588, 0)), (3, (9185, 14014, 0)),
                                            (4, (66955, 97795, 0))])
def test_free_boson(cutoff, counts):
    assert pascal_counts(build_preset("free-boson", cutoff)) == counts


def test_cutoff_3_extension_total():
    V = build_preset("free-boson", 3)
    W = adjoint_module(V)
    psi = seeded_cochains(V, W, "pascal-rule:boson-3")["cob"]
    assert pascal_counts(build_extension(V, W, psi).total) == (73480, 112112, 0)


def test_jet_deformed_table():
    # a cochain on random slots is no cocycle: the residuals' slopes are nonzero
    rng = random.Random(20261020)
    V = build_preset("free-boson", 3)
    W = adjoint_module(V)
    psi = TwoCochain.from_slots(V, W, {s: Fraction(rng.choice((-3, -1, 1, 3)), 2)
                                       for s in rng.sample(cochain_slots(V, W), 8)})
    deformed = build_deformation(V, psi).deformed
    assert any(isinstance(c, JetScalar) for vec in deformed.Y.entries.values()
               for c in vec.values())
    derived, _evaluated, failing = pascal_counts(deformed)
    assert derived > 0 and failing > 0


def test_corrupted_cutoff_4_table():
    V = _corrupted(build_preset("free-boson", 4), 2)
    assert pascal_counts(V) == (66955, 97795, 583)


def _windows_built(monkeypatch, YV, Y_act, fringe) -> list:
    """Every _JacobiWindow one drain of _gen_jacobi builds, with its weights."""
    built = []

    class Recorded(_JacobiWindow):
        __slots__ = ()

        def __init__(self, wu, wv, ww, *rest):
            super().__init__(wu, wv, ww, *rest)
            built.append(((wu, wv, ww), self))

    monkeypatch.setattr(axioms, "_JacobiWindow", Recorded)
    for _item in _gen_jacobi(YV, Y_act, fringe):
        pass
    return built


def _assert_sources_in_window(built, vsp, wsp) -> int:
    """Checks the lemma on every window built; returns how many have later rows."""
    # one window per weight triple and call
    triples = [(a, b, c) for a in set(vsp.weights) for b in set(vsp.weights)
               for c in set(wsp.weights)]
    assert sorted(weights for weights, _w in built) == sorted(triples)
    with_later = 0
    for weights, window in built:
        first, later = ([(p, q, r) for ps, q, r in runs for p in ps]
                        for runs in (window.first, window.later))
        in_window = set(first + later)
        assert len(in_window) == len(first) + len(later) and len(later) == window.n_later
        assert not in_window & {(p, q, r) for ps, q, r, _w in window.skips for p in ps}
        assert len({r for _p, _q, r in first}) <= 1
        for p, q, r in later:
            assert r > first[0][2], weights
            for source in ((p + 1, q, r - 1), (p, q + 1, r - 1)):
                assert source in in_window, (weights, (p, q, r), source)
        with_later += bool(window.later)
    return with_later


@pytest.mark.parametrize("name, cutoff",
                         [(p, None) for p in sorted(PRESETS) if p != "free-boson"]
                         + [("free-boson", c) for c in (1, 2, 3, 4, 5)])
def test_later_rows_have_their_sources_in_the_window(name, cutoff, monkeypatch):
    V = build_preset(name, cutoff)
    built = _windows_built(monkeypatch, V.Y, V.Y, _fringe(V.space))
    assert _assert_sources_in_window(built, V.space, V.space)


def test_later_rows_of_an_extension_total_and_a_restricted_module(monkeypatch):
    V = build_preset("free-boson", 3)
    W = adjoint_module(V)
    total = build_extension(V, W, seeded_cochains(V, W, "pascal-rule:boson-3")["cob"]).total
    built = _windows_built(monkeypatch, total.Y, total.Y, _fringe(total.space))
    assert _assert_sources_in_window(built, total.space, total.space)
    R = _restricted_adjoint(V, 2)
    assert R.space.cutoff < V.space.cutoff
    built = _windows_built(monkeypatch, V.Y, R.Y_W, _fringe(R.space))
    assert _assert_sources_in_window(built, V.space, R.space)

