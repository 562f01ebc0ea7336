"""Elimination that stops once the rank is settled, and the lazy delta rows.

Echelon.extend stops drawing rows at full column rank, and once a rank bound
is reached it checks each further row exactly against the kernel read off
the echelon instead of reducing it.  Every answer here is compared with full
elimination (one Echelon.insert per row) and with the dense oracle, planted
rows check that the verification pass really decides, and row counts guard
that compute_der and is_coboundary build only the delta rows they need.
compute_z2 streams its residual into the same elimination: a planted
coordinate checks that the stream is drained past full rank, and a peak-RSS
guard that it is never held.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import pytest

import oracles as orc
from test_cohomology import EXACT_PRESETS, _random_lawful_algebras
from test_report_emission import _peak_rss_mb, linux_only
from vertexcoh import cohomology
from vertexcoh.axioms import translation_map
from vertexcoh.cohomology import (
    ModuleAxiomsFail,
    NotACocycle,
    TwoCochain,
    _delta_unknowns,
    _right_lookup,
    coboundary,
    cochain_slots,
    cocycle_residual,
    compute_der,
    compute_h2,
    compute_z2,
    derivation_system,
    is_coboundary,
    vacuum_killing_basis,
)
from vertexcoh.linalg import Echelon, rref, solve_affine
from vertexcoh.presets import PRESETS, adjoint_module, build_preset, truncated_free_boson
from vertexcoh.scalars import JetScalar
from vertexcoh.spaces import GradedMap, VAModule, skew_mode

F = Fraction


# ---------------------------------------------------------------------------
# the routine on seeded random systems
# ---------------------------------------------------------------------------

def _system(rows, n):
    """(ids, tagged rows) of the dense ``rows`` over n unknowns."""
    return [("x", i) for i in range(n)], [
        ({("x", i): c for i, c in enumerate(row) if c}, f"row{r}")
        for r, row in enumerate(rows)]


def _kernel(ids, rows, bound=None):
    ech = Echelon(ids)
    ech.extend(rows, bound)
    return ech.kernel()


def _affine(rows, rhs):
    """(row, b, tag) triples of tagged rows and their right-hand sides."""
    return [(row, b, tag) for (row, tag), b in zip(rows, rhs)]


def _combinations(rng, base, count):
    """``count`` random rational combinations of the dense rows in ``base``."""
    n = len(base[0])
    out = []
    for _ in range(count):
        coeffs = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in base]
        out.append([sum(c * row[i] for c, row in zip(coeffs, base)) for i in range(n)])
    return out


def _random_dense(rng, rank, n):
    return [[F(rng.randint(-4, 4)) if rng.random() < 0.6 else F(0) for _ in range(n)]
            for _ in range(rank)]


def _systems(seed):
    """(dense rows, n) with full rank reached early, with a nonzero kernel,
    and unstructured small ones."""
    rng = random.Random(seed)
    out = []
    for _ in range(12):
        n = rng.randint(1, 7)
        out.append((_combinations(rng, _random_dense(rng, n + 2, n), 4 * n + 3), n))
        rank = rng.randint(0, n - 1) if n > 1 else 0
        base = _random_dense(rng, rank, n) if rank else [[F(0)] * n]
        out.append((_combinations(rng, base, rng.randint(0, 3 * n + 2)), n))
        out.append((_random_dense(rng, rng.randint(0, 9), n), n))
    return out


def _full_elimination(ids, rows):
    """The reference: every row inserted, none skipped."""
    ech = Echelon(ids)
    for row, tag in rows:
        ech.insert(row, tag)
    return ech


def _dense_kernel(rows, n):
    return [{("x", i): c for i, c in enumerate(vec) if c}
            for vec in orc.kernel_dense(rows, n)]


def _in_exact_form(vectors):
    """Every value an int or a non-integral Fraction: back-substitution
    leaves integral Fractions such as Fraction(3, 1) in older pivot rows."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for vec in vectors for c in vec.values())


def test_kernel_equals_full_elimination_and_the_dense_oracle():
    for rows, n in _systems(20261019):
        ids, tagged = _system(rows, n)
        reference = _full_elimination(ids, tagged)
        rank = len(reference.pivots)
        want = reference.kernel()
        assert want == _dense_kernel(rows, n)
        assert _in_exact_form(want), rows
        want_rref = rref(ids, tagged, n + 1)        # a bound never reached
        for bound in (None, rank, max(rank - 1, 0), 0, n + 1):
            got_kernel = _kernel(ids, tagged, bound)
            assert got_kernel == want and _in_exact_form(got_kernel), (rows, bound)
            assert rref(ids, tagged, bound) == want_rref
            ech = Echelon(ids)
            ech.extend(tagged, bound)
            assert ech.pivots == reference.pivots


def test_full_rank_stops_drawing_rows():
    rng = random.Random(7)
    for n in (1, 3, 6):
        rows = _combinations(rng, _random_dense(rng, n + 2, n), 10 * n)
        ids, tagged = _system(rows, n)
        assert orc.rank_dense(rows) == n
        drawn = []

        def source():
            for item in tagged:
                drawn.append(item)
                yield item

        ech = Echelon(ids)
        ech.extend(source())
        # the last row drawn is the one that completed the rank
        assert len(ech.pivots) == n
        assert orc.rank_dense(rows[:len(drawn) - 1]) == n - 1
        assert len(drawn) < len(rows)
        assert ech.kernel() == []


def test_solve_affine_equals_the_dense_oracle():
    rng = random.Random(17)
    for rows, n in _systems(20261020):
        names, tagged = _system(rows, n)
        x0 = {u: F(rng.randint(-5, 5), rng.randint(1, 3)) for u in names}
        rhs = [sum(row.get(u, 0) * x0[u] for u in names) for row, _tag in tagged]
        sol = solve_affine(names, _affine(tagged, rhs))
        red, pivots = orc.rref_dense([r + [b] for r, b in zip(rows, rhs)])
        assert sol == {names[pc]: r[-1] for r, pc in zip(red, pivots) if r[-1]}
        assert _in_exact_form([sol]), rows
        if orc.rank_dense(rows) == n:               # full rank: the solution is x0
            assert sol == {u: c for u, c in x0.items() if c}
        # a row inconsistent with x0, after everything else: no row after it
        # is drawn, whether or not the kernel is {0} by then
        if rows:
            _names, bad = _system(rows + [rows[-1]] + rows, n)
            drawn = []
            triples = _affine(bad, rhs + [rhs[-1] + 1] + rhs)
            assert solve_affine(names, (drawn.append(t) or t for t in triples)) is None
            assert len(drawn) == len(rows) + 1


def test_an_inconsistent_row_after_full_rank_gives_none():
    rng = random.Random(23)
    n = 5
    rows = _combinations(rng, _random_dense(rng, n + 1, n), 30)
    assert orc.rank_dense(rows[:10]) == n
    ids, tagged = _system(rows, n)
    x0 = [F(rng.randint(-5, 5)) for _ in range(n)]
    rhs = [sum(c * x for c, x in zip(row, x0)) for row in rows]
    assert solve_affine(ids, _affine(tagged, rhs)) == {
        ("x", i): x for i, x in enumerate(x0) if x}
    for where in (15, len(rows) - 1):
        doctored = list(rhs)
        doctored[where] += F(1, 7)
        drawn = []
        triples = _affine(tagged, doctored)
        assert solve_affine(ids, (drawn.append(t) or t for t in triples)) is None
        assert len(drawn) == where + 1          # none after the inconsistent row


def test_a_row_after_the_bound_that_only_verification_sees_changes_the_kernel():
    rng = random.Random(41)
    for n, rank in ((6, 3), (8, 5), (4, 1)):
        base = _random_dense(rng, rank, n)
        while orc.rank_dense(base) < rank:
            base = _random_dense(rng, rank, n)
        rows = _combinations(rng, base, 6 * n)
        assert orc.rank_dense(rows) == rank
        planted = _random_dense(rng, 1, n)[0]
        while orc.rank_dense(rows + [planted]) == rank:
            planted = _random_dense(rng, 1, n)[0]
        ids, plain = _system(rows, n)
        _ids, doctored = _system(rows + [planted], n)
        inserted = []

        class Counting(Echelon):
            def insert(self, vec, tag=""):
                inserted.append(tag)
                return super().insert(vec, tag)

        ech = Counting(ids)
        ech.extend(doctored, rank)
        # past the bound, only the planted row was reduced, and it was kept
        assert inserted[-1] == f"row{len(rows)}"
        assert len(inserted) < len(rows)
        assert len(ech.pivots) == rank + 1
        got = _kernel(ids, doctored, rank)
        assert got == _full_elimination(ids, doctored).kernel() == _dense_kernel(
            rows + [planted], n)
        assert len(got) == n - rank - 1
        assert got != _kernel(ids, plain, rank)


def test_a_residual_row_after_the_bound_changes_z2(monkeypatch):
    # boson cutoff 2 has h2 = 0, so compute_h2's bound is reached and the
    # remaining residual rows go through the verification pass only
    V, W = _adjoint("free-boson", 2)
    slots = cochain_slots(V, W)
    bound = len(slots) - len(compute_h2(V, W).coboundary_basis)
    z_basis = compute_z2(V, W, bound)
    i = slots.index(min(z_basis[0].slots()))
    real = cohomology.residual_items

    def doctored(V, W, psi):
        yield from real(V, W, psi)
        yield ("planted", (), "x"), JetScalar(0, {i: 1})

    monkeypatch.setattr(cohomology, "residual_items", doctored)
    planted = compute_z2(V, W, bound)
    assert len(planted) == len(z_basis) - 1
    assert [z.slots() for z in planted] == [z.slots() for z in compute_z2(V, W)]
    assert all(slots[i] not in z.slots() for z in planted)


# ---------------------------------------------------------------------------
# the residual streamed into the echelon
# ---------------------------------------------------------------------------

def test_a_broken_coordinate_after_full_rank_is_still_named(monkeypatch):
    # graded-nilpotent has Z2 = 0, so extend reaches full rank early and
    # stops drawing; only the drain after it reaches the planted coordinate
    V, W = _adjoint("graded-nilpotent", 3)
    assert compute_z2(V, W) == []
    real = cohomology.residual_items
    drawn, at_return = [], []
    planted = ("planted", (), "x")

    def doctored(V, W, psi):
        for item in real(V, W, psi):
            drawn.append(item)
            yield item
        yield planted, JetScalar(1, {0: 1})

    class Recording(Echelon):
        def extend(self, rows, bound=None):
            super().extend(rows, bound)
            at_return.append(len(drawn))

    monkeypatch.setattr(cohomology, "residual_items", doctored)
    monkeypatch.setattr(cohomology, "Echelon", Recording)
    with pytest.raises(ModuleAxiomsFail, match="planted") as failed:
        compute_z2(V, W)
    assert failed.value.coords == [planted]
    assert at_return == [15] and len(drawn) == 402


@linux_only
def test_boson_cutoff_3_h2_stays_below_24_mb():
    # the residual held as a dict of 19,317 jets, then copied into a
    # LinearSystem, peaked at about 34 MB; streamed into the echelon, 18 MB
    assert _peak_rss_mb(["h2", "--preset", "free-boson", "--cutoff", "3"]) < 24


# ---------------------------------------------------------------------------
# H1 and H2 bases, unchanged
# ---------------------------------------------------------------------------

def _adjoint(name, cutoff=None):
    V = build_preset(name, cutoff)
    return V, adjoint_module(V)


def _cochains_text(cochains):
    return ";".join(",".join(f"{k}:{c}" for k, c in sorted(z.slots().items()))
                    for z in cochains)


def _maps_text(maps):
    return ";".join(
        ",".join(f"{s}>{t}:{c}" for s, col in sorted(g.columns.items())
                 for t, c in sorted(col.items()))
        for g in maps)


# sha256 prefixes of the Z2, B2, representative and H1 bases as full
# elimination computed them, before the rank-bound stop existed
FULL_ELIMINATION_DIGESTS = {
    ("trivial", None): "be5be69f55e91af25e54ecc2154d4da3",
    ("trivial", 3): "be5be69f55e91af25e54ecc2154d4da3",
    ("dual-numbers", None): "dec60e149c0b5f8c3effcfeed1cff56c",
    ("dual-numbers", 3): "dec60e149c0b5f8c3effcfeed1cff56c",
    ("split-pair", None): "868c1f16fd31f91b26179f6c28a005ed",
    ("split-pair", 3): "868c1f16fd31f91b26179f6c28a005ed",
    ("graded-nilpotent", None): "e345d63d9cb572950b691db8cd84059c",
    ("graded-nilpotent", 3): "e345d63d9cb572950b691db8cd84059c",
    ("free-boson", 1): "c13e7839a88c67ea108c74327a95e744",
    ("free-boson", 2): "b13920aeefcd82b1bacaa445c69d0e03",
    ("free-boson", 3): "11d71a12ebe825ee8e82fa08f6e2d817",
    ("random", None): "dd00146b8ec8c4c0eed33f36cd47cbed",
}


@pytest.mark.parametrize("name, cutoff", sorted(FULL_ELIMINATION_DIGESTS, key=str))
def test_bases_equal_full_elimination(name, cutoff):
    algebras = (_random_lawful_algebras() if name == "random"
                else [build_preset(name, cutoff)])
    digest = hashlib.sha256()
    for V in algebras:
        W = adjoint_module(V)
        res, der = compute_h2(V, W), compute_der(V, W)
        assert res.cocycle_basis == compute_z2(V, W)     # no bound: full elimination
        digest.update("|".join([
            _cochains_text(res.cocycle_basis),
            _cochains_text(res.coboundary_basis),
            _cochains_text(res.representative_classes),
            _maps_text(der.representative_classes),
        ]).encode())
    assert digest.hexdigest()[:32] == FULL_ELIMINATION_DIGESTS[(name, cutoff)]


# ---------------------------------------------------------------------------
# laziness of compute_der
# ---------------------------------------------------------------------------

def _count_delta_rows(monkeypatch):
    drawn = []
    real = cohomology.derivation_system

    def counted(V, W):
        for item in real(V, W):
            drawn.append(item)
            yield item

    monkeypatch.setattr(cohomology, "derivation_system", counted)
    return drawn


def test_full_rank_h1_builds_fewer_rows_than_there_are_slots(monkeypatch):
    V = truncated_free_boson(5)
    W = VAModule(V.space, V.Y, translation_map(V))
    drawn = _count_delta_rows(monkeypatch)
    res = compute_der(V, W)
    assert res.h_dim == 0
    assert 0 < len(drawn) < len(cochain_slots(V, W))


@pytest.mark.parametrize("name", EXACT_PRESETS)
def test_h1_draws_every_row_when_the_kernel_is_nonzero(name, monkeypatch):
    V, W = _adjoint(name)
    want = _kernel(_delta_unknowns(V, W), derivation_system(V, W))
    drawn = _count_delta_rows(monkeypatch)
    res = compute_der(V, W)
    assert res.h_dim == len(want) == orc.derivation_dim(orc.TABLES[name])
    if res.h_dim:
        assert len(drawn) == len(cochain_slots(V, W))
    assert [{("f", v, t): c for v, col in g.columns.items() for t, c in col.items()}
            for g in res.representative_classes] == want


# ---------------------------------------------------------------------------
# laziness of is_coboundary
# ---------------------------------------------------------------------------

def _first_inconsistent_row(ids, rows, rhs):
    """The least k such that rows[:k + 1] . x = rhs[:k + 1] has no solution,
    by the dense oracle (inconsistency only grows with k, so bisect)."""
    dense = [[row.get(u, 0) for u in ids] for row, _tag in rows]

    def consistent(k):
        return orc.rank_dense(dense[:k]) == orc.rank_dense(
            [r + [b] for r, b in zip(dense[:k], rhs[:k])])

    lo, hi = 1, len(rows)           # consistent(lo - 1) holds, consistent(hi) does not
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if consistent(mid) else (lo, mid)
    return lo - 1


@pytest.mark.parametrize("cutoff", (2, 3))
def test_a_noncocycle_stops_the_solve_at_its_first_inconsistent_row(cutoff, monkeypatch):
    # psi nonzero on a vacuum slot is never a cocycle (the identity axiom
    # reads it): the solve stops early, and NotACocycle names the residual
    V, W = _adjoint("free-boson", cutoff)
    slots = cochain_slots(V, W)
    vacuum_slots = [s for s in slots if s[0] == V.vacuum]
    ids, rows = _delta_unknowns(V, W), list(derivation_system(V, W))
    rng = random.Random(20261020)
    drawn = _count_delta_rows(monkeypatch)
    for _ in range(8):
        chosen = {rng.choice(vacuum_slots)} | set(rng.sample(slots, 2))
        psi = TwoCochain.from_slots(V, W, {s: F(rng.choice((-2, -1, 1, 2)))
                                           for s in sorted(chosen)})
        rhs = [psi.slots().get(slot, 0) for slot in slots]
        drawn.clear()
        with pytest.raises(NotACocycle) as failed:
            is_coboundary(V, W, psi)
        assert len(drawn) == _first_inconsistent_row(ids, rows, rhs) + 1 < len(slots)
        assert failed.value.coords == sorted(cocycle_residual(V, W, psi)) != []
    # a coboundary is consistent with every row, so every row is drawn
    g = GradedMap(V.space, W.space, 0)
    for b in vacuum_killing_basis(V, W):
        (src, col), = b.columns.items()
        (tgt, _one), = col.items()
        g.set_entry(tgt, src, F(rng.choice((-3, -2, -1, 1, 2, 3))))
    psi = coboundary(V, W, g)
    drawn.clear()
    assert is_coboundary(V, W, psi) == g
    assert len(drawn) == len(slots)


def _right_action_by_loop(W):
    """The right action table as one skew_mode call per window key."""
    wsp, vsp = W.space, W.algebra_space
    table = {}
    for w in range(len(wsp)):
        for v in range(len(vsp)):
            for tau in wsp.by_weight:
                n = wsp.weight_of(w) + vsp.weight_of(v) - 1 - tau
                vec = skew_mode(W, {w: 1}, n, {v: 1})
                if vec:
                    table[(w, n, v)] = vec
    return table


@pytest.mark.parametrize("name, cutoff",
                         [(p, None) for p in PRESETS]
                         + [("free-boson", c) for c in (1, 2, 3, 4)])
def test_right_lookup_equals_the_right_action_table(name, cutoff, monkeypatch):
    V = build_preset(name, cutoff)
    W = VAModule(V.space, V.Y, translation_map(V))
    want = _right_action_by_loop(W)
    calls = []
    real = cohomology.skew_mode
    monkeypatch.setattr(cohomology, "skew_mode",
                        lambda *args: calls.append(args) or real(*args))
    right = _right_lookup(W)
    sp = W.space
    keys = [(w, sp.weight_of(w) + sp.weight_of(v) - 1 - tau, v)
            for w in range(len(sp)) for v in range(len(sp)) for tau in sp.by_weight]
    for key in keys + keys:                       # the second pass is memoised
        assert right(*key) == want.get(key, {})
    assert len(calls) == len(set(keys))
