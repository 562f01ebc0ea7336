"""Exact scalars and the sparse linear algebra kernel.

Randomized checks are seeded and compared against the independent dense
routines in oracles.py, so a failure here points at the package, not the
test data.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

import oracles as orc
from vertexcoh.linalg import (
    Echelon,
    SubspaceNotContained,
    quotient_dim,
    rref,
    solve_affine,
)
from vertexcoh.scalars import (
    JetScalar,
    binom,
    format_rational,
    inv_factorial,
    parse_rational,
    value_part,
)
from vertexcoh.spaces import GradedSpace, ModeFamily, viadd

F = Fraction


# ---------------------------------------------------------------------------
# rational parsing and formatting
# ---------------------------------------------------------------------------

def test_parse_and_format_rationals():
    assert parse_rational("3") == F(3)
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational("+4/6") == F(2, 3)
    assert format_rational(F(2, 3)) == "2/3"
    assert format_rational(F(-5)) == "-5"
    assert format_rational(F(4, 2)) == "2"
    rng = random.Random(11)
    for _ in range(200):
        q = F(rng.randint(-40, 40), rng.randint(1, 40))
        assert parse_rational(format_rational(q)) == q


@pytest.mark.parametrize("bad", ["", "1.5", "1e3", "2/0", "1/ 2", "a", "--3", "1/-2"])
def test_parse_rational_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_binom_matches_comb_and_pascal():
    for m in range(0, 9):
        for i in range(0, 11):
            assert binom(m, i) == math.comb(m, i)
    # negative upper index: falling-factorial definition
    assert binom(-1, 0) == 1
    assert binom(-1, 3) == -1
    assert binom(-2, 3) == -4
    assert binom(-3, 2) == 6
    assert binom(5, -1) == 0
    rng = random.Random(12)
    for _ in range(300):
        m = rng.randint(-8, 8)
        i = rng.randint(0, 9)
        assert binom(m, i) == binom(m - 1, i) + binom(m - 1, i - 1)


def test_inv_factorial():
    assert inv_factorial(0) == F(1)
    assert inv_factorial(4) == F(1, 24)


# ---------------------------------------------------------------------------
# dual numbers Q[t]/(t^2): first-order jets in one direction
# ---------------------------------------------------------------------------

def _dual(value, slope) -> JetScalar:
    return JetScalar(value, {0: slope})


def _random_dual(rng: random.Random) -> JetScalar:
    q = lambda: F(rng.randint(-9, 9), rng.randint(1, 9))
    return _dual(q(), q())


def test_dual_scalar_ring_laws():
    rng = random.Random(13)
    for _ in range(200):
        a, b, c = (_random_dual(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - a == _dual(0, 0)
        assert not (a - a)


def test_dual_scalar_multiplication_rule_and_nilpotence():
    a = _dual(F(2), F(3))
    b = _dual(F(5), F(-1))
    assert a * b == _dual(F(10), F(13))  # ac, ad + bc
    t = _dual(0, 1)
    assert t * t == _dual(0, 0) and (t * t).slopes == {}
    rng = random.Random(14)
    for _ in range(50):
        s = F(rng.randint(-20, 20), rng.randint(1, 10))
        x = _dual(0, s)
        assert x * x == _dual(0, 0) and not x * x


def test_dual_scalar_mixes_with_rationals_and_ints():
    a = _dual(F(1, 2), F(3))
    assert 2 * a == a * 2 == _dual(F(1), F(6))
    assert a * F(1, 3) == _dual(F(1, 6), F(1))
    assert a + 1 == _dual(F(3, 2), F(3))
    assert 1 - a == _dual(F(1, 2), F(-3))
    assert a == a + 0
    assert _dual(F(5), 0) == F(5) and _dual(5, 0) == 5
    assert value_part(a) == F(1, 2) and a.slopes.get(0, 0) == F(3)
    assert value_part(F(7)) == F(7)


# ---------------------------------------------------------------------------
# first-order jets in k directions
# ---------------------------------------------------------------------------

def _random_jet(rng: random.Random, k: int = 4) -> JetScalar:
    def q():
        return F(rng.randint(-6, 6), rng.randint(1, 4))
    return JetScalar(q(), {i: q() for i in range(k) if rng.random() < 0.6})


def test_jet_directions_multiply_to_zero():
    k = 5
    ts = [JetScalar(0, {i: 1}) for i in range(k)]
    for i in range(k):
        for j in range(k):
            prod = ts[i] * ts[j]
            assert prod == 0 and not prod and prod.slopes == {}
    # the product rule: (a + b.t)(c + d.t) = ac + (a d + c b).t
    x = JetScalar(F(2), {0: F(3), 2: F(-1)})
    y = JetScalar(F(5), {0: F(1, 2), 1: F(4)})
    assert x * y == JetScalar(F(10), {0: F(16), 1: F(8), 2: F(-5)})


def test_jet_ring_laws_on_random_elements():
    rng = random.Random(16)
    for _ in range(200):
        a, b, c = (_random_jet(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a - b == a + (-b)
        assert not (a - a) and (a - a).slopes == {}
        assert a * 1 == a and a + 0 == a
        expected = {i: a.value * b.slopes.get(i, 0) + b.value * a.slopes.get(i, 0)
                    for i in set(a.slopes) | set(b.slopes)}
        assert (a * b).slopes == {i: v for i, v in expected.items() if v}
        assert (a * b).value == a.value * b.value


def test_jet_mixes_with_rationals_and_ints_on_both_sides():
    a = JetScalar(F(1, 2), {3: F(3)})
    assert 2 * a == a * 2 == JetScalar(F(1), {3: F(6)})
    assert F(1, 3) * a == a * F(1, 3) == JetScalar(F(1, 6), {3: F(1)})
    assert a + 1 == 1 + a == JetScalar(F(3, 2), {3: F(3)})
    assert a + F(1, 2) == F(1, 2) + a == JetScalar(F(1), {3: F(3)})
    assert 1 - a == JetScalar(F(1, 2), {3: F(-3)})
    assert a - 1 == JetScalar(F(-1, 2), {3: F(3)})
    assert 0 * a == a * F(0) == 0 and (0 * a).slopes == {}
    plain = JetScalar(F(5))
    assert plain == F(5) and F(5) == plain and plain == 5 and 5 == plain
    assert hash(plain) == hash(F(5))
    assert a != F(1, 2) and F(1, 2) != a
    assert value_part(a) == F(1, 2) and a.slopes.get(0, 0) == 0


def test_jet_prints_as_a_first_order_coefficient():
    assert str(JetScalar(F(1, 2), {0: F(-3, 4)})) == "1/2 - 3/4*t"
    assert str(JetScalar(5)) == "5 + 0*t"
    assert str(JetScalar(0, {0: 1})) == "0 + 1*t"
    assert str(JetScalar(-2, {0: F(3, 2)})) == "-2 + 3/2*t"
    # a slope in another direction is never dropped
    for jet in (JetScalar(1, {1: 2}), JetScalar(1, {0: 3, 2: F(1, 2)})):
        assert str(jet) == repr(jet)
    assert str(JetScalar(1, {1: 2})) == "JetScalar(1, {1: 2})"


def test_jet_zero_detection_in_sparse_vectors():
    assert not JetScalar() and not JetScalar(0, {4: 0})
    assert JetScalar(0, {4: 0}).slopes == {}
    assert JetScalar(0, {1: 1}) and JetScalar(1)
    t = JetScalar(0, {2: F(1)})
    acc = {0: t, 1: F(1)}
    viadd(acc, -1, {0: t})
    assert acc == {1: F(1)}                    # the cancelled entry is dropped
    viadd(acc, t - t, {1: F(5)})                # a zero jet coefficient adds nothing
    assert acc == {1: F(1)}
    sp = GradedSpace([("one", 0), ("x", 0)])
    fam = ModeFamily(sp, sp, sp)
    fam.set_entry(0, -1, 1, {1: t - t})
    assert not fam and fam.entry(0, -1, 1) is None


# ---------------------------------------------------------------------------
# sparse systems
# ---------------------------------------------------------------------------

def _random_system(rng: random.Random, n_unknowns: int, n_rows: int):
    """Sparse (ids, tagged rows) plus the same matrix densely, for the oracle."""
    names = [("x", i) for i in range(n_unknowns)]
    rows, dense = [], []
    for r in range(n_rows):
        row = {}
        for i in range(n_unknowns):
            if rng.random() < 0.5:
                row[names[i]] = F(rng.randint(-4, 4))
        rows.append((row, f"row{r}"))
        dense.append([row.get(names[i], F(0)) for i in range(n_unknowns)])
    return names, rows, dense


def _kernel(ids, rows):
    ech = Echelon(ids)
    ech.extend(rows)
    return ech.kernel()


@pytest.mark.parametrize("bound", [None, 1])
def test_unregistered_unknowns_are_rejected_below_and_above_the_bound(bound):
    # once the bound is reached, rows are checked against the kernel, not
    # inserted: the check rejects an unregistered id as insert does, and both
    # look every id up before dropping zero coefficients
    for c in (1, 0):
        with pytest.raises(KeyError):
            Echelon(["a", "b"]).insert({"zz": F(c)})
        with pytest.raises(KeyError):
            Echelon(["a", "b"]).extend([({"a": 1}, 0), ({"zz": c}, 1)], bound)
        with pytest.raises(KeyError):
            solve_affine(["a", "b"], [({"a": 1}, 0, "r0"), ({"zz": c}, 1, "r1")])
    with pytest.raises(KeyError):
        solve_affine(["a"], [({"a": 1, "zz": 0}, 1, "t")])


def test_rref_is_canonical_and_idempotent():
    rng = random.Random(15)
    for _ in range(40):
        names, rows, dense = _random_system(rng, rng.randint(1, 7), rng.randint(0, 9))
        position = names.index
        red = rref(names, rows)
        again = rref(names, red)
        assert red == again
        # unit pivots, in pivot order, and no pivot id appears in another row
        leads = [min(row, key=position) for row, _tag in red]
        assert leads == sorted(leads, key=position)
        for (row, _tag), piv in zip(red, leads):
            assert row[piv] == 1
            for other in set(leads) - {piv}:
                assert other not in row
        # each output row carries the tag of the input row that added its pivot
        # column to the row space
        contributor = {}
        for i in range(len(dense)):
            before = set(orc.rref_dense(dense[:i])[1])
            for col in set(orc.rref_dense(dense[: i + 1])[1]) - before:
                contributor[col] = rows[i][1]
        assert {position(piv): tag for piv, (_row, tag) in zip(leads, red)} == contributor


def test_rank_and_kernel_against_dense_oracle():
    rng = random.Random(16)
    for _ in range(40):
        n = rng.randint(1, 7)
        names, rows, dense = _random_system(rng, n, rng.randint(0, 9))
        kern = _kernel(names, rows)
        assert len(kern) == n - orc.rank_dense([row[:] for row in dense])
        # every kernel vector annihilates every original row
        for vec in kern:
            for row, _tag in rows:
                s = sum(row.get(u, F(0)) * c for u, c in vec.items())
                assert s == 0
        # and the package kernel spans the oracle kernel (same dim + containment)
        ambient = [dict(v) for v in kern]
        for ovec in orc.kernel_dense([row[:] for row in dense], n):
            as_dict = {names[i]: c for i, c in enumerate(ovec) if c}
            quotient_dim(ambient + [as_dict], ambient)  # raises if not contained
    # degenerate: zero rows keep full kernel
    assert len(_kernel(["a", "b"], [({}, "")])) == 2


def test_solve_affine_consistent_and_inconsistent():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(1, 6)
        names, rows, dense = _random_system(rng, n, rng.randint(1, 8))
        x0 = {names[i]: F(rng.randint(-5, 5)) for i in range(n)}
        rhs = [sum(row.get(u, F(0)) * x0[u] for u in names) for row, _tag in rows]
        sol = solve_affine(names, [(row, b, tag) for (row, tag), b in zip(rows, rhs)])
        assert sol is not None
        for (row, _tag), b in zip(rows, rhs):
            assert sum(row.get(u, F(0)) * sol.get(u, F(0)) for u in names) == b
        # the canonical solution: zero on free unknowns, and on each pivot
        # unknown the last column of the augmented matrix's rref
        red, pivots = orc.rref_dense([r + [b] for r, b in zip(dense, rhs)])
        assert sol == {names[pc]: r[-1] for r, pc in zip(red, pivots) if r[-1]}
    # inconsistent: x + y = 0 and x + y = 1
    row = {"x": F(1), "y": F(1)}
    assert solve_affine(["x", "y"], [(row, F(0), "a"), (row, F(1), "b")]) is None


def test_quotient_dim_and_containment():
    e = lambda i: {("e", i): F(1)}
    plane = [e(0), e(1), e(2)]
    line = [{("e", 0): F(2), ("e", 1): F(-2)}]
    assert quotient_dim(plane, line) == 2
    assert quotient_dim(plane, []) == 3
    assert quotient_dim(plane, plane) == 0
    with pytest.raises(SubspaceNotContained):
        quotient_dim([e(0), e(1)], [e(2)])
    rng = random.Random(18)
    for _ in range(30):
        n = rng.randint(1, 6)
        space = [e(i) for i in range(n)]
        k = rng.randint(0, n)
        sub = []
        for _ in range(k):
            sub.append({("e", i): F(rng.randint(-3, 3)) for i in range(n)})
        sub = [v for v in ({i: c for i, c in vec.items() if c} for vec in sub) if v]
        dense = [[vec.get(("e", i), F(0)) for i in range(n)] for vec in sub]
        assert quotient_dim(space, sub) == n - orc.rank_dense(dense)
