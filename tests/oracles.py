"""Independent brute-force oracles used by the test suite.

Everything in this file is deliberately self-contained: dense Gaussian
elimination over Fraction, hand-written multiplication tables for the small
commutative test algebras, a brute-force Leibniz derivation solver, and a
brute-force enumerator for normalized symmetric 2-cocycles/coboundaries of a
commutative graded algebra.  Nothing here imports the package under test, so
agreement between these numbers and the package is meaningful evidence.

Conventions for the classical objects computed here (commutative unital graded
algebra A, coefficients in A itself):

* a *derivation* is a weight-preserving linear map f with
  f(ab) = f(a) b + a f(b) for all basis pairs;
* a *normalized symmetric 2-cochain* is a symmetric bilinear weight-additive
  map psi : A x A -> A with psi(1, a) = psi(a, 1) = 0;
* the *cocycle condition* is  a psi(b,c) - psi(ab, c) + psi(a, bc) - psi(a,b) c = 0
  for all triples;
* the *coboundary* of a weight-preserving linear g with g(1) = 0 is
  (delta g)(a, b) = a g(b) + g(a) b - g(ab).
"""

from __future__ import annotations

from fractions import Fraction
from dataclasses import dataclass

F = Fraction


# ---------------------------------------------------------------------------
# dense exact linear algebra (independent of the package's solver)
# ---------------------------------------------------------------------------

def rref_dense(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form of a dense matrix; returns (rows, pivot cols)."""
    mat = [list(r) for r in rows]
    ncols = len(mat[0]) if mat else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if mat[i][c] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = F(1) / mat[r][c]  # exact even when the entry is an int
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def rank_dense(rows: list[list[Fraction]]) -> int:
    return len(rref_dense(rows)[0])


def kernel_dense(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the null space of the matrix, one vector per free column."""
    red, pivots = rref_dense(rows) if rows else ([], [])
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [F(0)] * ncols
        vec[free] = F(1)
        for row, pc in zip(red, pivots):
            vec[pc] = -row[free]
        basis.append(vec)
    return basis


# ---------------------------------------------------------------------------
# hand-written commutative algebra tables
# ---------------------------------------------------------------------------

@dataclass
class AlgebraTable:
    """A finite-dimensional commutative unital graded algebra, written out by hand."""

    name: str
    labels: tuple[str, ...]
    weights: tuple[int, ...]
    unit: int                                  # basis index of the unit
    mult: dict[tuple[int, int], dict[int, Fraction]]  # (i, j) -> sparse product

    def dim(self) -> int:
        return len(self.labels)

    def product(self, i: int, j: int) -> dict[int, Fraction]:
        return self.mult.get((i, j)) or self.mult.get((j, i)) or {}

    def product_vec(self, vec: dict[int, Fraction], j: int) -> dict[int, Fraction]:
        out: dict[int, Fraction] = {}
        for i, c in vec.items():
            for k, ck in self.product(i, j).items():
                out[k] = out.get(k, F(0)) + c * ck
        return {k: v for k, v in out.items() if v}


def _one() -> AlgebraTable:
    return AlgebraTable("trivial", ("one",), (0,), 0, {(0, 0): {0: F(1)}})


def _dual_numbers() -> AlgebraTable:
    # Q[eps]/(eps^2), both basis vectors in weight 0
    return AlgebraTable(
        "dual-numbers",
        ("one", "eps"),
        (0, 0),
        0,
        {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 1): {}},
    )


def _split_pair() -> AlgebraTable:
    # basis one, u with u*u = one  (isomorphic to Q x Q), both in weight 0
    return AlgebraTable(
        "split-pair",
        ("one", "u"),
        (0, 0),
        0,
        {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 1): {0: F(1)}},
    )


def _graded_nilpotent() -> AlgebraTable:
    # basis one (weight 0), eps (weight 1) with eps*eps = 0
    return AlgebraTable(
        "graded-nilpotent",
        ("one", "eps"),
        (0, 1),
        0,
        {(0, 0): {0: F(1)}, (0, 1): {1: F(1)}, (1, 1): {}},
    )


TABLES: dict[str, AlgebraTable] = {
    t.name: t for t in (_one(), _dual_numbers(), _split_pair(), _graded_nilpotent())
}


# ---------------------------------------------------------------------------
# brute-force Leibniz derivation solver
# ---------------------------------------------------------------------------

def derivation_slots(table: AlgebraTable) -> list[tuple[int, int]]:
    """Unknown slots (source, target) of a weight-preserving linear map."""
    return [
        (a, t)
        for a in range(table.dim())
        for t in range(table.dim())
        if table.weights[a] == table.weights[t]
    ]


def leibniz_derivations(table: AlgebraTable) -> list[dict[tuple[int, int], Fraction]]:
    """All weight-preserving f with f(ab) = f(a)b + a f(b), by dense kernel."""
    slots = derivation_slots(table)
    pos = {s: k for k, s in enumerate(slots)}
    rows = []
    d = table.dim()
    for a in range(d):
        for b in range(d):
            ab = table.product(a, b)
            # one equation per target coordinate c
            coeffs: dict[tuple[int, int], dict[int, Fraction]] = {}

            def put(slot, target, value):
                if slot in pos and value:
                    coeffs.setdefault(slot, {})[target] = (
                        coeffs.setdefault(slot, {}).get(target, F(0)) + value
                    )

            for k, ck in ab.items():            # f(ab) expands over f(k)
                for t in range(d):
                    if table.weights[t] == table.weights[k]:
                        put((k, t), t, ck)
            for t in range(d):                  # - f(a) b
                if table.weights[t] == table.weights[a]:
                    for k, ck in table.product(t, b).items():
                        put((a, t), k, -ck)
            for t in range(d):                  # - a f(b)
                if table.weights[t] == table.weights[b]:
                    for k, ck in table.product(a, t).items():
                        put((b, t), k, -ck)

            for c in range(d):
                row = [F(0)] * len(slots)
                nonzero = False
                for slot, by_target in coeffs.items():
                    v = by_target.get(c, F(0))
                    if v:
                        row[pos[slot]] = v
                        nonzero = True
                if nonzero:
                    rows.append(row)
    kern = kernel_dense(rows, len(slots))
    return [
        {s: v for s, v in zip(slots, vec) if v}
        for vec in kern
    ]


def derivation_dim(table: AlgebraTable) -> int:
    return len(leibniz_derivations(table))


# ---------------------------------------------------------------------------
# brute-force classical 2-cocycles / coboundaries (normalized, symmetric)
# ---------------------------------------------------------------------------

def cochain_slots(table: AlgebraTable) -> list[tuple[int, int, int]]:
    """Slots (i, j, target) with i <= j, neither equal to the unit, weights adding up."""
    weight_set = set(table.weights)
    slots = []
    for i in range(table.dim()):
        if i == table.unit:
            continue
        for j in range(i, table.dim()):
            if j == table.unit:
                continue
            w = table.weights[i] + table.weights[j]
            if w not in weight_set:
                continue
            for t in range(table.dim()):
                if table.weights[t] == w:
                    slots.append((i, j, t))
    return slots


def _psi_rows(table: AlgebraTable):
    """Cocycle-condition rows over the cochain slots, one per (a,b,c,target)."""
    slots = cochain_slots(table)
    pos = {s: k for k, s in enumerate(slots)}
    d = table.dim()

    def slot_of(i, j, t):
        key = (min(i, j), max(i, j), t)
        return pos.get(key)

    rows = []
    for a in range(d):
        for b in range(d):
            for c in range(d):
                # a psi(b,c) - psi(ab, c) + psi(a, bc) - psi(a,b) c = 0
                contrib: dict[int, dict[int, Fraction]] = {}

                def put(slot_idx, target, value):
                    if slot_idx is not None and value:
                        tgt = contrib.setdefault(slot_idx, {})
                        tgt[target] = tgt.get(target, F(0)) + value

                for t in range(d):              # a * psi(b,c)
                    s = slot_of(b, c, t)
                    if s is not None:
                        for k, ck in table.product(a, t).items():
                            put(s, k, ck)
                for k, ck in table.product(a, b).items():   # - psi(ab, c)
                    for t in range(d):
                        s = slot_of(k, c, t)
                        if s is not None:
                            put(s, t, -ck)
                for k, ck in table.product(b, c).items():   # + psi(a, bc)
                    for t in range(d):
                        s = slot_of(a, k, t)
                        if s is not None:
                            put(s, t, ck)
                for t in range(d):              # - psi(a,b) * c
                    s = slot_of(a, b, t)
                    if s is not None:
                        for k, ck in table.product(t, c).items():
                            put(s, k, -ck)

                for target in range(d):
                    row = [F(0)] * len(slots)
                    nonzero = False
                    for s_idx, by_target in contrib.items():
                        v = by_target.get(target, F(0))
                        if v:
                            row[s_idx] = v
                            nonzero = True
                    if nonzero:
                        rows.append(row)
    return slots, rows


def classical_z2(table: AlgebraTable) -> list[dict[tuple[int, int, int], Fraction]]:
    slots, rows = _psi_rows(table)
    kern = kernel_dense(rows, len(slots))
    return [{s: v for s, v in zip(slots, vec) if v} for vec in kern]


def classical_b2(table: AlgebraTable) -> list[dict[tuple[int, int, int], Fraction]]:
    """Independent coboundaries delta g over vacuum-killing weight-preserving g."""
    slots = cochain_slots(table)
    pos = {s: k for k, s in enumerate(slots)}
    d = table.dim()
    g_slots = [
        (v, t)
        for v in range(d)
        if v != table.unit
        for t in range(d)
        if table.weights[t] == table.weights[v]
    ]
    images = []
    for (gv, gt) in g_slots:
        vec = [F(0)] * len(slots)
        for (i, j, t) in slots:
            total = F(0)
            if j == gv:                         # i * g(j) component at t
                total += table.product(i, gt).get(t, F(0))
            if i == gv:                         # g(i) * j component at t
                total += table.product(gt, j).get(t, F(0))
            ab = table.product(i, j)            # - g(ij)
            if gv in ab and gt == t:
                total -= ab[gv]
            vec[pos[(i, j, t)]] = total
        if any(vec):
            images.append(vec)
    # reduce to an independent set
    kept: list[list[Fraction]] = []
    for vec in images:
        if rank_dense(kept + [vec]) > rank_dense(kept):
            kept.append(vec)
    return [{s: v for s, v in zip(slots, vec) if v} for vec in kept]


def classical_h2_dims(table: AlgebraTable) -> tuple[int, int, int]:
    """(dim Z^2, dim B^2, dim H^2) by brute force."""
    z = classical_z2(table)
    b = classical_b2(table)
    z_rows = []
    slots = cochain_slots(table)
    pos = {s: k for k, s in enumerate(slots)}

    def densify(sparse):
        row = [F(0)] * len(slots)
        for s, v in sparse.items():
            row[pos[s]] = v
        return row

    z_rows = [densify(v) for v in z]
    b_rows = [densify(v) for v in b]
    zr = rank_dense(z_rows)
    br = rank_dense(b_rows)
    assert rank_dense(z_rows + b_rows) == zr, "coboundaries must lie inside cocycles"
    return zr, br, zr - br


def vacuum_killing_dim(table: AlgebraTable) -> int:
    """Number of weight-preserving linear maps g with g(unit) = 0 (slot count)."""
    return sum(
        1
        for v in range(table.dim())
        if v != table.unit
        for t in range(table.dim())
        if table.weights[t] == table.weights[v]
    )


# ---------------------------------------------------------------------------
# partition counts (free boson graded dimensions)
# ---------------------------------------------------------------------------

def partition_count(n: int) -> int:
    """Number of partitions of n, by the textbook recurrence (dense DP)."""
    if n < 0:
        return 0
    table = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            table[total] += table[total - part]
    return table[n]


def partitions_upto(n: int) -> list[tuple[int, ...]]:
    """All partitions (weakly decreasing tuples) of every m <= n."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, maxpart: int, prefix: tuple[int, ...]):
        out.append(prefix)
        for p in range(min(remaining, maxpart), 0, -1):
            rec(remaining - p, p, prefix + (p,))

    rec(n, n, ())
    return out


# ---------------------------------------------------------------------------
# frozen expected values (computed by the oracles above, checked in tests)
# ---------------------------------------------------------------------------

EXPECTED_DERIVATION_DIM = {
    "trivial": 0,
    "dual-numbers": 1,
    "split-pair": 0,
    "graded-nilpotent": 1,
}

EXPECTED_H2_DIMS = {          # (dim Z^2, dim B^2, dim H^2)
    "trivial": (0, 0, 0),
    "dual-numbers": (2, 1, 1),
    "split-pair": (2, 2, 0),
    "graded-nilpotent": (0, 0, 0),
}

EXPECTED_VACUUM_KILLING_DIM = {
    "trivial": 0,
    "dual-numbers": 2,
    "split-pair": 2,
    "graded-nilpotent": 1,
}

# graded dimensions of the free boson state space, weights 0..6
EXPECTED_PARTITION_COUNTS = (1, 1, 2, 3, 5, 7, 11)

# Multiplication table of the square-zero extension of Q[eps]/(eps^2) by its
# adjoint module along psi(eps, eps) = one -- isomorphic to Q[x]/(x^4) via
# x = eps, x^2 = w:one, x^3 = w:eps.  Keys are (left, right); omitted pairs
# multiply to zero.  Everything sits in weight 0 and only the n = -1 mode is
# nonzero, so this doubles as the expected mode table of the extension.
EXPECTED_X4_TABLE = {
    ("one", "one"): {"one": F(1)},
    ("one", "eps"): {"eps": F(1)},
    ("one", "w:one"): {"w:one": F(1)},
    ("one", "w:eps"): {"w:eps": F(1)},
    ("eps", "one"): {"eps": F(1)},
    ("eps", "eps"): {"w:one": F(1)},
    ("eps", "w:one"): {"w:eps": F(1)},
    ("w:one", "one"): {"w:one": F(1)},
    ("w:one", "eps"): {"w:eps": F(1)},
    ("w:eps", "one"): {"w:eps": F(1)},
}
