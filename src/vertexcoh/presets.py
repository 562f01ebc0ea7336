"""Built-in example algebras and modules.

Four exact-tier presets, one table of labels, weights and products, come
from commutative differential algebras: a commutative unital algebra with a
weight-raising derivation D induces modes

    a_n b = 0                    for n >= 0,
    a_{-j-1} b = (1/j!) (D^j a) * b   for j >= 0,

which satisfy all the axioms whenever the table is associative and D obeys
the Leibniz rule — that is validated here, entry by entry, before anything is
built.  The fifth preset is the rank-one free boson truncated at a weight
cutoff: states are partitions (oscillator monomials applied to the vacuum),
and modes come from the canonical-commutation recursion on the largest part.
Every intermediate state of that recursion sits at or below the result
weight, so entries below the cutoff are exact; the truncation only hides
entries above it, which is what the "truncated" tier expresses.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .axioms import check_all, translation_map
from .scalars import binom, exact, inv_factorial
from .spaces import (
    GradedSpace,
    ModeFamily,
    VAModule,
    VertexAlgebra,
    build_vertex_algebra,
    mode_triples,
    viadd,
)


class NotAssociative(Exception):
    """The multiplication table fails associativity; carries the witness triple."""

    def __init__(self, triple):
        super().__init__(f"associativity fails on {triple}")
        self.triple = triple


class NotLeibniz(Exception):
    """The derivation fails the Leibniz rule; carries the witness pair."""

    def __init__(self, pair):
        super().__init__(f"Leibniz rule fails on {pair}")
        self.pair = pair


class WeightMismatch(Exception):
    """A table entry or derivation image sits at the wrong weight."""


@dataclass
class CommDiffAlgebraSpec:
    """A commutative unital graded algebra with a weight-raising derivation.

    ``products`` maps unordered label pairs (stored under either order) to
    sparse product vectors; ``derivation`` maps a label to the sparse image
    vector of D (absent = zero).  ``validate`` checks everything the mode
    construction relies on.
    """

    labels: tuple[str, ...]
    weights: tuple[int, ...]
    unit: str
    products: dict[tuple[str, str], dict[str, Fraction]]
    derivation: dict[str, dict[str, Fraction]] = field(default_factory=dict)

    def weight(self, label: str) -> int:
        return self.weights[self.labels.index(label)]

    def product(self, a: str, b: str) -> dict[str, Fraction]:
        hit = self.products.get((a, b))
        if hit is None:
            hit = self.products.get((b, a), {})
        return {k: exact(c) for k, c in hit.items() if c}

    def product_vec(self, vec: dict[str, Fraction], b: str) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for a, ca in vec.items():
            viadd(out, ca, self.product(a, b))
        return out

    def d_of(self, a: str) -> dict[str, Fraction]:
        return {k: exact(c) for k, c in self.derivation.get(a, {}).items() if c}

    def d_of_vec(self, vec: dict[str, Fraction]) -> dict[str, Fraction]:
        out: dict[str, Fraction] = {}
        for a, ca in vec.items():
            viadd(out, ca, self.d_of(a))
        return out

    def validate(self) -> None:
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in algebra table")
        if self.unit not in self.labels:
            raise ValueError(f"unit {self.unit!r} is not a basis label")
        if self.weight(self.unit) != 0:
            raise WeightMismatch(f"unit {self.unit!r} must have weight 0")
        for (a, b), vec in self.products.items():
            if (b, a) in self.products and (b, a) != (a, b):
                if self.products[(b, a)] != vec:
                    raise ValueError(f"asymmetric table entries for {a!r}, {b!r}")
        for a in self.labels:
            for b in self.labels:
                prod = self.product(a, b)
                w = self.weight(a) + self.weight(b)
                for k, c in prod.items():
                    if self.weight(k) != w:
                        raise WeightMismatch(
                            f"product {a!r}*{b!r} hits {k!r} at weight "
                            f"{self.weight(k)}, expected {w}"
                        )
            if self.product(self.unit, a) != {a: 1}:
                raise ValueError(f"unit does not act as identity on {a!r}")
        for a in self.labels:
            for b in self.labels:
                for c in self.labels:
                    left = self.product_vec(self.product(a, b), c)
                    right: dict[str, Fraction] = {}
                    for m, cm in self.product(b, c).items():
                        viadd(right, cm, self.product(a, m))
                    if left != right:
                        raise NotAssociative((a, b, c))
        for a in self.labels:
            da = self.d_of(a)
            for k, c in da.items():
                if self.weight(k) != self.weight(a) + 1:
                    raise WeightMismatch(
                        f"D({a!r}) hits {k!r} at weight {self.weight(k)}, "
                        f"expected {self.weight(a) + 1}"
                    )
        for a in self.labels:
            for b in self.labels:
                lhs = self.d_of_vec(self.product(a, b))
                rhs: dict[str, Fraction] = {}
                for k, c in self.d_of(a).items():
                    viadd(rhs, c, self.product(k, b))
                for k, c in self.d_of(b).items():
                    viadd(rhs, c, self.product(a, k))
                if lhs != rhs:
                    raise NotLeibniz((a, b))


def from_commutative_algebra(spec: CommDiffAlgebraSpec) -> VertexAlgebra:
    """Build the exact-tier algebra with a_{-j-1} b = (1/j!) (D^j a) b."""
    spec.validate()
    space = GradedSpace(list(zip(spec.labels, spec.weights)), tier="exact")
    entries: dict[tuple[str, int, str], dict[str, Fraction]] = {}
    for a in spec.labels:
        for b in spec.labels:
            dja = {a: 1}
            j = 0
            while dja:
                vec = spec.product_vec(
                    {k: c * inv_factorial(j) for k, c in dja.items()}, b
                )
                if vec:
                    entries[(a, -j - 1, b)] = vec
                dja = spec.d_of_vec(dja)
                j += 1
    return build_vertex_algebra(space, spec.unit, entries)


# ---------------------------------------------------------------------------
# the truncated free boson
# ---------------------------------------------------------------------------

@functools.cache
def _boson_mode(u: tuple[int, ...], n: int, w: tuple[int, ...]) -> dict[tuple, int]:
    """u_n w in the full rank-one Fock space, partitions as oscillator monomials.

    Recursion on the largest part k of u = a_{-k} v:

        (a_{-k} v)_n w = sum_{i>=0} (-1)^i C(-k,i) a_{-k-i}( v_{n+i} w )
                         - (-1)^k sum_{i>=1} (-1)^i C(-k,i) v_{n-k-i}( a_i w )

    with the level-one commutation rules: a_i removes one part i with factor
    i * multiplicity, a_{-k-i} adds a part, and vacuum_n w = delta_{n,-1} w.
    Results are cached; callers only read them.
    """
    if not u:
        return {w: 1} if n == -1 else {}
    k = u[0]
    v = u[1:]
    acc: dict[tuple, int] = {}
    imax = sum(v) + sum(w) - n - 1          # below this, v_{n+i} w dies
    for i in range(0, imax + 1):
        c = binom(-k, i) * (1 if i % 2 == 0 else -1)
        for part, coeff in _boson_mode(v, n + i, w).items():
            newpart = tuple(sorted(part + (k + i,), reverse=True))
            acc[newpart] = acc.get(newpart, 0) + c * coeff
    outer_sign = 1 if k % 2 else -1         # the -(-1)^k prefactor
    for i in sorted(set(w)):
        idx = w.index(i)
        down = w[:idx] + w[idx + 1:]
        factor = i * w.count(i)
        c = outer_sign * binom(-k, i) * (1 if i % 2 == 0 else -1) * factor
        for part, coeff in _boson_mode(v, n - k - i, down).items():
            acc[part] = acc.get(part, 0) + c * coeff
    return {p: c for p, c in acc.items() if c}


def boson_label(part: tuple[int, ...]) -> str:
    """Label of an oscillator monomial: () -> "one", (2,1) -> "a2.1"."""
    if not part:
        return "one"
    return "a" + ".".join(str(p) for p in part)


def truncated_free_boson(cutoff: int) -> VertexAlgebra:
    """The rank-one free boson with states of weight <= cutoff (truncated tier).

    Basis: all partitions of total size <= cutoff; modes from the
    canonical-commutation recursion, storing every entry whose result weight
    fits under the cutoff.  Values up to 6 stay comfortable; the state count
    is the partition-count sum, so it grows quickly beyond that.
    """
    if cutoff < 0:
        raise ValueError("cutoff must be nonnegative")
    parts: list[tuple[int, ...]] = []

    def gen(remaining: int, maxpart: int, prefix: tuple[int, ...]):
        parts.append(prefix)
        for p in range(min(remaining, maxpart), 0, -1):
            gen(remaining - p, p, prefix + (p,))

    gen(cutoff, cutoff, ())
    parts.sort(key=lambda p: (sum(p), p))
    space = GradedSpace(
        [(boson_label(p), sum(p)) for p in parts],
        tier="truncated", cutoff=cutoff, min_weight=0,
    )
    index = {p: i for i, p in enumerate(parts)}          # space index i is parts[i]
    Y = ModeFamily(space, space, space)
    for a, n, b in mode_triples(space, space, space):
        vec = _boson_mode(parts[a], n, parts[b])
        Y.set_entry(a, n, b, {index[p]: c for p, c in vec.items()})
    return VertexAlgebra(space, index[()], Y)


# ---------------------------------------------------------------------------
# modules and the preset registry
# ---------------------------------------------------------------------------

def adjoint_module(V: VertexAlgebra) -> VAModule:
    """The algebra acting on itself, with its own translation map.

    Requires the algebra to hold up under its own axioms first (no failures;
    truncated-tier skips are fine).
    """
    report = check_all(V)
    if report.verdict == "fail":
        raise ValueError(
            f"cannot take the adjoint module: {len(report.failed)} axiom "
            "instance(s) fail on the algebra itself"
        )
    # check_all covered creation, so the mode-derived map is intrinsic_T(V)
    return VAModule(V.space, V.Y, translation_map(V))


# name: (labels, the unit first; weights; products beyond the unit's, each
# unordered pair once).  None has a derivation.
_EXACT_PRESETS: dict[str, tuple] = {
    "trivial": (("one",), (0,), {}),                          # just the vacuum
    "dual-numbers": (("one", "eps"), (0, 0), {}),             # eps*eps = 0
    "split-pair": (("one", "u"), (0, 0), {("u", "u"): {"one": 1}}),  # Q x Q
    "graded-nilpotent": (("one", "eps"), (0, 1), {}),         # the same, eps in weight 1
}
PRESETS: tuple[str, ...] = (*_EXACT_PRESETS, "free-boson")


def build_preset(name: str, cutoff: int | None = None) -> VertexAlgebra:
    """Build a preset by name; ``cutoff`` resizes the boson or widens exact windows.

    For exact presets a cutoff below the top weight is rejected (states would
    be lost); a larger one just enlarges the verification windows with
    vacuously-true instances.
    """
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}")
    if name == "free-boson":
        return truncated_free_boson(4 if cutoff is None else cutoff)
    labels, weights, products = _EXACT_PRESETS[name]
    unit = labels[0]
    algebra = from_commutative_algebra(CommDiffAlgebraSpec(
        labels, weights, unit, {**{(unit, a): {a: 1} for a in labels}, **products}))
    if cutoff is None:
        return algebra
    top = max(algebra.space.weights)
    if cutoff < top:
        raise ValueError(
            f"cutoff {cutoff} would discard states of weight {top} "
            f"from exact preset {name!r}"
        )
    return build_vertex_algebra(
        algebra.space.with_cutoff(cutoff),
        algebra.space.label_of(algebra.vacuum),
        algebra.entries_by_labels(),
    )
