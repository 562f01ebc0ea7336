"""Graded spaces, graded maps, mode families, and the vertex-algebra container.

State spaces are finite direct sums of weight-homogeneous pieces with labeled
basis vectors; vectors are sparse dicts {flat basis index: scalar}, where a
rational scalar is an ``int | Fraction`` (``scalars.exact``): mode families and
graded maps store every integral coefficient as an int, so integral tables run
on int arithmetic throughout.  A mode family stores the structure constants
u_n v as sparse entries keyed by (u, n, v) and enforces the weight rule

    wt(u_n v) = wt(u) + wt(v) - n - 1

on every entry, which together with the bottom weight bounds all mode indices;
nothing below the bottom weight or above the cutoff is ever stored.  That
bound is the one window: ``mode_window`` gives the mode indices of one weight,
and ``mode_triples`` the (a, n, b) of two bases, which every check, table and
extension loop over basis pairs reads.

Two tiers of space exist.  On the ``exact`` tier the listed weights are all
there is: absent entries are genuinely zero.  On the ``truncated`` tier
weights above the cutoff exist but are unknown: operations that would need
them raise TruncationBreach, and checkers record such instances as skipped
rather than passed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .scalars import JetScalar, exact, inv_factorial


class WeightRuleViolation(Exception):
    """A stored entry contradicts the weight rule."""

    def __init__(self, message: str, entry=None):
        super().__init__(message)
        self.entry = entry


class NoVacuum(Exception):
    """The declared vacuum label is not a basis vector."""


class VacuumWrongWeight(Exception):
    """The vacuum vector does not sit in weight zero."""


class TruncationBreach(Exception):
    """A computation needs states above the cutoff; carries the offending weight."""

    def __init__(self, weight: int, context: str = ""):
        msg = f"needs states of weight {weight} above the cutoff"
        if context:
            msg += f" ({context})"
        super().__init__(msg)
        self.weight = weight


# ---------------------------------------------------------------------------
# sparse vectors: dict {flat basis index: scalar}, zero coefficients never stored
# ---------------------------------------------------------------------------

def _stored(coeff):
    """A rational coefficient in ``exact`` form; ring elements as they are."""
    return exact(coeff) if isinstance(coeff, (int, Fraction)) else coeff


def viadd(acc: dict, coeff, vec: Mapping) -> dict:
    """acc += coeff * vec in place; returns acc."""
    if not coeff:
        return acc
    for i, c in vec.items():
        new = acc.get(i, 0) + coeff * c
        if new:
            acc[i] = new
        else:
            acc.pop(i, None)
    return acc


def vsub(a: Mapping, b: Mapping) -> dict:
    return viadd(viadd({}, 1, a), -1, b)


def vscale(coeff, vec: Mapping) -> dict:
    return viadd({}, coeff, vec)


# ---------------------------------------------------------------------------
# graded spaces
# ---------------------------------------------------------------------------

class GradedSpace:
    """Labeled basis graded by integer weights, bounded below and above.

    Basis vectors are sorted by (weight, first appearance), so flat indices
    are weight-major; the deterministic orders used elsewhere are plain flat
    order.  ``tier`` is "exact" (absent = zero) or "truncated" (above-cutoff
    = unknown).
    """

    def __init__(self, basis: Iterable[tuple[str, int]], *, tier: str = "exact",
                 cutoff: int | None = None, min_weight: int | None = None):
        if tier not in ("exact", "truncated"):
            raise ValueError(f"unknown tier {tier!r}")
        items = list(basis)
        items.sort(key=lambda lw: lw[1])
        self.labels: tuple[str, ...] = tuple(l for l, _ in items)
        self.weights: tuple[int, ...] = tuple(w for _, w in items)
        if len(set(self.labels)) != len(self.labels):
            seen = set()
            dup = next(l for l in self.labels if l in seen or seen.add(l))
            raise ValueError(f"duplicate basis label {dup!r}")
        self.index: dict[str, int] = {l: i for i, l in enumerate(self.labels)}
        self.by_weight: dict[int, tuple[int, ...]] = {}
        for i, w in enumerate(self.weights):
            self.by_weight.setdefault(w, ())
            self.by_weight[w] += (i,)
        lo = min(self.weights) if self.weights else 0
        hi = max(self.weights) if self.weights else 0
        self.min_weight: int = lo if min_weight is None else min_weight
        self.cutoff: int = hi if cutoff is None else cutoff
        self.tier = tier
        if self.weights and hi > self.cutoff:
            raise ValueError(f"weight {hi} is above the cutoff {self.cutoff}")
        if self.weights and lo < self.min_weight:
            raise ValueError(f"weight {lo} is below the bottom weight {self.min_weight}")

    def __len__(self) -> int:
        return len(self.labels)

    def dim(self, weight: int) -> int:
        return len(self.by_weight.get(weight, ()))

    def dims(self) -> dict[int, int]:
        return {w: len(ix) for w, ix in sorted(self.by_weight.items())}

    def weight_of(self, i: int) -> int:
        return self.weights[i]

    def label_of(self, i: int) -> str:
        return self.labels[i]

    def basis_vec(self, key) -> dict:
        i = self.index[key] if isinstance(key, str) else key
        return {i: 1}

    def describe(self, vec: Mapping) -> dict:
        """Vector re-keyed by basis label, in flat order (for reports)."""
        return {self.labels[i]: vec[i] for i in sorted(vec)}

    def with_cutoff(self, cutoff: int) -> "GradedSpace":
        return GradedSpace(
            list(zip(self.labels, self.weights)),
            tier=self.tier, cutoff=cutoff, min_weight=self.min_weight,
        )


def mode_window(space: GradedSpace, weight: int, fringe: int = 0) -> range:
    """Mode indices n for which u_n v, with wt u + wt v = weight, lands in space.

    By the weight rule the result has weight ``weight - n - 1``; the window
    keeps it between the bottom weight and the cutoff, extended ``fringe``
    weights above the cutoff.
    """
    return range(weight - 1 - space.cutoff - fringe, weight - 1 - space.min_weight + 1)


def mode_triples(left: GradedSpace, right: GradedSpace, space: GradedSpace,
                 shift: int = 0, fringe: int = 0):
    """(a, n, b) for bases a of ``left``, b of ``right`` and n in the mode
    window of ``space`` at weight wt a + wt b + shift, so that a_{n-shift} b
    lands in the window; ordered by a, then b, then n ascending."""
    for a, wa in enumerate(left.weights):
        for b, wb in enumerate(right.weights):
            for n in mode_window(space, wa + wb + shift, fringe):
                yield a, n, b


# ---------------------------------------------------------------------------
# graded maps
# ---------------------------------------------------------------------------

class GradedMap:
    """A linear map between graded spaces shifting weights by a fixed degree.

    ``undefined_source_weights`` are the source weights whose image would
    land above the cutoff of a truncated target (the translation map of a
    truncated algebra is undefined on the top weight); applying the map to a
    vector supported there raises TruncationBreach with the weight the image
    would need.
    """

    def __init__(self, source: GradedSpace, target: GradedSpace, degree: int = 0):
        self.source = source
        self.target = target
        self.degree = degree
        self.undefined_source_weights = frozenset(
            w for w in source.by_weight if w + degree > target.cutoff
        ) if target.tier == "truncated" else frozenset()
        self.columns: dict[int, dict] = {}

    def set_entry(self, target_index: int, source_index: int, coeff) -> None:
        want = self.source.weight_of(source_index) + self.degree
        have = self.target.weight_of(target_index)
        if want != have:
            raise WeightRuleViolation(
                f"map entry {self.source.label_of(source_index)} -> "
                f"{self.target.label_of(target_index)} violates degree {self.degree}",
                entry=(target_index, source_index),
            )
        col = self.columns.setdefault(source_index, {})
        if coeff:
            col[target_index] = _stored(coeff)
        else:
            col.pop(target_index, None)
            if not col:
                del self.columns[source_index]

    def set_column(self, source_index: int, vec: Mapping) -> None:
        self.columns.pop(source_index, None)
        for t, c in vec.items():
            self.set_entry(t, source_index, c)

    def column(self, source_index: int) -> dict:
        return self.columns.get(source_index, {})

    def apply(self, vec: Mapping) -> dict:
        out: dict = {}
        for s, c in vec.items():
            if not c:
                continue
            w = self.source.weight_of(s)
            if w in self.undefined_source_weights:
                raise TruncationBreach(w + self.degree, "graded map undefined there")
            col = self.columns.get(s)
            if col:
                viadd(out, c, col)
        return out

    def compose(self, inner: "GradedMap") -> "GradedMap":
        """self after inner."""
        out = GradedMap(inner.source, self.target, self.degree + inner.degree)
        for s, col in inner.columns.items():
            out.set_column(s, self.apply(col))
        return out

    def is_zero(self) -> bool:
        return not self.columns

    def items_sorted(self):
        """Yields (source index, target index, coeff) in deterministic order."""
        for s in sorted(self.columns):
            col = self.columns[s]
            for t in sorted(col):
                yield s, t, col[t]

    def __eq__(self, other):
        if not isinstance(other, GradedMap):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.source.labels == other.source.labels
            and self.target.labels == other.target.labels
            and {s: dict(c) for s, c in self.columns.items()}
            == {s: dict(c) for s, c in other.columns.items()}
        )

    def __repr__(self):
        body = ", ".join(
            f"{self.source.label_of(s)}->{self.target.label_of(t)}:{c}"
            for s, t, c in self.items_sorted()
        )
        return f"GradedMap(degree={self.degree}, {{{body}}})"


# ---------------------------------------------------------------------------
# mode families
# ---------------------------------------------------------------------------

class ModeFamily:
    """Sparse structure constants (u, n, v) -> target vector, weight-rule checked.

    ``left`` and ``right`` are the argument spaces, ``target`` the value
    space; the adjoint action has all three equal.  ``from_labels`` and
    ``by_labels`` are the one place a table's labels turn into flat indices
    and back.
    """

    def __init__(self, left: GradedSpace, right: GradedSpace, target: GradedSpace):
        self.left = left
        self.right = right
        self.target = target
        self.entries: dict[tuple[int, int, int], dict] = {}

    @classmethod
    def from_labels(cls, left: GradedSpace, right: GradedSpace, target: GradedSpace,
                    items: Iterable[tuple[tuple[str, int, str], Mapping]]) -> "ModeFamily":
        """A family from ((u label, n, v label), {target label: coeff}) pairs,
        set in the order given."""
        family = cls(left, right, target)
        li, ri, ti = left.index, right.index, target.index
        for (u, n, v), vec in items:
            family.set_entry(li[u], n, ri[v], {ti[t]: c for t, c in vec.items()})
        return family

    def by_labels(self) -> dict:
        """The table keyed by labels, sorted by (u, n, v), targets in flat order."""
        ll, rl, tl = self.left.labels, self.right.labels, self.target.labels
        return {(ll[u], n, rl[v]): {tl[t]: vec[t] for t in sorted(vec)}
                for u, n, v, vec in self.iter_entries()}

    def set_entry(self, u: int, n: int, v: int, vec: Mapping) -> None:
        expected = self.left.weight_of(u) + self.right.weight_of(v) - n - 1
        clean = {t: _stored(c) for t, c in vec.items() if c}
        for t in clean:
            if self.target.weight_of(t) != expected:
                raise WeightRuleViolation(
                    f"entry ({self.left.label_of(u)}, {n}, {self.right.label_of(v)}) "
                    f"-> {self.target.label_of(t)} has weight "
                    f"{self.target.weight_of(t)}, weight rule demands {expected}",
                    entry=(u, n, v, t),
                )
        if clean:
            self.entries[(u, n, v)] = clean
        else:
            self.entries.pop((u, n, v), None)

    def entry(self, u: int, n: int, v: int) -> dict | None:
        return self.entries.get((u, n, v))

    def iter_entries(self):
        """Yields (u, n, v, vector) sorted by (u, n, v)."""
        for key in sorted(self.entries):
            yield (*key, self.entries[key])

    def copy(self) -> "ModeFamily":
        dup = ModeFamily(self.left, self.right, self.target)
        for u, n, v, vec in self.iter_entries():
            dup.set_entry(u, n, v, vec)
        return dup

    def __eq__(self, other):
        if not isinstance(other, ModeFamily):
            return NotImplemented
        return self.entries == other.entries

    def __bool__(self):
        return bool(self.entries)


def mode_apply(family: ModeFamily, uvec: Mapping, n: int, vvec: Mapping) -> dict:
    """u_n v extended bilinearly to sparse vectors (absent entries act as zero)."""
    out: dict = {}
    entries = family.entries
    for u, cu in uvec.items():
        for v, cv in vvec.items():
            e = entries.get((u, n, v))
            if e:
                viadd(out, cu * cv, e)
    return out


# ---------------------------------------------------------------------------
# algebras and modules
# ---------------------------------------------------------------------------

class VertexAlgebra:
    """A mode family on a single graded space with a weight-zero vacuum vector.

    ``ring`` is read off the stored coefficients, never set.  Build through
    build_vertex_algebra for label-level input validation.
    """

    def __init__(self, space: GradedSpace, vacuum: int, Y: ModeFamily):
        self.space = space
        self.vacuum = vacuum
        self.Y = Y

    @property
    def ring(self) -> str:
        """"dual" when a stored coefficient is a JetScalar (a first-order
        family a + b t), else "rational"."""
        return "dual" if any(
            isinstance(c, JetScalar) for vec in self.Y.entries.values() for c in vec.values()
        ) else "rational"

    def vacuum_vec(self) -> dict:
        return {self.vacuum: 1}

    def entries_by_labels(self) -> dict:
        """Mode table keyed by labels, for dumps and table surgery in tests."""
        return self.Y.by_labels()

    def same_content(self, other: "VertexAlgebra") -> bool:
        """Same labeled basis, weights, vacuum and mode table (not object identity)."""
        return (
            self.space.labels == other.space.labels
            and self.space.weights == other.space.weights
            and self.vacuum == other.vacuum
            and self.Y.entries == other.Y.entries
        )


class VAModule:
    """A module: a graded space with an action of the algebra and its own translation.

    ``Y_W`` has the algebra space on the left and the module space on the
    right and target; ``T_W`` is a degree-1 graded map of the module space.
    """

    def __init__(self, space: GradedSpace, Y_W: ModeFamily, T_W: GradedMap):
        if Y_W.right is not space or Y_W.target is not space:
            raise ValueError("module action must land in the module space")
        if T_W.degree != 1:
            raise ValueError("module translation must have degree 1")
        self.space = space
        self.Y_W = Y_W
        self.T_W = T_W

    @property
    def algebra_space(self) -> GradedSpace:
        return self.Y_W.left

    def same_content(self, other: "VAModule") -> bool:
        """Same labeled basis, weights, action table and translation (not
        object identity)."""
        return (
            self.space.labels == other.space.labels
            and self.space.weights == other.space.weights
            and self.Y_W.entries == other.Y_W.entries
            and self.T_W == other.T_W
        )


def build_vertex_algebra(space: GradedSpace, vacuum: str, entries: Mapping) -> VertexAlgebra:
    """Assemble an algebra from a label-keyed mode table.

    ``entries`` maps (u label, n, v label) to {target label: coefficient};
    the algebra's ``ring`` follows from the coefficients.
    Raises NoVacuum / VacuumWrongWeight for a bad vacuum and
    WeightRuleViolation for any entry off the weight rule.  No axioms are
    checked here — that is the checker's job.
    """
    if vacuum not in space.index:
        raise NoVacuum(f"vacuum label {vacuum!r} is not a basis vector")
    vac = space.index[vacuum]
    if space.weight_of(vac) != 0:
        raise VacuumWrongWeight(
            f"vacuum {vacuum!r} has weight {space.weight_of(vac)}, expected 0"
        )
    return VertexAlgebra(space, vac, ModeFamily.from_labels(space, space, space, entries.items()))


# ---------------------------------------------------------------------------
# derived operations
# ---------------------------------------------------------------------------

def exp_T(tmap: GradedMap, j: int, vec: Mapping) -> dict:
    """(1/j!) T^j applied to a vector; exact, and zero once the image leaves the space.

    On truncated spaces an image that would cross the cutoff raises
    TruncationBreach (from the map's undefined weights).
    """
    if j < 0:
        raise ValueError("negative power of the translation map")
    out = dict(vec)
    for _ in range(j):
        if not out:
            return {}
        out = tmap.apply(out)
    return vscale(inv_factorial(j), out) if j else out


def skew_mode(module: VAModule, wvec: Mapping, n: int, vvec: Mapping) -> dict:
    """The action of a module element on an algebra element, by skew-symmetry:

        w_n v = sum_{j >= 0} (-1)^(n+j+1) (1/j!) T_W^j ( v_{n+j} w )

    The sum is finite because v_{n+j} w lives below the bottom weight once j
    is large.  On the truncated tier a result weight above the cutoff raises
    TruncationBreach before anything is computed; results at or below the
    cutoff only ever need intermediates at or below their own weight, so they
    are exact.
    """
    if not wvec or not vvec:
        return {}
    wspace = module.space
    vspace = module.algebra_space
    w_top = max(wspace.weight_of(i) for i in wvec)
    v_top = max(vspace.weight_of(i) for i in vvec)
    result_weight = v_top + w_top - n - 1
    if wspace.tier == "truncated" and result_weight > wspace.cutoff:
        raise TruncationBreach(result_weight, "skew-applied mode")
    out: dict = {}
    for j in range(0, result_weight - wspace.min_weight + 1):
        inner = mode_apply(module.Y_W, vvec, n + j, wvec)
        if inner:
            sign = -1 if (n + j + 1) % 2 else 1
            viadd(out, sign, exp_T(module.T_W, j, inner))
    return out
