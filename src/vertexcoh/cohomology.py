"""Low-degree cohomology: derivations and square-zero classes.

Degree one and the coboundaries of degree two read one linear map, the
coboundary on degree-zero maps f: V -> W,

    (delta f)(u, n, v) = -f(u_n v) + f(u)_n v + u_n f(v),

where f(u)_n v is a module element acting back on the algebra through
skew-symmetry (``_right_lookup``).  ``derivation_system`` is its one form: a
stream of rows, one per cochain slot and tagged with that slot, each built as
it is drawn.  Four readers draw it once each, and each reads a row's slot off
its tag.  Its kernel is H1, the derivations
(``compute_der``, which draws rows only until delta has full column rank);
its columns at vacuum-killing unknowns span B2 (``compute_h2``);
``coboundary`` applies it to one vacuum-killing map; and ``is_coboundary``
solves psi = delta g against it, drawing rows only until one is
inconsistent.

Degree two is deliberately operational.  A candidate 2-cochain psi is a
degree-zero mode family (V, V) -> W obeying the weight rule; its *residual*
is the full list of axiom-instance residuals of the square-zero extension
built along psi, projected to the fiber.  Because the fiber multiplies to
zero, that residual is affine in psi (zero at psi = 0 when W is a lawful
module) and vanishes exactly when the extension passes the checker.  So the
cocycles come from one run of the checker over the jet ring
Q[t_1..t_k]/(t_i t_j), with every cochain slot set to its own unknown t_i:
the slopes of each fiber coordinate are one row of the cocycle matrix, and
Z2 is its kernel (``compute_z2``).  Those rows stream from the checker
(``residual_items``) into Echelon.extend, the elimination compute_der feeds
derivation_system to, so the residual is never held whole.  The quotient by
B2 is the cohomology.  No cocycle equation is ever written down separately
from the checker that justifies it.

Slot order is (wt u, u, n, v, target), flat indices weight-major, so every
result is deterministic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping

from .axioms import (_gen_creation, _gen_identity, _gen_jacobi, _gen_skew,
                     _gen_translation, translation_map)
from .linalg import Echelon, SubspaceNotContained, solve_affine
from .linalg import quotient_dim  # unused; perfbench/tracer.py wraps cohomology.quotient_dim
from .scalars import JetScalar, exact, value_part
from .spaces import (
    GradedMap,
    ModeFamily,
    TruncationBreach,
    VAModule,
    VertexAlgebra,
    mode_triples,
    skew_mode,
    viadd,
)


class VacuumNotKilled(Exception):
    """A coboundary source map must vanish on the vacuum."""


def _sample(coords) -> str:
    """The first three residual coordinates, and how many more there are."""
    sample = ", ".join(str(c) for c in coords[:3])
    more = "" if len(coords) <= 3 else f" (+{len(coords) - 3} more)"
    return sample + more


class NotACocycle(Exception):
    """is_coboundary was handed a cochain whose extension fails the checker."""

    def __init__(self, coords):
        super().__init__(f"nonzero residual at {_sample(coords)}")
        self.coords = coords


class ModuleAxiomsFail(Exception):
    """The split extension (psi = 0) fails the checker: W is not a lawful module.

    Then no cochain is a cocycle, and Z2 and H2 are not defined.  The
    coordinates come sorted, as in NotACocycle, so the message does not
    depend on the order in which the checker sums its terms.
    """

    def __init__(self, coords):
        super().__init__(
            f"the module fails its axioms: the split extension has nonzero "
            f"residual at {_sample(coords)}"
        )
        self.coords = coords


@dataclass
class TwoCochain:
    """A degree-zero candidate 2-cochain: sparse modes (V, V) -> W.

    Arithmetic is pointwise; the weight rule is enforced on every stored
    entry by the underlying mode family.
    """

    V: VertexAlgebra
    W: VAModule
    psi: ModeFamily = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.psi is None:
            self.psi = ModeFamily(self.V.space, self.V.space, self.W.space)

    @classmethod
    def zero(cls, V: VertexAlgebra, W: VAModule) -> "TwoCochain":
        return cls(V, W)

    @classmethod
    def from_entries(cls, V: VertexAlgebra, W: VAModule, entries: Mapping) -> "TwoCochain":
        """Entries keyed by (u label, n, v label) -> {target label: coeff}."""
        return cls(V, W, ModeFamily.from_labels(V.space, V.space, W.space, entries.items()))

    @classmethod
    def from_slots(cls, V: VertexAlgebra, W: VAModule, vec: Mapping) -> "TwoCochain":
        """Slot-vector form: {(u, n, v, target): coeff} with flat indices."""
        grouped: dict[tuple[int, int, int], dict[int, Fraction]] = {}
        for (u, n, v, t), c in vec.items():
            if c:
                grouped.setdefault((u, n, v), {})[t] = c
        out = cls(V, W)
        for (u, n, v), col in grouped.items():
            out.psi.set_entry(u, n, v, col)
        return out

    def entry(self, u: int, n: int, v: int) -> dict | None:
        return self.psi.entry(u, n, v)

    def slots(self) -> dict[tuple[int, int, int, int], Fraction]:
        return {
            (u, n, v, t): c
            for u, n, v, vec in self.psi.iter_entries()
            for t, c in sorted(vec.items())
        }

    def entries_by_labels(self) -> dict:
        return self.psi.by_labels()

    def _combine(self, other: "TwoCochain", sign: int) -> "TwoCochain":
        if other.V is not self.V and not self.V.same_content(other.V):
            raise ValueError("cochains live over different algebras")
        if other.W is not self.W and not self.W.same_content(other.W):
            raise ValueError("cochains take values in different modules")
        out = TwoCochain(self.V, self.W)
        keys = set(self.psi.entries) | set(other.psi.entries)
        for (u, n, v) in sorted(keys):
            vec = dict(self.psi.entries.get((u, n, v), {}))
            viadd(vec, sign, other.psi.entries.get((u, n, v), {}))
            out.psi.set_entry(u, n, v, vec)
        return out

    def __add__(self, other: "TwoCochain") -> "TwoCochain":
        return self._combine(other, 1)

    def __sub__(self, other: "TwoCochain") -> "TwoCochain":
        return self._combine(other, -1)

    def scale(self, coeff) -> "TwoCochain":
        out = TwoCochain(self.V, self.W)
        for u, n, v, vec in self.psi.iter_entries():
            out.psi.set_entry(u, n, v, {t: coeff * c for t, c in vec.items()})
        return out

    def __bool__(self):
        return bool(self.psi)

    def __eq__(self, other):
        if not isinstance(other, TwoCochain):
            return NotImplemented
        return self.psi.entries == other.psi.entries


@dataclass
class CohomologyResult:
    """Dimensions and witnesses for one cohomology degree.

    ``h_dim`` is dim span(cocycle_basis) - dim span(coboundary_basis);
    ``representative_classes`` are cocycle-basis members independent modulo
    the coboundaries, one per class.  ``window`` is None on exact tiers and
    "level-N" on truncated ones, flagging that every claim is about the
    enumerated window only.
    """

    degree: int
    h_dim: int
    cocycle_basis: list = field(default_factory=list)
    coboundary_basis: list = field(default_factory=list)
    representative_classes: list = field(default_factory=list)
    window: str | None = None


def _window_label(V: VertexAlgebra) -> str | None:
    return f"level-{V.space.cutoff}" if V.space.tier == "truncated" else None


# ---------------------------------------------------------------------------
# cochain slot enumeration (the slot order everything shares)
# ---------------------------------------------------------------------------

def _mode_index_triples(V: VertexAlgebra, W: VAModule) -> list[tuple[int, int, int]]:
    """(u, n, v) windows where a degree-zero cochain may be nonzero: those
    whose target weight W populates, in slot order (u, then n, then v)."""
    wt, populated = V.space.weights, W.space.by_weight
    return sorted((u, n, v) for u, n, v in mode_triples(V.space, V.space, W.space)
                  if wt[u] + wt[v] - n - 1 in populated)


def cochain_slots(V: VertexAlgebra, W: VAModule) -> list[tuple[int, int, int, int]]:
    """All (u, n, v, target) a degree-zero 2-cochain may populate, slot order."""
    wt, by_weight = V.space.weight_of, W.space.by_weight
    return [
        (u, n, v, t)
        for u, n, v in _mode_index_triples(V, W)
        for t in by_weight[wt(u) + wt(v) - n - 1]
    ]


# ---------------------------------------------------------------------------
# degree one
# ---------------------------------------------------------------------------

def _right_lookup(W: VAModule):
    """(w, n, v) -> w_n v for basis w of W and v of V, by skew-symmetry.

    Each value is computed on first use and memoised for the lookup's
    lifetime; callers only read the returned vectors.
    """
    return functools.cache(lambda w, n, v: skew_mode(W, {w: 1}, n, {v: 1}))


def _delta_unknowns(V: VertexAlgebra, W: VAModule) -> list[tuple[str, int, int]]:
    """The unknowns ("f", source, target) of delta, flat order, vacuum included."""
    wt, by_weight = V.space.weight_of, W.space.by_weight
    return [("f", v, t) for v in range(len(V.space)) for t in by_weight.get(wt(v), ())]


def _as_map(V: VertexAlgebra, W: VAModule, vec: Mapping) -> GradedMap:
    """The degree-zero map V -> W whose entries are ``vec`` over _delta_unknowns."""
    gmap = GradedMap(V.space, W.space, 0)
    for (_f, v, t), c in vec.items():
        gmap.set_entry(t, v, c)
    return gmap


def derivation_system(V: VertexAlgebra, W: VAModule):
    """The matrix of the coboundary delta on degree-zero maps f: V -> W, as
    a stream of (coefficients, slot) rows built as they are drawn.

    One row per cochain slot (u, n, v, t), in cochain_slots order, over
    _delta_unknowns: the coefficients of

        (delta f)(u, n, v)_t = -f(u_n v) + f(u)_n v + u_n f(v)

    tagged with that slot, nonzero coefficients only, in exact form.  The
    readers take each row's slot from its tag.  The rows of one (u, n, v)
    are built together, and the right action f(u)_n v is looked up on demand.
    """
    wsp, wt = W.space, V.space.weight_of
    right = _right_lookup(W)

    for u, n, v in _mode_index_triples(V, W):
        # coefficient dicts per target coordinate, built from the three terms
        per_target: dict[int, dict] = {
            tt: {} for tt in wsp.by_weight[wt(u) + wt(v) - n - 1]
        }

        def put(uid, vec: dict) -> None:
            for tt, c in vec.items():
                row = per_target[tt]
                row[uid] = row.get(uid, 0) + c

        for x, cx in (V.Y.entry(u, n, v) or {}).items():     # - f(u_n v)
            for tt in per_target:
                put(("f", x, tt), {tt: -cx})
        for t in wsp.by_weight.get(wt(u), ()):               # + f(u)_n v
            put(("f", u, t), right(t, n, v))
        for t in wsp.by_weight.get(wt(v), ()):               # + u_n f(v)
            put(("f", v, t), W.Y_W.entry(u, n, t) or {})

        for tt, row in per_target.items():
            yield {uid: exact(c) for uid, c in row.items() if c}, (u, n, v, tt)


def compute_der(V: VertexAlgebra, W: VAModule) -> CohomologyResult:
    """All derivations V -> W, as graded maps, with the kernel as class basis.

    derivation_system feeds Echelon.extend directly: once delta has full
    column rank the kernel is {0}, and no further row is built.
    """
    ech = Echelon(_delta_unknowns(V, W))
    ech.extend(derivation_system(V, W))
    maps = [_as_map(V, W, vec) for vec in ech.kernel()]
    return CohomologyResult(
        degree=1,
        h_dim=len(maps),
        cocycle_basis=maps,
        coboundary_basis=[],
        representative_classes=maps,
        window=_window_label(V),
    )


# ---------------------------------------------------------------------------
# degree two
# ---------------------------------------------------------------------------

def coboundary(V: VertexAlgebra, W: VAModule, g: GradedMap) -> TwoCochain:
    """The 2-cochain delta g (u, n, v) = -g(u_n v) + g(u)_n v + u_n g(v).

    ``g`` must be degree zero and kill the vacuum (VacuumNotKilled otherwise):
    these are exactly the maps whose coboundaries deform nothing.
    """
    if g.degree != 0:
        raise ValueError("coboundary source map must have degree 0")
    if g.column(V.vacuum):
        raise VacuumNotKilled(
            f"g({V.space.label_of(V.vacuum)}) must be zero, got a nonzero image"
        )
    gvec = {("f", v, t): c for v, col in g.columns.items() for t, c in col.items()}
    return TwoCochain.from_slots(V, W, {
        slot: sum(c * gvec.get(uid, 0) for uid, c in row.items())
        for row, slot in derivation_system(V, W)
    })


def vacuum_killing_basis(V: VertexAlgebra, W: VAModule) -> list[GradedMap]:
    """Elementary degree-zero maps V -> W vanishing on the vacuum: one per
    unknown of delta off the vacuum, in _delta_unknowns order."""
    return [_as_map(V, W, {uid: 1}) for uid in _delta_unknowns(V, W) if uid[1] != V.vacuum]


def residual_items(V: VertexAlgebra, W: VAModule, psi: TwoCochain):
    """Fiber projection of every axiom residual of the extension along psi.

    Yields ((axiom, instance, fiber label), coefficient), nonzero
    coefficients only, in check_all's instance order; nothing is yielded
    when the extension passes within its window.  Breaches (instances the
    truncation makes unverifiable) are skipped, so the pass covers the
    window only: skew-symmetry and Jacobi run with fringe 0 on either tier,
    omitting check_all's depth-1 fringe, whose instances all need a state
    of weight cutoff + 1 and always breach.  Linearity in psi holds because
    the fiber squares to zero.
    """
    from .extensions import build_extension     # extensions imports this module

    ext = build_extension(V, W, psi)
    total = ext.total
    tmap = translation_map(total)
    fiber_of_total = {ti: wi for wi, ti in enumerate(ext.fiber_to_total)}
    wlab = W.space.label_of
    generators = (
        _gen_identity(total.Y, total.vacuum),
        _gen_creation(total),
        _gen_translation(total.Y, tmap, tmap),
        _gen_skew(total, tmap, 0),
        _gen_jacobi(total.Y, total.Y, 0),
    )
    for gen in generators:
        for axiom, inst, result in gen:
            if isinstance(result, TruncationBreach):
                continue
            for t, c in result.items():
                wi = fiber_of_total.get(t)
                if wi is not None and c:
                    yield (axiom, inst, wlab(wi)), c


def cocycle_residual(V: VertexAlgebra, W: VAModule, psi: TwoCochain) -> dict:
    """{(axiom, instance, fiber label): coefficient}: residual_items as a dict;
    empty means the extension passes within its window."""
    return dict(residual_items(V, W, psi))


def compute_z2(V: VertexAlgebra, W: VAModule,
               rank_bound: int | None = None) -> list[TwoCochain]:
    """Z2, the kernel of the cocycle residual, from one run of the checker.

    Slot i of one symbolic cochain holds the jet unknown t_i (a JetScalar),
    and residual_items runs once over it.  Each fiber coordinate it yields
    is a + sum_i b_i t_i: the slopes b_i are that coordinate's row of the
    cocycle matrix over the slots, tagged with the coordinate, and the value
    a is the residual of the split extension, psi = 0.  As in compute_der,
    the rows feed Echelon.extend as they are yielded and Z2 is read off the
    echelon, so the residual is never held whole.

    This is exact, not a first-order approximation:

    - the fiber squares to zero, so the residual is affine in psi; the jet
      ring drops only products t_i t_j, which the residual does not contain;
    - every instance the residual skips (a TruncationBreach) is skipped for
      its weights alone, never because of psi.  Jacobi and skew-symmetry test
      weights before they evaluate, and skew_mode's exp_T only translates
      states below the result weight.  In the translation identities u_n w
      has weight at most cutoff - 1 across the window, so T_act never meets
      psi on the top weight, and T.apply(u) and T_act.apply(w) break on the
      weights of u and w.  So the skipped set is the same for every psi,
      symbolic or rational, and each row holds for all of them.

    ``rank_bound`` is an expected rank of the cocycle matrix, passed to
    Echelon.extend (compute_h2 passes slots - dim B2, which bounds it from
    above because B2 lies in Z2).  Past it, rows are checked exactly against
    the kernel instead of reduced; the basis is the one full elimination
    gives, whatever the bound.

    Raises ModuleAxiomsFail, naming every coordinate with a nonzero value
    part: then W breaks its own module axioms and no cochain is a cocycle.
    From the first such coordinate on no row reaches the echelon, and the
    stream is drained once extend returns, since extend stops drawing rows
    at full rank.
    """
    slots = cochain_slots(V, W)
    psi = TwoCochain.from_slots(V, W, {slot: JetScalar(0, {i: 1})
                                       for i, slot in enumerate(slots)})
    broken = []

    def rows():
        for coord, c in residual_items(V, W, psi):
            if value_part(c):
                broken.append(coord)
            elif not broken:
                yield {slots[i]: b for i, b in c.slopes.items()}, coord

    stream = rows()
    ech = Echelon(slots)
    ech.extend(stream, rank_bound)
    for _row in stream:         # drain: the module check needs every coordinate
        pass
    if broken:
        raise ModuleAxiomsFail(sorted(broken))
    return [TwoCochain.from_slots(V, W, vec) for vec in ech.kernel()]


def compute_h2(V: VertexAlgebra, W: VAModule) -> CohomologyResult:
    """Cocycles, coboundaries, the quotient dimension, and representatives.

    One elimination over the cochain slots reads all of them.  The
    coboundary candidates are delta of the elementary vacuum-killing maps
    (vacuum_killing_basis order): the columns of delta's matrix at the
    unknowns ("f", v, t) with v not the vacuum.  They go in first, and the
    independent ones are the B2 basis.  B2 lies in Z2, so the cocycle
    matrix has rank at most slots - dim B2, and compute_z2 gets that bound.
    The Z2 basis goes in next, and the members independent modulo B2 are the
    representatives, so h_dim is their count.  B2 lies in Z2 exactly when
    the two counts add up to dim Z2; SubspaceNotContained is raised
    otherwise.
    """
    slots = cochain_slots(V, W)
    columns: dict = {uid: {} for uid in _delta_unknowns(V, W)}
    for row, slot in derivation_system(V, W):
        for uid, c in row.items():
            columns[uid][slot] = c
    picked = Echelon(slots)
    b_basis = [
        TwoCochain.from_slots(V, W, col)
        for uid, col in columns.items()
        if uid[1] != V.vacuum and picked.insert(col) is not None
    ]
    z_basis = compute_z2(V, W, len(slots) - len(b_basis))
    reps = [z for z in z_basis if picked.insert(z.slots()) is not None]
    if len(b_basis) + len(reps) != len(z_basis):
        raise SubspaceNotContained("a coboundary does not lie in the span of Z2")
    return CohomologyResult(
        degree=2,
        h_dim=len(reps),
        cocycle_basis=z_basis,
        coboundary_basis=b_basis,
        representative_classes=reps,
        window=_window_label(V),
    )


def _require_cocycle(V: VertexAlgebra, W: VAModule, psi: TwoCochain) -> None:
    """Raise NotACocycle unless the extension along psi passes within its window."""
    residual = cocycle_residual(V, W, psi)
    if any(residual.values()):
        raise NotACocycle(sorted(residual))


def is_coboundary(V: VertexAlgebra, W: VAModule, psi: TwoCochain) -> GradedMap | None:
    """Solve psi = delta g over vacuum-killing g; None when no solution exists.

    Raises NotACocycle when psi is not a cocycle in the first place (nonzero
    extension residual): asking whether a non-cocycle is a coboundary is a
    category error, not a "no".

    The solve comes first, and the cocycle pass runs only to explain a "no".
    It draws delta's rows only up to the first one inconsistent with psi.
    A vacuum-killing g with delta g = psi on every cochain slot makes
    h(v, w) = (v, w + g(v)) an exact degree-0 isomorphism, fixing the
    vacuum, from the split extension onto the one along psi.  When V and W
    pass the checker the split extension passes, so the one along psi passes
    too and psi is a cocycle.  So on such V and W the answer is that of the
    cocycle pass followed by the solve.  On a V or W that fails the checker,
    a solvable psi gets its g rather than NotACocycle; a caller that has not
    verified them runs the cocycle pass itself where the difference matters.
    """
    psi_slots = psi.slots()
    rows = ((row, psi_slots.get(slot, 0), slot) for row, slot in derivation_system(V, W))
    solution = solve_affine(_delta_unknowns(V, W), rows)
    if solution is not None:
        gmap = _as_map(V, W, solution)
        if not gmap.column(V.vacuum):
            return gmap
    _require_cocycle(V, W, psi)
    # the residual check leaves psi(1, -1, 1) = 0 and W's identity axiom, so
    # the vacuum rows read f(1) = 0: a solution would have killed the vacuum
    return None
