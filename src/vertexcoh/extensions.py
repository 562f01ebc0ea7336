"""Square-zero extensions and first-order deformations, in exact bijection.

An extension along a candidate 2-cochain psi puts the module on top of the
algebra as a square-zero ideal:

    (v1, w1)_n (v2, w2) = ( v1_n v2,
                            v1_n w2 + skew(w1)_n v2 + psi(v1)_n v2 )

with vacuum (vacuum, 0).  A first-order deformation stores the same data as
dual numbers, jets in one direction t, on the original space: Y_t = Y + t psi,
so the value part is the undeformed algebra and the slope part is psi.  The two
constructions carry identical information entry for entry, and the axiom
checker runs unchanged over either scalar ring — the acceptance suite holds
the two verdicts equal on random cochains, cocycle or not.

Equivalence in both pictures reduces to the same linear question
psi_1 - psi_2 = delta g.  The two equivalence checks take the cochains, build
their own structures, verify the first, and read delta off W's action for
extensions and off V's adjoint action for deformations.  The certificate g is
then verified *exactly* — as a total-space isomorphism commuting with the
projections for extensions, and as the identity f_t = 1 + t g over dual
numbers for deformations.  A verified certificate is the proof: an exact
isomorphism from a verified structure onto the second one makes the
difference a cocycle.  So the shear is solved for first, and the cocycle
pass over the difference runs only to explain a "no".
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import AxiomReport, _record, check_all, translation_map
from .cohomology import (
    NotACocycle,
    TwoCochain,
    _require_cocycle,
    is_coboundary,
)
from .presets import adjoint_module
from .scalars import JetScalar
from .spaces import (
    GradedMap,
    GradedSpace,
    ModeFamily,
    VAModule,
    VertexAlgebra,
    mode_apply,
    mode_triples,
    skew_mode,
    viadd,
    vsub,
)


class NotVerified(Exception):
    """An operation needs a verified extension or deformation, which fails to verify."""


FIBER_PREFIX = "w:"


@dataclass
class SquareZeroExtension:
    """The total algebra with projection and inclusion bookkeeping.

    ``base_to_total`` / ``fiber_to_total`` map flat indices into the total
    space; ``proj`` collapses the fiber, ``incl`` embeds it, and psi is the
    cochain the construction was built along.
    """

    base: VertexAlgebra
    fiber: VAModule
    psi: TwoCochain
    total: VertexAlgebra
    proj: GradedMap
    incl: GradedMap
    base_to_total: tuple[int, ...]
    fiber_to_total: tuple[int, ...]

    def lift_base(self, vec: dict) -> dict:
        return {self.base_to_total[i]: c for i, c in vec.items()}

    def lift_fiber(self, vec: dict) -> dict:
        return {self.fiber_to_total[i]: c for i, c in vec.items()}


def build_extension(V: VertexAlgebra, W: VAModule, psi: TwoCochain) -> SquareZeroExtension:
    """Assemble the total algebra; the weight rule is re-checked on every entry.

    Fiber labels get the prefix "w:", or "w:w:" and so on, the shortest
    one that no prefixed fiber label shares with a base label, so the total
    of an extension can itself be extended.  A truncated V knows no weight
    above its cutoff, so a module reaching above it is refused (ValueError):
    the total would claim those weights.
    """
    vsp, wsp = V.space, W.space
    if vsp.tier == "truncated" and wsp.cutoff > vsp.cutoff:
        raise ValueError(
            f"the module's cutoff {wsp.cutoff} is above the truncated "
            f"algebra's cutoff {vsp.cutoff}"
        )
    prefix = FIBER_PREFIX
    while any(prefix + lab in vsp.index for lab in wsp.labels):
        prefix += FIBER_PREFIX
    tier = "truncated" if "truncated" in (vsp.tier, wsp.tier) else "exact"
    total_space = GradedSpace(
        [(lab, vsp.weight_of(i)) for i, lab in enumerate(vsp.labels)]
        + [(prefix + lab, wsp.weight_of(i)) for i, lab in enumerate(wsp.labels)],
        tier=tier,
        cutoff=max(vsp.cutoff, wsp.cutoff),
        min_weight=min(vsp.min_weight, wsp.min_weight),
    )
    v_to_total = tuple(total_space.index[lab] for lab in vsp.labels)
    w_to_total = tuple(total_space.index[prefix + lab] for lab in wsp.labels)

    def lift_v(vec: dict) -> dict:
        return {v_to_total[i]: c for i, c in vec.items()}

    def lift_w(vec: dict) -> dict:
        return {w_to_total[i]: c for i, c in vec.items()}

    Y_total = ModeFamily(total_space, total_space, total_space)
    # base x base: algebra part plus the psi deflection into the fiber
    for key in sorted(set(V.Y.entries) | set(psi.psi.entries)):
        u, n, v = key
        vec = lift_v(V.Y.entries.get(key, {}))
        viadd(vec, 1, lift_w(psi.psi.entries.get(key, {})))
        Y_total.set_entry(v_to_total[u], n, v_to_total[v], vec)
    # base x fiber: the module action
    for u, n, w, vec in W.Y_W.iter_entries():
        Y_total.set_entry(v_to_total[u], n, w_to_total[w], lift_w(vec))
    # fiber x base: forced by skew-symmetry from the module action
    for w, n, v in mode_triples(wsp, vsp, wsp):
        vec = skew_mode(W, {w: 1}, n, {v: 1})
        if vec:
            Y_total.set_entry(w_to_total[w], n, v_to_total[v], lift_w(vec))
    # fiber x fiber: nothing — that is what square-zero means

    total = VertexAlgebra(total_space, v_to_total[V.vacuum], Y_total)

    proj = GradedMap(total_space, vsp, 0)
    for i, ti in enumerate(v_to_total):
        proj.set_entry(i, ti, 1)
    incl = GradedMap(wsp, total_space, 0)
    for i, ti in enumerate(w_to_total):
        incl.set_entry(ti, i, 1)
    return SquareZeroExtension(
        base=V, fiber=W, psi=psi, total=total, proj=proj, incl=incl,
        base_to_total=v_to_total, fiber_to_total=w_to_total,
    )


def _homomorphism_residuals(f, src: ModeFamily, dst: ModeFamily):
    """Yields (a, n, b, f(a_n b) - f(a)_n f(b)) for basis a, b of the source.

    ``f`` maps sparse vectors of the source space to the target space; n runs
    over the target's mode window.
    """
    sp = src.left
    images = [f({a: 1}) for a in range(len(sp))]
    for a, n, b in mode_triples(sp, sp, dst.target):
        lhs = f(src.entry(a, n, b) or {})
        yield a, n, b, vsub(lhs, mode_apply(dst, images[a], n, images[b]))


def _gen_structure(ext: SquareZeroExtension):
    """The structural extension checks as (axiom, instance, residual) triples,
    residuals in the total space: the fiber multiplies to zero, the
    projection is a homomorphism onto the base, the inclusion intertwines
    the module action, and the vacuum is the base vacuum."""
    total, V, W = ext.total, ext.base, ext.fiber
    tsp, vsp, wsp = total.space, V.space, W.space

    fiber = ext.fiber_to_total
    for wi, n, wj in mode_triples(wsp, wsp, tsp):     # square-zero ideal
        w1, w2 = fiber[wi], fiber[wj]
        inst = (tsp.label_of(w1), n, tsp.label_of(w2))
        yield "square-zero", inst, total.Y.entry(w1, n, w2) or {}

    # projection homomorphism; base labels are the same in the total space
    for a, n, b, residual in _homomorphism_residuals(ext.proj.apply, total.Y, V.Y):
        inst = (tsp.label_of(a), n, tsp.label_of(b))
        yield "projection", inst, ext.lift_base(residual)

    for v, n, w in mode_triples(vsp, wsp, wsp):      # inclusion intertwines Y_W
        lhs = total.Y.entry(ext.base_to_total[v], n, fiber[w]) or {}
        rhs = ext.lift_fiber(W.Y_W.entry(v, n, w) or {})
        yield "inclusion", (vsp.label_of(v), n, wsp.label_of(w)), vsub(lhs, rhs)

    yield "vacuum-preserved", ("vacuum",), vsub(
        total.vacuum_vec(), ext.lift_base(V.vacuum_vec())
    )


def verify_extension(ext: SquareZeroExtension, detail: bool = False) -> AxiomReport:
    """check_all on the total algebra plus the structural extension checks.

    The structural checks (square-zero, projection, inclusion,
    vacuum-preserved, in that order) go through the checker's own report
    drain, so a failure records its residual by total-space label: for
    vacuum-preserved, the total vacuum minus the lifted base vacuum.  All
    live inside the window, so they pass or fail — never skip, since
    build_extension refuses a module reaching above a truncated base's
    cutoff.  ``detail`` lists the skips, as in check_all.
    """
    return _record(check_all(ext.total, detail), ext.total.space, _gen_structure(ext))


def extension_to_cocycle(ext: SquareZeroExtension) -> TwoCochain:
    """Read the deflection back off a verified extension, entry for entry."""
    report = verify_extension(ext)
    if report.verdict == "fail":
        raise NotVerified(
            f"extension fails verification on {len(report.failed)} instance(s)"
        )
    base_of_total = {t: i for i, t in enumerate(ext.base_to_total)}
    fiber_of_total = {t: i for i, t in enumerate(ext.fiber_to_total)}
    out = TwoCochain(ext.base, ext.fiber)
    for a, n, b, vec in ext.total.Y.iter_entries():
        u = base_of_total.get(a)
        v = base_of_total.get(b)
        if u is None or v is None:
            continue
        deflection = {
            fiber_of_total[t]: c for t, c in vec.items() if t in fiber_of_total
        }
        if deflection:
            out.psi.set_entry(u, v=v, n=n, vec=deflection)
    return out


# ---------------------------------------------------------------------------
# deformations
# ---------------------------------------------------------------------------

@dataclass
class Deformation:
    """Y_t = Y + t psi over dual numbers on the original state space."""

    base: VertexAlgebra
    psi: TwoCochain
    deformed: VertexAlgebra


def build_deformation(V: VertexAlgebra, psi: TwoCochain) -> Deformation:
    """Lift the mode table to one-direction jets with psi in the slope part."""
    if psi.W.space.labels != V.space.labels:
        raise ValueError("deformation cochains must take values in the algebra itself")
    sp = V.space
    Y_t = ModeFamily(sp, sp, sp)
    for key in sorted(set(V.Y.entries) | set(psi.psi.entries)):
        base_vec = V.Y.entries.get(key, {})
        slope_vec = psi.psi.entries.get(key, {})
        Y_t.set_entry(*key, {t: JetScalar(base_vec.get(t, 0), {0: slope_vec.get(t, 0)})
                             for t in set(base_vec) | set(slope_vec)})
    deformed = VertexAlgebra(sp, V.vacuum, Y_t)
    return Deformation(base=V, psi=psi, deformed=deformed)


def deformation_to_extension(defm: Deformation) -> SquareZeroExtension:
    """The same first-order data repackaged as an extension by the adjoint module."""
    return build_extension(defm.base, adjoint_module(defm.base), defm.psi)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

@dataclass
class Equivalence:
    """A verified equivalence certificate: the shear g and how it was applied."""

    g: GradedMap
    kind: str          # "extension" or "deformation"
    note: str


def check_equivalence_extensions(psi1: TwoCochain, psi2: TwoCochain) -> Equivalence | None:
    """Find and verify h(v, w) = (v, w + g(v)) between the extensions along psi1, psi2.

    Both cochains map V x V into the same module W; ValueError otherwise.
    Returns None when psi1 - psi2 is a cocycle but not a coboundary (the
    extensions are genuinely inequivalent); raises NotVerified when the
    extensions fail verification.

    Only the first extension is verified, and a verified certificate proves
    the rest.  Once the first passes, V and W pass (they are its quotient and
    its ideal), so is_coboundary solves psi1 - psi2 = delta g without a
    cocycle pass.  h is then checked exactly: an exact degree-0 isomorphism
    (inverse (v, w) -> (v, w - g(v))) from a verified total onto the second,
    carrying each axiom instance to one of the same weights.  So the second
    extension passes too, psi1 - psi2 = delta g is a cocycle, and the answer
    is "equivalent" with no cocycle pass.

    A "no" comes from is_coboundary's cocycle pass on the difference.  The
    residuals of the total built along psi are R0 + L(psi), L linear,
    because the fiber squares to zero, and the structural checks do not read
    psi.  So if the first passes, R0 = L(psi1) = 0; if psi1 - psi2 is also a
    cocycle, L(psi2) = 0 and the second passes, and if it is not, the second
    fails.  Skips do not depend on psi (see compute_z2).
    """
    V, W = psi1.V, psi1.W
    if not (V.same_content(psi2.V) and W.same_content(psi2.W)):
        raise ValueError("extensions live over different algebras or modules")
    ext1 = build_extension(V, W, psi1)
    if verify_extension(ext1).verdict == "fail":
        raise NotVerified("cannot compare an unverified extension")
    try:
        g = is_coboundary(V, W, psi1 - psi2)
    except NotACocycle:
        raise NotVerified("cannot compare an unverified extension") from None
    if g is None:
        return None

    # exact verification of the certificate on the total spaces
    ext2 = build_extension(V, W, psi2)
    total1, total2 = ext1.total, ext2.total
    tsp = total1.space

    def h(vec: dict) -> dict:
        out = dict(vec)
        base_part = ext1.proj.apply(vec)
        viadd(out, 1, ext2.lift_fiber(g.apply(base_part)))
        return out

    for a, n, b, residual in _homomorphism_residuals(h, total1.Y, total2.Y):
        if residual:
            raise RuntimeError(
                "equivalence certificate failed exact verification "
                f"at ({tsp.label_of(a)}, {n}, {tsp.label_of(b)})"
            )
    for a in range(len(tsp)):                  # commuting diagram, both legs
        avec = {a: 1}
        if ext2.proj.apply(h(avec)) != ext1.proj.apply(avec):
            raise RuntimeError("projection leg of the diagram failed")
    for w in range(len(W.space)):
        wvec = {w: 1}
        if h(ext1.incl.apply(wvec)) != ext2.incl.apply(wvec):
            raise RuntimeError("inclusion leg of the diagram failed")
    if h(total1.vacuum_vec()) != total2.vacuum_vec():
        raise RuntimeError("equivalence does not preserve the vacuum")

    return Equivalence(
        g=g, kind="extension",
        note="h(v, w) = (v, w + g(v)) from total space 1 to total space 2",
    )


def check_equivalence_deformations(psi1: TwoCochain, psi2: TwoCochain) -> Equivalence | None:
    """Find and verify f_t = 1 + t g between the deformations Y + t psi1, Y + t psi2.

    Both cochains take values in V's own labels; ValueError otherwise.  delta
    is always that of V's adjoint action: the deformations do not depend on
    the module psi was read against, so neither does the verdict.  Raises
    NotACocycle when psi1 - psi2 is no cocycle, then NotVerified when the
    first deformation fails the checker; returns None when the difference is
    a cocycle but not a coboundary.

    Only the first deformation is checked, and a verified certificate proves
    the rest.  is_coboundary solves psi1 - psi2 = delta g first.  If the
    first deformed table passes, so does V, and f_t is then checked as the
    exact identity f_t( Y_t^(1)(u)_n v ) = Y_t^(2)( f_t u )_n ( f_t v ) on
    all basis pairs and window modes: an exact degree-0 isomorphism over
    Q[t]/(t^2) (inverse 1 - t g) from a verified table onto the second,
    fixing the vacuum.  So the second deformation passes too, psi1 - psi2 =
    delta g is a cocycle, and the answer is "equivalent" with no cocycle
    pass.  Nothing is truncated or approximated.

    A "no" comes from is_coboundary's cocycle pass on the difference; when
    the first deformation fails after a shear was found, that pass runs
    here, so that a non-cocycle difference is reported first.  The second
    passes by linearity: over Q[t]/(t^2) each residual of Y + t psi is
    R0 + t L(psi), with R0 V's own residual and L the fiber part of the
    adjoint extension's residual, which the cocycle pass reads.  So the
    first passing and the cocycle difference give L(psi2) = 0.
    """
    V = psi1.V
    if not V.same_content(psi2.V):
        raise ValueError("deformations live over different algebras")
    defm1, defm2 = build_deformation(V, psi1), build_deformation(V, psi2)
    adjoint = VAModule(V.space, V.Y, translation_map(V))
    diff = psi1 - psi2
    g = is_coboundary(V, adjoint, diff)
    if check_all(defm1.deformed).verdict == "fail":
        if g is not None:            # found without the cocycle pass
            _require_cocycle(V, adjoint, diff)
        raise NotVerified("cannot compare an unverified deformation")
    if g is None:
        return None

    def f_t(vec: dict) -> dict:
        out = dict(vec)
        viadd(out, JetScalar(0, {0: 1}), g.apply(vec))
        return out

    residuals = _homomorphism_residuals(f_t, defm1.deformed.Y, defm2.deformed.Y)
    for u, n, v, residual in residuals:
        if residual:
            raise RuntimeError(
                "deformation equivalence failed exact verification "
                f"at ({V.space.label_of(u)}, {n}, {V.space.label_of(v)})"
            )
    return Equivalence(
        g=g, kind="deformation",
        note="f_t = 1 + t g carries deformation 1 to deformation 2",
    )
