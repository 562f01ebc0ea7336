"""Componentwise axiom checking with explicit verification windows.

Every check enumerates a finite, deterministic family of instances — one
identity evaluated between homogeneous basis vectors at one mode index — and
reports each instance as passed (residual exactly zero), failed (nonzero
residual, recorded in full), or skipped (the evaluation would need states
above the cutoff; the reason names the offending weight).  Passed and skipped
instances are counted; a detail report also lists the skipped ones.

Windows come from the weight rule: a residual of weight rho is enumerated for
rho between the bottom weight and the cutoff N, and any intermediate state the
identity routes through is bounded by N as well.  Skew-symmetry and Jacobi
also enumerate ``fringe`` weights above N, a depth set by the tier
(``_fringe``).  On the exact tier it is 0: the windows cover everything that
can be nonzero, so there are never skips.  On the truncated tier it is 1:
instances that would become verifiable at cutoff N+1 are recorded as skipped,
making the truncation visible in the report without chasing the infinite tail
of deeper ones.

Verdicts: "fail" iff any instance failed; "pass" requires no skips;
"pass-within-window" is the best a truncated algebra can do.
"""

from __future__ import annotations

import functools

from .scalars import binom
from .spaces import (
    GradedMap,
    ModeFamily,
    TruncationBreach,
    VAModule,
    VertexAlgebra,
    mode_apply,
    mode_triples,
    mode_window,
    skew_mode,
    viadd,
)


class CreationFailed(Exception):
    """intrinsic_T was asked for but the creation axiom does not hold."""

    def __init__(self, instances):
        super().__init__(f"creation axiom fails on {len(instances)} instance(s)")
        self.instances = instances


class Tally:
    """Counts of a report's passes or skips by key; the instances are not kept.

    len() and truth are those of the instance list it counts.  Iterating
    raises, since there is nothing to iterate.
    """

    __slots__ = ("counts",)

    def __init__(self) -> None:
        self.counts: dict = {}

    def __len__(self) -> int:
        return sum(self.counts.values())

    def __iter__(self):
        raise TypeError("a report counts its passes and skips; check with "
                        "detail=True to list the skips as skipped_instances")


class InstanceRun:
    """The Jacobi instances (u, v, w, p, q, r) for p in ``ps``, as one item.

    ``_gen_jacobi`` yields a run in place of an instance where every p of a
    range breaches at one weight, and a detail report keeps it whole in
    ``skipped_instances``.  len() is the number of instances; iterating
    gives the instance tuples in enumeration order.  Runs compare by
    identity: compare their instances instead.
    """

    __slots__ = ("lu", "lv", "lw", "ps", "q", "r")

    def __init__(self, lu, lv, lw, ps: range, q: int, r: int) -> None:
        self.lu, self.lv, self.lw, self.ps, self.q, self.r = lu, lv, lw, ps, q, r

    def __len__(self) -> int:
        return len(self.ps)

    def __iter__(self):
        lu, lv, lw, q, r = self.lu, self.lv, self.lw, self.q, self.r
        return ((lu, lv, lw, p, q, r) for p in self.ps)

    def __repr__(self) -> str:
        return (f"InstanceRun({self.lu!r}, {self.lv!r}, {self.lw!r}, {self.ps!r}, "
                f"q={self.q!r}, r={self.r!r})")


class AxiomReport:
    """Outcome of a family of instance checks.

    failed:            [(axiom, instance, residual keyed by target label)]
    passed:            Tally keyed by axiom
    skipped:           Tally keyed by (axiom, offending weight)
    skipped_instances: [(axiom, instance, ("TruncationBreach", offending
                       weight))] under detail=True, else None; an instance
                       may be an InstanceRun, which stands for each of its
                       instances in order and is kept whole
    """

    def __init__(self, detail: bool = False) -> None:
        self.failed: list = []
        self.passed = Tally()
        self.skipped = Tally()
        self.skipped_instances: list | None = [] if detail else None

    @property
    def verdict(self) -> str:
        if self.failed:
            return "fail"
        if self.skipped:
            return "pass-within-window"
        return "pass"

    def passed_counts(self) -> dict[str, int]:
        return dict(self.passed.counts)

    def skip_counts(self) -> dict[tuple[str, int], int]:
        """Skips per (axiom, offending weight)."""
        return dict(self.skipped.counts)

    def __repr__(self):
        return (
            f"AxiomReport(verdict={self.verdict!r}, passed={len(self.passed)}, "
            f"failed={len(self.failed)}, skipped={len(self.skipped)})"
        )


def _record(report: AxiomReport | None, space, generator) -> AxiomReport:
    """Drain an instance generator into a report, a new one if ``report`` is
    None, labeling residuals; returns the report.

    The generator yields (axiom, instance, result) where result is a residual
    vector (empty = passed) or a TruncationBreach (skipped); a breach's
    instance may be an InstanceRun, which stands for each of its instances.
    Every pass adds one to its axiom's count and every skip one, or a run's
    length, to its (axiom, offending weight) count.  A detail report also
    lists each skip as the generator yielded it, a run as one item, and the
    skips of one offending weight share one immutable reason tuple, so the
    list does not hold a copy per skip.
    """
    report = report if report is not None else AxiomReport()
    failed = report.failed.append
    passes, skips = report.passed.counts, report.skipped.counts
    listed = report.skipped_instances
    reasons: dict[int, tuple[str, int]] = {}
    for axiom, inst, result in generator:
        if isinstance(result, TruncationBreach):
            weight, run = result.weight, type(inst) is InstanceRun
            key = (axiom, weight)
            skips[key] = skips.get(key, 0) + (len(inst) if run else 1)
            if listed is not None:
                reason = reasons.get(weight)
                if reason is None:
                    reason = reasons[weight] = ("TruncationBreach", weight)
                listed.append((axiom, inst, reason))
        elif result:
            failed((axiom, inst, space.describe(result)))
        else:
            passes[axiom] = passes.get(axiom, 0) + 1
    return report


# ---------------------------------------------------------------------------
# translation maps
# ---------------------------------------------------------------------------

def translation_map(V: VertexAlgebra) -> GradedMap:
    """The mode-derived candidate translation v -> v_{-2} vacuum, total on reports.

    This is what every checker fragment uses, whether or not creation holds;
    on a correct algebra it coincides with intrinsic_T.  On truncated spaces
    it is undefined on weights whose image would cross the cutoff.
    """
    sp = V.space
    tmap = GradedMap(sp, sp, 1)
    for v in range(len(sp)):
        vec = V.Y.entry(v, -2, V.vacuum)
        if vec:
            tmap.set_column(v, vec)
    return tmap


def intrinsic_T(V: VertexAlgebra) -> GradedMap:
    """The translation operator of the algebra; demands the creation axiom first."""
    rep = check_creation(V)
    if rep.failed:
        raise CreationFailed([inst for _ax, inst, _res in rep.failed])
    return translation_map(V)


# ---------------------------------------------------------------------------
# instance generators (shared by the checker and the cocycle residual)
# ---------------------------------------------------------------------------

def _gen_identity(Y: ModeFamily, vac: int, axiom: str = "identity"):
    """vacuum_n w = w when n = -1 and 0 otherwise, for w in the acted-on space."""
    sp = Y.right
    vac_label = Y.left.label_of(vac)
    for w in range(len(sp)):
        ww = sp.weight_of(w)
        lab = sp.label_of(w)
        for n in mode_window(sp, ww):
            residual = dict(Y.entry(vac, n, w) or {})
            if n == -1:
                viadd(residual, -1, {w: 1})
            yield axiom, (vac_label, n, lab), residual


def _gen_creation(V: VertexAlgebra):
    sp, Y, vac = V.space, V.Y, V.vacuum
    vac_label = sp.label_of(vac)
    for v in range(len(sp)):
        wv = sp.weight_of(v)
        lab = sp.label_of(v)
        window = mode_window(sp, wv)
        for n in range(max(-1, window.start), window.stop):
            residual = dict(Y.entry(v, n, vac) or {})
            if n == -1:
                viadd(residual, -1, {v: 1})
            yield "creation", (lab, n, vac_label), residual


def _gen_translation(Y: ModeFamily, T: GradedMap, T_act: GradedMap,
                     axiom: str = "translation"):
    """Both forms of the translation compatibility, same result-weight window:

        (T u)_n w = -n u_{n-1} w
        T_act(u_n w) - u_n T_act(w) = -n u_{n-1} w

    with u in the algebra (translated by T) and w in the acted-on space
    (translated by T_act).
    """
    usp, sp = Y.left, Y.right
    for u, n, w in mode_triples(usp, sp, sp, shift=1):
        inst = (usp.label_of(u), n, sp.label_of(w))
        uvec, wvec = {u: 1}, {w: 1}
        shifted = Y.entry(u, n - 1, w)
        try:
            residual = mode_apply(Y, T.apply(uvec), n, wvec)
            if shifted:
                viadd(residual, n, shifted)
            yield f"{axiom}-shift", inst, residual
        except TruncationBreach as breach:
            yield f"{axiom}-shift", inst, breach
        try:
            residual = T_act.apply(Y.entry(u, n, w) or {})
            viadd(residual, -1, mode_apply(Y, uvec, n, T_act.apply(wvec)))
            if shifted:
                viadd(residual, n, shifted)
            yield f"{axiom}-bracket", inst, residual
        except TruncationBreach as breach:
            yield f"{axiom}-bracket", inst, breach


def _gen_skew(V: VertexAlgebra, tmap: GradedMap, fringe: int):
    """u_n v against the skew expansion, the window reaching ``fringe``
    weights above the cutoff."""
    sp, Y = V.space, V.Y
    adjoint = VAModule(sp, Y, tmap)
    for u, n, v in mode_triples(sp, sp, sp, fringe=fringe):
        inst = (sp.label_of(u), n, sp.label_of(v))
        try:
            residual = dict(Y.entry(u, n, v) or {})
            viadd(residual, -1, skew_mode(adjoint, {u: 1}, n, {v: 1}))
            yield "skew-symmetry", inst, residual
        except TruncationBreach as breach:
            yield "skew-symmetry", inst, breach


def _modes_by_pair(Y: ModeFamily) -> dict[tuple[int, int], dict[int, dict]]:
    """Y's entries as (u, v) -> {n: vector}, each n in the table's order."""
    out: dict = {}
    for (u, n, v), vec in Y.entries.items():
        out.setdefault((u, v), {})[n] = vec
    return out


def _gen_jacobi(YV: ModeFamily, Y_act: ModeFamily, fringe: int, axiom: str = "jacobi"):
    """The component identity

        sum_i C(p,i) (u_{r+i} v)_{p+q-i} w
          = sum_i (-1)^i C(r,i) [ u_{p+r-i}(v_{q+i} w)
                                  - (-1)^r v_{q+r-i}(u_{p+i} w) ]

    with u, v in the algebra and w in the acted-on space (the algebra itself
    for the adjoint case).  Enumerates the finite window where every
    intermediate fits under its cutoff and the result weight is admissible,
    plus the ``fringe`` weights above the cutoff, yielded as breaches.

    For fixed (u, v, w) write s = p + q + r.  With m the inner mode index,
    the three sums read only the vectors

        A = (u_m v)_{s-m} w,   B = u_{s-m}(v_m w),   C = v_{s-m}(u_m w),

    which depend on (m, s) alone.  They are built once per (u, v, w) and s,
    on first use, and each instance combines them with its binomial signs;
    binomials are cached too.  The modes m of u_m v, v_m w and u_m w come
    from a (u, v) -> {n: vector} lookup that ``_modes_by_pair`` builds from the
    tables' entries once per call, one lookup serving both tables when they
    are the same.  The loops over (r, q, p) are unchanged, so
    instances come in the same order with the same residuals: the sums are
    exact ring arithmetic, regrouped.  A breach depends on r, q and p
    separately, so its weight is found without a per-instance list, and the
    fringe shares one TruncationBreach per offending weight.  r, q and p
    start where the mode windows of u_r v, v_q w and u_p w do; s runs over
    the mode window at weight wt u + wt v + wt w - 1, which bounds the result.

    When r or q alone already breaches, every p of the (r, q) row breaches
    too, at that weight, except that the fringe's lowest p, p_lo, may reach
    weight NW + 1 above it.  Such a row is yielded as at most two items: p_lo on its own when it
    breaches higher, then one InstanceRun over the remaining p in place of
    an instance.  The drain counts a run by its length, and a detail report
    keeps it whole, so the fringe is not walked p by p.
    """
    vsp = YV.left
    wsp = Y_act.right
    NV, NW = vsp.cutoff, wsp.cutoff
    act = Y_act.entries.get
    act_pairs = _modes_by_pair(Y_act)
    v_pairs = act_pairs if YV is Y_act else _modes_by_pair(YV)
    # below every cap: an intermediate weight above its cap is above this
    floor = min(NV, NW)
    breach_at = functools.cache(TruncationBreach)
    choose = functools.cache(binom)

    def products(modes: dict, s: int, entry) -> list:
        """[(m, sum of c * entry(x, s - m) over x, c in modes[m])], nonzero only."""
        out = []
        for m, ivec in modes.items():
            vec: dict = {}
            for x, cx in ivec.items():
                e = entry(x, s - m)
                if e:
                    viadd(vec, cx, e)
            if vec:
                out.append((m, vec))
        return out

    for u in range(len(vsp)):
        wu = vsp.weight_of(u)
        lu = vsp.label_of(u)
        for v in range(len(vsp)):
            wv = vsp.weight_of(v)
            lv = vsp.label_of(v)
            pm_uv = v_pairs.get((u, v), {})
            r_lo = mode_window(vsp, wu + wv, fringe).start
            for w in range(len(wsp)):
                ww = wsp.weight_of(w)
                lw = wsp.label_of(w)
                pm_vw = act_pairs.get((v, w), {})
                pm_uw = act_pairs.get((u, w), {})
                q_lo = mode_window(wsp, wv + ww, fringe).start
                p_lo = mode_window(wsp, wu + ww, fringe).start
                s_window = mode_window(wsp, wu + wv + ww - 1)
                s_lo, s_hi = s_window.start, s_window.stop - 1
                memo: dict[int, tuple[list, list, list]] = {}
                for r in range(r_lo, s_hi - q_lo - p_lo + 1):
                    Ar = wu + wv - 1 - r
                    over_r = Ar if Ar > NV else floor
                    for q in range(q_lo, s_hi - p_lo - r + 1):
                        Aq = wv + ww - 1 - q
                        over_rq = Aq if NW < Aq > over_r else over_r
                        p_start, p_stop = max(p_lo, s_lo - q - r), s_hi - q - r + 1
                        if over_rq > floor:
                            Ap = wu + ww - 1 - p_start
                            if p_start < p_stop and NW < Ap > over_rq:
                                yield axiom, (lu, lv, lw, p_start, q, r), breach_at(Ap)
                                p_start += 1
                            if p_start < p_stop:
                                run = InstanceRun(lu, lv, lw, range(p_start, p_stop), q, r)
                                yield axiom, run, breach_at(over_rq)
                            continue
                        for p in range(p_start, p_stop):
                            inst = (lu, lv, lw, p, q, r)
                            Ap = wu + ww - 1 - p
                            if NW < Ap > floor:
                                yield axiom, inst, breach_at(Ap)
                                continue
                            s = p + q + r
                            terms = memo.get(s)
                            if terms is None:
                                terms = memo[s] = (
                                    products(pm_uv, s, lambda x, n: act((x, n, w))),
                                    products(pm_vw, s, lambda x, n: act((u, n, x))),
                                    products(pm_uw, s, lambda x, n: act((v, n, x))),
                                )
                            A, B, C = terms
                            residual: dict = {}
                            for m, vec in A:
                                i = m - r
                                if i < 0:
                                    continue
                                viadd(residual, choose(p, i), vec)
                            for m, vec in B:
                                i = m - q
                                if i < 0:
                                    continue
                                c = choose(r, i)
                                viadd(residual, c if i % 2 else -c, vec)
                            for m, vec in C:
                                i = m - p
                                if i < 0:
                                    continue
                                c = choose(r, i)
                                viadd(residual, -c if (i + r) % 2 else c, vec)
                            yield axiom, inst, residual


def _gen_grading(V: VertexAlgebra):
    """Structural grading restrictions, re-verified rather than assumed."""
    sp = V.space
    bad_weight = next(
        (w for w in sp.by_weight if not sp.min_weight <= w <= sp.cutoff), None
    )
    yield "grading", ("weights-within-bounds",), (
        {} if bad_weight is None else {sp.by_weight[bad_weight][0]: 1}
    )
    vac_ok = sp.weight_of(V.vacuum) == 0
    yield "grading", ("vacuum-weight-zero",), ({} if vac_ok else V.vacuum_vec())


# ---------------------------------------------------------------------------
# public check fragments
# ---------------------------------------------------------------------------

def check_identity(V: VertexAlgebra, report: AxiomReport | None = None) -> AxiomReport:
    """vacuum_n v = v when n = -1 and 0 otherwise, across the window."""
    return _record(report, V.space, _gen_identity(V.Y, V.vacuum))


def check_creation(V: VertexAlgebra, report: AxiomReport | None = None) -> AxiomReport:
    """v_n vacuum = 0 for n >= 0 and v_{-1} vacuum = v."""
    return _record(report, V.space, _gen_creation(V))


def check_translation(V: VertexAlgebra, report: AxiomReport | None = None) -> AxiomReport:
    """Both translation compatibilities against the mode-derived T.

    Instances needing T on top-weight states of a truncated algebra are
    skipped — those are the natural in-window truncation skips.
    """
    tmap = translation_map(V)
    return _record(report, V.space, _gen_translation(V.Y, tmap, tmap))


def _fringe(space) -> int:
    """The depth a check's window reaches above the cutoff, by the tier."""
    return 1 if space.tier == "truncated" else 0


def check_skew_symmetry(V: VertexAlgebra, report: AxiomReport | None = None) -> AxiomReport:
    """u_n v agrees with the skew expansion of v acting back on u."""
    return _record(report, V.space, _gen_skew(V, translation_map(V), _fringe(V.space)))


def check_jacobi(V: VertexAlgebra, report: AxiomReport | None = None) -> AxiomReport:
    """The component identity over its finite window (plus fringe when truncated)."""
    return _record(report, V.space, _gen_jacobi(V.Y, V.Y, _fringe(V.space)))


def check_all(V: VertexAlgebra, detail: bool = False) -> AxiomReport:
    """All algebra axioms plus the structural grading restrictions.

    Never raises: fragments that depend on the translation map use the
    mode-derived candidate, so a broken creation axiom shows up as failed
    creation instances rather than an exception.  The report counts passes
    and skips; ``detail`` also lists the skips.
    """
    report = _record(AxiomReport(detail), V.space, _gen_grading(V))
    check_identity(V, report)
    check_creation(V, report)
    check_translation(V, report)
    check_skew_symmetry(V, report)
    return check_jacobi(V, report)


def check_module(V: VertexAlgebra, W: VAModule,
                 report: AxiomReport | None = None) -> AxiomReport:
    """Module axioms: identity, both translation compatibilities, mixed identity.

    Assumes V itself has been checked (run check_all first; its verdict is the
    caller's business).  Windows use the module's bottom weight and cutoff for
    result weights, the algebra's cutoff for algebra-side intermediates.  The
    skips are listed if the report lists them.
    """
    wsp = W.space
    report = _record(report, wsp, _gen_identity(W.Y_W, V.vacuum, "module-identity"))
    _record(report, wsp, _gen_translation(W.Y_W, translation_map(V), W.T_W,
                                          "module-translation"))
    return _record(report, wsp,
                   _gen_jacobi(V.Y, W.Y_W, _fringe(wsp), axiom="module-jacobi"))
