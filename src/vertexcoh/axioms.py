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


class JacobiBlock:
    """The Jacobi instances (u, v, w, p, q, r) of one (u, v, w) that
    ``_gen_jacobi`` does not evaluate, as one item.

    ``window`` is the ``_JacobiWindow`` of (wt u, wt v, wt w), shared by every
    triple of those weights; its skips are this triple's skips.  ``derived``
    is the number of passes found by Pascal's rule: window.n_later when the
    first row passed, else 0.  A detail report keeps a block with skips
    whole in ``skipped_instances``.  Blocks compare by identity: compare
    what ``skips`` and ``passes`` give instead.
    """

    __slots__ = ("lu", "lv", "lw", "window", "derived")

    def __init__(self, lu, lv, lw, window: _JacobiWindow, derived: int) -> None:
        self.lu, self.lv, self.lw = lu, lv, lw
        self.window, self.derived = window, derived

    def skips(self):
        """((lu, lv, lw, p, q, r), ("TruncationBreach", weight)) per skip, in
        enumeration order."""
        lu, lv, lw = self.lu, self.lv, self.lw
        for ps, q, r, weight in self.window.skips:
            reason = ("TruncationBreach", weight)
            for p in ps:
                yield (lu, lv, lw, p, q, r), reason

    def passes(self):
        """The instances passed by Pascal's rule, in enumeration order."""
        lu, lv, lw = self.lu, self.lv, self.lw
        for ps, q, r in self.window.later if self.derived else ():
            for p in ps:
                yield lu, lv, lw, p, q, r

    def __repr__(self) -> str:
        return (f"JacobiBlock({self.lu!r}, {self.lv!r}, {self.lw!r}, "
                f"skips={sum(self.window.skip_counts.values())}, derived={self.derived})")


class AxiomReport:
    """Outcome of a family of instance checks.

    failed:            [(axiom, instance, residual keyed by target label)]
    passed:            Tally keyed by axiom
    skipped:           Tally keyed by (axiom, offending weight)
    skipped_instances: [(axiom, instance, ("TruncationBreach", offending
                       weight))] under detail=True, else None; an item may
                       be (axiom, JacobiBlock, None), which stands for each
                       of the block's skips in order and is kept whole
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
    vector (empty = passed) or a TruncationBreach (skipped), or (axiom,
    JacobiBlock, {}).  Every pass adds one to its axiom's count and every
    skip one to its (axiom, offending weight) count; a block adds its
    derived passes and its window's skip counts.  A detail report also lists
    each skip as the generator yielded it, a block with skips as one item,
    and the skips of one offending weight share one immutable reason tuple,
    so the list does not hold a copy per skip.
    """
    report = report if report is not None else AxiomReport()
    failed = report.failed.append
    passes, skips = report.passed.counts, report.skipped.counts
    listed = report.skipped_instances
    reasons: dict[int, tuple[str, int]] = {}
    for axiom, inst, result in generator:
        if type(inst) is JacobiBlock:
            if inst.derived:
                passes[axiom] = passes.get(axiom, 0) + inst.derived
            for weight, n in inst.window.skip_counts.items():
                key = (axiom, weight)
                skips[key] = skips.get(key, 0) + n
            if listed is not None and inst.window.skips:
                listed.append((axiom, inst, None))
        elif isinstance(result, TruncationBreach):
            weight = result.weight
            key = (axiom, weight)
            skips[key] = skips.get(key, 0) + 1
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


class _JacobiWindow:
    """The Jacobi instances of one weight triple, as runs (ps, q, r): the
    instances (p, q, r) for p in the range ps.

    first:       the in-window runs of the first r that has any
    later:       the in-window runs of every later r
    n_later:     the number of instances in ``later``
    skips:       (ps, q, r, offending weight) runs of breaches
    skip_counts: {offending weight: skips}

    The runs are in enumeration order: r, then q, then p ascending.
    """

    __slots__ = ("first", "later", "n_later", "skips", "skip_counts")

    def __init__(self, wu: int, wv: int, ww: int, vsp, wsp, fringe: int) -> None:
        NV, NW = vsp.cutoff, wsp.cutoff
        r_lo = mode_window(vsp, wu + wv, fringe).start
        q_lo = mode_window(wsp, wv + ww, fringe).start
        p_lo = mode_window(wsp, wu + ww, fringe).start
        s_window = mode_window(wsp, wu + wv + ww - 1)
        s_lo, s_hi = s_window.start, s_window.stop - 1
        first, later, skips = self.first, self.later, self.skips = [], [], []
        counts = self.skip_counts = {}
        self.n_later = 0

        def skip(ps: range, q: int, r: int, weight: int) -> None:
            skips.append((ps, q, r, weight))
            counts[weight] = counts.get(weight, 0) + len(ps)

        # An instance breaches at the largest of the weights of u_r v, v_q w
        # and u_p w that is above its cap; a weight at or below ``floor`` is
        # above none.  u_p w is above W's cap exactly for p below p_in.
        floor = min(NV, NW)
        p_in = p_lo + fringe
        for r in range(r_lo, s_hi - q_lo - p_lo + 1):
            Ar = wu + wv - 1 - r
            for q in range(q_lo, s_hi - p_lo - r + 1):
                Aq = wv + ww - 1 - q
                over = max(Ar if Ar > NV else floor, Aq if Aq > NW else floor)
                ps = range(max(p_lo, s_lo - q - r), s_hi - q - r + 1)
                for p in range(ps.start, min(p_in, ps.stop)):
                    skip(range(p, p + 1), q, r, max(over, wu + ww - 1 - p))
                ps = range(max(p_in, ps.start), ps.stop)
                if not ps:
                    continue
                if over > floor:
                    skip(ps, q, r, over)
                elif not first or first[0][2] == r:
                    first.append((ps, q, r))
                else:
                    later.append((ps, q, r))
                    self.n_later += len(ps)


def _gen_jacobi(YV: ModeFamily, Y_act: ModeFamily, fringe: int, axiom: str = "jacobi"):
    """The component identity

        sum_i C(p,i) (u_{r+i} v)_{p+q-i} w
          = sum_i (-1)^i C(r,i) [ u_{p+r-i}(v_{q+i} w)
                                  - (-1)^r v_{q+r-i}(u_{p+i} w) ]

    with u, v in the algebra and w in the acted-on space (the algebra itself
    for the adjoint case).  Enumerates the finite window where every
    intermediate fits under its cutoff and the result weight is admissible,
    plus the ``fringe`` weights above the cutoff, whose instances breach.

    Which (p, q, r) are in the window, and at which weight the others
    breach, depends on (wt u, wt v, wt w) alone: r, q and p start where the
    mode windows of u_r v, v_q w and u_p w do, s = p + q + r runs over the
    mode window at weight wt u + wt v + wt w - 1, which bounds the result,
    and an instance breaches at the largest of the weights of u_r v, v_q w
    and u_p w above its cutoff.  So each weight triple's ``_JacobiWindow``
    is built once per call, in a dict local to the call, which cannot go
    stale.

    Write J(p, q, r) for the residual of one (u, v, w).  Splitting
    C(p+1, i) = C(p, i) + C(p, i-1) in each of the three sums gives

        J(p, q, r) = J(p+1, q, r-1) - J(p, q+1, r-1)

    for any mode table over any commutative ring.  Both right-hand instances
    of an in-window instance with r above the first row r1 are in the window:
    r - 1 >= r1 only raises the weight of u_{r-1} v, which stays under V's
    cutoff since row r1 is in the window; p + 1 and q + 1 only lower the
    weights of u_p w and v_q w; and s is unchanged.  So, by induction on r,
    if every residual of row r1 is zero, every residual of the triple is.
    Row r1 is evaluated and yielded instance by instance.  If it is all
    zero, the later rows are counted as passes without being evaluated;
    otherwise each later instance is evaluated and yielded, in order, so
    every failure and its residual come from direct evaluation.  One
    (axiom, JacobiBlock, {}) item then stands for the triple's derived
    passes and its skips; its empty result carries no residual.

    An instance is evaluated from the vectors

        A = (u_m v)_{s-m} w,   B = u_{s-m}(v_m w),   C = v_{s-m}(u_m w),

    m the inner mode index, which depend on (m, s) alone.  They are built
    once per (u, v, w) and s, on first use, and each instance combines them
    with its binomial signs; binomials are cached too.  The modes m of
    u_m v, v_m w and u_m w come from a (u, v) -> {n: vector} lookup that
    ``_modes_by_pair`` builds from the tables' entries once per call, one
    lookup serving both tables when they are the same.
    """
    vsp = YV.left
    wsp = Y_act.right
    act = Y_act.entries.get
    act_pairs = _modes_by_pair(Y_act)
    v_pairs = act_pairs if YV is Y_act else _modes_by_pair(YV)
    windows: dict[tuple[int, int, int], _JacobiWindow] = {}
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
            for w in range(len(wsp)):
                ww = wsp.weight_of(w)
                lw = wsp.label_of(w)
                window = windows.get((wu, wv, ww))
                if window is None:
                    window = windows[wu, wv, ww] = _JacobiWindow(wu, wv, ww, vsp, wsp, fringe)
                pm_vw = act_pairs.get((v, w), {})
                pm_uw = act_pairs.get((u, w), {})
                memo: dict[int, tuple[list, list, list]] = {}

                def residual(p: int, q: int, r: int) -> dict:
                    s = p + q + r
                    terms = memo.get(s)
                    if terms is None:
                        terms = memo[s] = (
                            products(pm_uv, s, lambda x, n: act((x, n, w))),
                            products(pm_vw, s, lambda x, n: act((u, n, x))),
                            products(pm_uw, s, lambda x, n: act((v, n, x))),
                        )
                    A, B, C = terms
                    out: dict = {}
                    for m, vec in A:
                        i = m - r
                        if i >= 0:
                            viadd(out, choose(p, i), vec)
                    for m, vec in B:
                        i = m - q
                        if i >= 0:
                            c = choose(r, i)
                            viadd(out, c if i % 2 else -c, vec)
                    for m, vec in C:
                        i = m - p
                        if i >= 0:
                            c = choose(r, i)
                            viadd(out, -c if (i + r) % 2 else c, vec)
                    return out

                zero = True
                for ps, q, r in window.first:
                    for p in ps:
                        res = residual(p, q, r)
                        zero = zero and not res
                        yield axiom, (lu, lv, lw, p, q, r), res
                if not zero:
                    for ps, q, r in window.later:
                        for p in ps:
                            yield axiom, (lu, lv, lw, p, q, r), residual(p, q, r)
                derived = window.n_later if zero else 0
                if derived or window.skips:
                    yield axiom, JacobiBlock(lu, lv, lw, window, derived), {}


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
