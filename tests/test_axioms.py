"""The axiom checker: verdicts, instance accounting, and failure detection."""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

import pytest

import listing
from vertexcoh.axioms import (
    AxiomReport,
    CreationFailed,
    InstanceRun,
    _gen_creation,
    _gen_grading,
    _gen_identity,
    _gen_jacobi,
    _gen_skew,
    _gen_translation,
    _record,
    check_all,
    check_creation,
    check_identity,
    check_jacobi,
    check_module,
    check_skew_symmetry,
    check_translation,
    intrinsic_T,
    translation_map,
)
from vertexcoh.presets import PRESETS, adjoint_module, build_preset, truncated_free_boson
from vertexcoh.spaces import GradedSpace, TruncationBreach, VAModule, build_vertex_algebra
from vertexcoh.specfile import dump_spec, parse_spec, spec_from_objects, to_module

F = Fraction

EXACT_PRESETS = ("trivial", "dual-numbers", "split-pair", "graded-nilpotent")


# ---------------------------------------------------------------------------
# clean passes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", EXACT_PRESETS)
def test_exact_presets_pass_with_no_skips(name):
    V = build_preset(name)
    rep = check_all(V, detail=True)
    assert rep.verdict == "pass"
    assert rep.failed == []
    assert not rep.skipped and rep.skipped_instances == []
    counts = rep.passed_counts()
    for axiom in ("grading", "identity", "creation", "translation-shift",
                  "translation-bracket", "skew-symmetry", "jacobi"):
        assert counts.get(axiom, 0) > 0, f"no {axiom} instances ran"


def test_check_all_sees_a_changed_table():
    V = build_preset("dual-numbers")
    assert check_all(V).verdict == "pass"
    sp = V.space
    V.Y.set_entry(sp.index["one"], -1, sp.index["eps"], {sp.index["eps"]: F(2)})
    rebuilt = build_vertex_algebra(sp, "one", V.entries_by_labels())
    fresh = check_all(rebuilt)
    assert fresh.verdict == "fail" and len(fresh.failed) == 9
    again = check_all(V)
    assert (again.verdict, again.failed) == (fresh.verdict, fresh.failed)


def test_individual_checkers_agree_with_check_all():
    V = build_preset("split-pair")
    rep = AxiomReport()
    check_identity(V, rep)
    check_creation(V, rep)
    check_translation(V, rep)
    check_skew_symmetry(V, rep)
    check_jacobi(V, rep)
    assert rep.verdict == "pass"
    full = check_all(V).passed_counts()
    mine = rep.passed_counts()
    for axiom, count in mine.items():
        assert full[axiom] == count


def test_weight_zero_jacobi_window_is_the_classical_triple(monkeypatch):
    # with every weight 0 the admissible (p, q, r) box degenerates to the
    # three points encoding associativity and commutativity of the product
    lists = listing.install(monkeypatch)
    V = build_preset("dual-numbers")
    rep = check_jacobi(V, AxiomReport(detail=True))
    passed, _skipped = lists(rep)
    windows = {inst[3:] for _a, inst in passed}
    assert windows == {(0, -1, -1), (-1, 0, -1), (-1, -1, 0)}
    assert len(passed) == len(rep.passed) == 8 * 3   # label triples times the points


# ---------------------------------------------------------------------------
# corruption is detected and named
# ---------------------------------------------------------------------------

def _rebuild_with(V, table):
    return build_vertex_algebra(V.space, V.space.label_of(V.vacuum), table)


def test_corrupted_identity_entry_is_caught():
    V = build_preset("dual-numbers")
    table = V.entries_by_labels()
    table[("one", -1, "eps")] = {"one": F(1)}    # should be eps
    rep = check_all(_rebuild_with(V, table))
    assert rep.verdict == "fail"
    assert any(a == "identity" and inst == ("one", -1, "eps")
               for a, inst, _r in rep.failed)


def test_exotic_but_lawful_table_still_passes():
    # u.u = one + u is the quadratic ring Q[u]/(u^2 - u - 1): associative,
    # so the checker must NOT flag it — failures mean broken laws, not
    # unfamiliar tables
    V = build_preset("split-pair")
    table = V.entries_by_labels()
    table[("u", -1, "u")] = {"one": F(1), "u": F(1)}
    assert check_all(_rebuild_with(V, table)).verdict == "pass"


def test_spurious_mode_breaks_jacobi_and_skew_but_not_identity():
    # eps_0 eps = eps is weight-lawful yet inconsistent: skew-symmetry forces
    # eps_0 eps = -eps_0 eps, and the (0,0,0) jacobi instance needs 0
    V = build_preset("graded-nilpotent")
    table = V.entries_by_labels()
    table[("eps", 0, "eps")] = {"eps": F(1)}
    rep = check_all(_rebuild_with(V, table))
    assert rep.verdict == "fail"
    axioms = {a for a, _i, _r in rep.failed}
    assert "jacobi" in axioms and "skew-symmetry" in axioms
    assert "identity" not in axioms and "creation" not in axioms
    assert any(a == "jacobi" and inst == ("eps", "eps", "eps", 0, 0, 0)
               for a, inst, _r in rep.failed)


def test_dropped_creation_entry_is_caught_and_blocks_intrinsic_T():
    V = build_preset("graded-nilpotent")
    table = V.entries_by_labels()
    del table[("eps", -1, "one")]
    broken = _rebuild_with(V, table)
    rep = AxiomReport()
    check_creation(broken, rep)
    assert any(a == "creation" and inst == ("eps", -1, "one")
               for a, inst, _r in rep.failed)
    with pytest.raises(CreationFailed):
        intrinsic_T(broken)


# ---------------------------------------------------------------------------
# translation structure
# ---------------------------------------------------------------------------

def test_intrinsic_T_is_zero_on_weightless_presets():
    for name in ("trivial", "dual-numbers", "split-pair"):
        assert intrinsic_T(build_preset(name)).is_zero()


def test_intrinsic_T_on_boson_matches_mode_table():
    V = truncated_free_boson(2)
    sp = V.space
    t = intrinsic_T(V)
    a1, a2 = sp.index["a1"], sp.index["a2"]
    assert t.column(a1) == {a2: F(1)}            # T a = a_{-2} vacuum
    assert t.column(V.vacuum) == {}              # T vacuum = 0
    assert t.undefined_source_weights == frozenset({2})
    mech = translation_map(V)
    assert mech == t


def test_translation_map_total_on_exact_presets():
    V = build_preset("graded-nilpotent")
    t = translation_map(V)
    assert t.undefined_source_weights == frozenset()
    assert t.is_zero()    # products carry no derivative term here


def _former_undefined_weights(sp):
    """The set callers once passed to GradedMap for a degree-1 translation."""
    if sp.tier != "truncated":
        return frozenset()
    return frozenset(w for w in sp.by_weight if w + 1 > sp.cutoff)


def test_derived_undefined_weights_match_the_former_formula():
    algebras = [build_preset(p) for p in PRESETS] + [truncated_free_boson(c) for c in range(7)]
    for V in algebras:
        tmap = translation_map(V)
        assert tmap.undefined_source_weights == _former_undefined_weights(V.space)
        # the adjoint module written to a module file and read back: to_module's T_W
        text = dump_spec(spec_from_objects(V, VAModule(V.space, V.Y, tmap)))
        W = to_module(parse_spec(text), V)
        assert W.T_W.undefined_source_weights == _former_undefined_weights(W.space)
        assert W.T_W == tmap


# ---------------------------------------------------------------------------
# truncated tier: window bookkeeping
# ---------------------------------------------------------------------------

def test_boson_level2_passes_within_window():
    V = truncated_free_boson(2)
    assert V.space.dims() == {0: 1, 1: 1, 2: 2}
    rep = check_all(V, detail=True)
    assert rep.verdict == "pass-within-window"
    assert rep.failed == []
    assert rep.skipped, "fringe instances should be recorded"
    for _axiom, _inst, (kind, weight) in rep.skipped_instances:
        assert kind == "TruncationBreach"
        assert weight > V.space.cutoff
    skipped_axioms = {a for a, _i, _why in rep.skipped_instances}
    assert "identity" not in skipped_axioms
    assert "creation" not in skipped_axioms
    assert {"skew-symmetry", "jacobi"} <= skipped_axioms


def test_report_merge_and_verdict_precedence():
    V = build_preset("trivial")
    rep = check_all(V, detail=True)
    assert rep.verdict == "pass"
    _record(rep, V.space, iter([("jacobi", ("x",), TruncationBreach(9))]))
    assert rep.verdict == "pass-within-window"
    rep.failed.append(("jacobi", ("x",), {"one": F(1)}))
    assert rep.verdict == "fail"


class _Listed:
    """A report as the drain first wrote it, every instance listed."""

    def __init__(self):
        self.passed, self.failed, self.skipped = [], [], []

    def passed_counts(self):
        return Counter(axiom for axiom, _inst in self.passed)

    def skip_counts(self):
        return Counter((axiom, weight) for axiom, _inst, (_kind, weight) in self.skipped)


def _reference_record(report: _Listed, space, generator):
    """The drain as first written: one reason tuple per skip, no runs."""
    for axiom, inst, result in generator:
        if isinstance(result, TruncationBreach):
            report.skipped.append((axiom, inst, ("TruncationBreach", result.weight)))
        elif result:
            report.failed.append((axiom, inst, space.describe(result)))
        else:
            report.passed.append((axiom, inst))


def _fragments(V):
    """check_all's generators, in check_all's order."""
    tmap, fringe = translation_map(V), 1 if V.space.tier == "truncated" else 0
    return (_gen_grading(V), _gen_identity(V.Y, V.vacuum), _gen_creation(V),
            _gen_translation(V.Y, tmap, tmap), _gen_skew(V, tmap, fringe),
            _gen_jacobi(V.Y, V.Y, fringe))


def test_record_drains_like_the_reference():
    V = build_preset("free-boson", 4)
    vac = V.space.label_of(V.vacuum)
    table = V.entries_by_labels()
    key = next(k for k in table if vac not in (k[0], k[2]) and k[1] == 0)
    table[key] = {t: 3 * c for t, c in table[key].items()}
    for alg in (V, _rebuild_with(V, table)):
        new, counted, ref = AxiomReport(detail=True), AxiomReport(), _Listed()
        runs = 0
        for gen in _fragments(alg):
            items = list(gen)                # one enumeration feeds all three drains
            runs += sum(type(inst) is InstanceRun for _a, inst, _r in items)
            _reference_record(ref, alg.space, listing.expand(items))
            _record(new, alg.space, iter(items))
            _record(counted, alg.space, iter(items))
        assert runs
        assert list(listing.expand(new.skipped_instances)) == ref.skipped
        assert new.skipped and (alg is V) == (not new.failed)
        for rep in (new, counted):
            assert rep.failed == ref.failed
            assert rep.passed_counts() == ref.passed_counts()
            assert rep.skip_counts() == ref.skip_counts()
            assert (len(rep.passed), len(rep.skipped)) == (len(ref.passed), len(ref.skipped))
    # every boson skip breaks at cutoff + 1, so mix offending weights here,
    # and a run between single breaches
    mixed = [("jacobi", (i,), TruncationBreach(w)) for i, w in enumerate((5, 6, 5, 7, 6))]
    mixed.insert(2, ("jacobi", InstanceRun("a", "b", "c", range(-3, 0), 1, 2),
                     TruncationBreach(6)))
    mixed += [("identity", ("x",), {0: F(1, 2)}), ("identity", ("y",), {})]
    new, counted, ref = AxiomReport(detail=True), AxiomReport(), _Listed()
    _record(new, V.space, iter(mixed))
    _record(counted, V.space, iter(mixed))
    _reference_record(ref, V.space, listing.expand(mixed))
    assert (new.failed, list(listing.expand(new.skipped_instances))) == \
        (ref.failed, ref.skipped)
    assert new.skipped_instances[2][1] is mixed[2][1]
    assert [inst for _a, inst, _why in ref.skipped[2:5]] == [
        ("a", "b", "c", p, 1, 2) for p in (-3, -2, -1)]
    for rep in (new, counted):
        assert rep.skip_counts() == {("jacobi", 5): 2, ("jacobi", 6): 5, ("jacobi", 7): 1}
        assert (rep.passed_counts(), rep.failed) == ({"identity": 1}, ref.failed)


def test_instance_run_repr_names_its_instances():
    run = InstanceRun("a1", "a1", "a2", range(2, 5), 0, 5)
    assert repr(run) == "InstanceRun('a1', 'a1', 'a2', range(2, 5), q=0, r=5)"
    assert list(run) == [("a1", "a1", "a2", p, 0, 5) for p in (2, 3, 4)]
    assert run != InstanceRun("a1", "a1", "a2", range(2, 5), 0, 5)   # no __eq__


def test_skips_of_one_weight_share_one_reason():
    # one reason tuple per offending weight and check fragment
    rep = check_all(build_preset("free-boson", 3), detail=True)
    shared: dict = {}
    for axiom, _inst, reason in rep.skipped_instances:
        fragment = axiom.split("-")[0]       # translation-shift, -bracket: one
        assert shared.setdefault((fragment, reason[1]), reason) is reason
    assert set(shared) == {("jacobi", 4), ("skew", 4), ("translation", 4)}
    assert all(reason == ("TruncationBreach", 4) for reason in shared.values())


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

def test_check_module_on_adjoint_passes():
    for name in EXACT_PRESETS:
        V = build_preset(name)
        rep = check_module(V, adjoint_module(V))
        assert rep.verdict == "pass"
        counts = rep.passed_counts()
        for axiom in ("module-identity", "module-translation-shift",
                      "module-translation-bracket", "module-jacobi"):
            assert counts.get(axiom, 0) > 0


def _tally(report):
    counts = Counter({(axiom, "passed"): n for axiom, n in report.passed_counts().items()})
    for (axiom, _weight), n in report.skip_counts().items():
        counts[axiom, "skipped"] += n
    counts.update((axiom, "failed") for axiom, _inst, _res in report.failed)
    return counts


@pytest.mark.parametrize("name, cutoff",
                         [(p, None) for p in EXACT_PRESETS] + [("free-boson", 3)])
def test_check_module_on_adjoint_counts_match_check_all(name, cutoff):
    V = build_preset(name, cutoff)
    # the adjoint module is the algebra acting on itself, so each module axiom
    # enumerates exactly the instances of its algebra counterpart
    mod = _tally(check_module(V, adjoint_module(V)))
    alg = _tally(check_all(V))
    for axiom in ("identity", "translation-shift", "translation-bracket", "jacobi"):
        for kind in ("passed", "skipped", "failed"):
            assert mod.get((f"module-{axiom}", kind), 0) == alg.get((axiom, kind), 0)


# the axioms each public fragment enumerates, in check_all's order
FRAGMENT_AXIOMS = {
    check_identity: ("identity",),
    check_creation: ("creation",),
    check_translation: ("translation-shift", "translation-bracket"),
    check_skew_symmetry: ("skew-symmetry",),
    check_jacobi: ("jacobi",),
}


def _lawful_or_broken(name, cutoff):
    if name != "broken-dual-numbers":
        return build_preset(name, cutoff)
    V = build_preset("dual-numbers")
    table = V.entries_by_labels()
    table[("eps", -1, "one")] = {"eps": F(2)}    # should be 1*eps
    return _rebuild_with(V, table)


@pytest.mark.parametrize("name, cutoff",
                         [(p, None) for p in EXACT_PRESETS]
                         + [("free-boson", c) for c in (2, 3)]
                         + [("broken-dual-numbers", None)])
def test_each_fragment_alone_counts_its_share_of_check_all(name, cutoff):
    # handed no report, a fragment makes its own and derives T itself
    V = _lawful_or_broken(name, cutoff)
    full = _tally(check_all(V))
    for check, axioms in FRAGMENT_AXIOMS.items():
        share = Counter({key: n for key, n in full.items() if key[0] in axioms})
        assert _tally(check(V)) == share, (name, check.__name__)
    if name == "broken-dual-numbers":
        assert sum(n for (_a, kind), n in full.items() if kind == "failed") == 5
    if name == "free-boson":
        assert any(kind == "skipped" for _a, kind in full)


def test_check_module_catches_broken_action():
    from vertexcoh.spaces import GradedMap, ModeFamily, VAModule

    V = build_preset("dual-numbers")
    sp = V.space
    Y_W = ModeFamily(sp, sp, sp)
    for u, n, w, vec in V.Y.iter_entries():
        Y_W.set_entry(u, n, w, vec)
    Y_W.set_entry(V.vacuum, -1, sp.index["eps"], {sp.index["one"]: F(1)})
    W = VAModule(sp, Y_W, GradedMap(sp, sp, 1))
    rep = check_module(V, W)
    assert rep.verdict == "fail"
    assert any(a == "module-identity" for a, _i, _r in rep.failed)
