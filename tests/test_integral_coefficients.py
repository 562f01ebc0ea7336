"""One exact scalar representation: integral coefficients are stored as int.

Every mode table and graded map keeps an integral coefficient as an ``int`` and
any other as a ``Fraction``, and the first-order jets keep their parts the
same way, so integral tables run on int arithmetic.  These tests hold that
invariant on presets and parsed files, hold the checker's reports on it
against Fraction-only copies of the same tables (tables with genuinely
fractional coefficients among them), and check that every coefficient still
leaves the program as exact text while counts stay numbers.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import listing
from vertexcoh.axioms import check_all
from vertexcoh.cli import main
from vertexcoh.cohomology import TwoCochain, cochain_slots, coboundary, vacuum_killing_basis
from vertexcoh.extensions import build_deformation, build_extension
from vertexcoh.presets import (
    PRESETS,
    CommDiffAlgebraSpec,
    adjoint_module,
    build_preset,
    from_commutative_algebra,
)
from vertexcoh.scalars import JetScalar
from vertexcoh.spaces import GradedMap, GradedSpace, ModeFamily, VertexAlgebra
from vertexcoh.specfile import SpecFile, dump_spec, parse_spec, spec_from_objects
from vertexcoh.specfile import to_algebra, to_cochain, to_module

F = Fraction


def _parts(c):
    if isinstance(c, JetScalar):
        return (c.value, *c.slopes.values())
    return (c,)


def _assert_exact_form(vectors):
    """Every rational part is an int, or a Fraction that is not integral."""
    for vec in vectors:
        for c in vec.values():
            for x in _parts(c):
                assert type(x) is int or (type(x) is Fraction and x.denominator != 1), \
                    repr(c)


def _coefficients(V: VertexAlgebra):
    return [x for vec in V.Y.entries.values() for c in vec.values() for x in _parts(c)]


# ---------------------------------------------------------------------------
# seeded tables with genuinely fractional structure constants
# ---------------------------------------------------------------------------

def _random_fractional_algebra(rng: random.Random, w: int) -> VertexAlgebra:
    """Q[x]/(x^k), x in weight w, in the basis x_i = x^i / lam_i with p/q lam_i.

    For w = 1 the derivation D x = c x^2 with a p/q factor c feeds the
    1/j! tail of from_commutative_algebra.
    """
    def q():
        return F(rng.choice((-3, -1, 1, 3)), rng.choice((2, 3)))

    k = rng.randint(3, 4)
    lam = [F(1)] + [q() for _ in range(1, k)]
    labels = ("one",) + tuple(f"x{i}" for i in range(1, k))
    products = {
        (labels[i], labels[j]):
            {labels[i + j]: lam[i] * lam[j] / lam[i + j]} if i + j < k else {}
        for i in range(k) for j in range(i, k)
    }
    c = q()
    derivation = {
        labels[i]: {labels[i + 1]: lam[i] * i * c / lam[i + 1]}
        for i in range(1, k - 1) if w == 1
    }
    spec = CommDiffAlgebraSpec(labels, tuple(i * w for i in range(k)), "one",
                               products, derivation)
    return from_commutative_algebra(spec)


def _random_fractional_algebras() -> list[VertexAlgebra]:
    rng = random.Random(20261101)
    return [_random_fractional_algebra(rng, w) for w in (0, 1, 0, 1)]


def _corrupted(V: VertexAlgebra, factor) -> VertexAlgebra:
    """A copy with one entry off the vacuum scaled by ``factor``, so that it fails.

    Where the algebra has a translation entry u_{-2} vacuum, that one: then
    the failures run through T and the 1/j! of skew-symmetry.
    """
    out = VertexAlgebra(V.space, V.vacuum, V.Y.copy())
    key = max((k for k in V.Y.entries if k[0] != V.vacuum),
              key=lambda k: (k[1:] == (-2, V.vacuum), k))
    out.Y.set_entry(*key, {t: c * factor for t, c in V.Y.entries[key].items()})
    return out


def _fraction_only(V: VertexAlgebra) -> VertexAlgebra:
    """The same table with every rational part a Fraction, bypassing set_entry.

    This is the arithmetic the checker ran before integral coefficients were
    kept as int; a jet is assembled by the trusted constructor, since the
    public one would store int parts.
    """
    def slow(c):
        if isinstance(c, JetScalar):
            return JetScalar._make(Fraction(c.value),
                                   {i: Fraction(x) for i, x in c.slopes.items()})
        return Fraction(c)

    Y = ModeFamily(V.space, V.space, V.space)
    for (u, n, v), vec in V.Y.entries.items():
        Y.entries[(u, n, v)] = {t: slow(c) for t, c in vec.items()}
    out = VertexAlgebra(V.space, V.vacuum, Y)
    assert all(type(x) is Fraction for x in _coefficients(out))
    return out


def _boson_deformations():
    """The boson at cutoff 3 deformed along a p/q coboundary, and at cutoff 2
    along a cochain that is not a cocycle (so its report has failures)."""
    rng = random.Random(20261102)
    V = build_preset("free-boson", 3)
    W = adjoint_module(V)
    g = GradedMap(V.space, W.space, 0)
    for b in vacuum_killing_basis(V, W):
        (src, col), = b.columns.items()
        (tgt, _one), = col.items()
        g.set_entry(tgt, src, F(rng.choice((-3, -1, 1, 3)), rng.choice((1, 2))))
    cob = build_deformation(V, coboundary(V, W, g)).deformed
    V2 = build_preset("free-boson", 2)
    W2 = adjoint_module(V2)
    slots = cochain_slots(V2, W2)
    psi = TwoCochain.from_slots(V2, W2, {s: F(1, 2) for s in rng.sample(slots, 3)})
    return [cob, build_deformation(V2, psi).deformed]


def _slow_path_cases():
    algebras = _random_fractional_algebras()
    assert any(type(x) is Fraction for V in algebras for x in _coefficients(V))
    boson = build_preset("free-boson", 3)
    return (
        [(f"random-{i}", V) for i, V in enumerate(algebras)]
        + [(f"random-{i}-corrupted", _corrupted(V, F(1, 2)))
           for i, V in enumerate(algebras)]
        + [("free-boson-3", boson)]
        + [("free-boson-3-corrupted", _corrupted(boson, 2))]   # stays integral
        + [(f"boson-deformation-{i}", D) for i, D in enumerate(_boson_deformations())]
    )


def test_reports_equal_the_fraction_only_tables(monkeypatch):
    lists = listing.install(monkeypatch)
    for name, V in _slow_path_cases():
        fast, slow = check_all(V, detail=True), check_all(_fraction_only(V), detail=True)
        assert lists(fast) == lists(slow), name
        assert list(listing.expand(fast.skipped_instances)) == \
            list(listing.expand(slow.skipped_instances)), name
        assert fast.failed == slow.failed, name
        # and every residual prints the same text
        assert [{t: str(c) for t, c in res.items()} for _a, _i, res in fast.failed] == \
            [{t: str(c) for t, c in res.items()} for _a, _i, res in slow.failed], name
        assert bool(fast.failed) == name.endswith(("corrupted", "deformation-1")), name
        assert all(type(x) in (int, Fraction) for _a, _i, res in fast.failed
                   for c in res.values() for x in _parts(c)), name   # no float


# ---------------------------------------------------------------------------
# the representation invariant
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(PRESETS))
def test_presets_store_integral_coefficients_as_int(name):
    V = build_preset(name, 3 if name == "free-boson" else None)
    _assert_exact_form(V.Y.entries.values())
    assert all(type(x) is int for x in _coefficients(V))
    W = adjoint_module(V)
    _assert_exact_form(W.T_W.columns.values())
    ext = build_extension(V, W, TwoCochain.zero(V, W))
    _assert_exact_form(ext.total.Y.entries.values())
    _assert_exact_form(ext.proj.columns.values())


def test_parsed_tables_store_integral_coefficients_as_int():
    V = build_preset("dual-numbers")
    W = adjoint_module(V)
    psi = TwoCochain.from_entries(V, W, {("eps", -1, "eps"): {"one": F(3, 2)}})
    text = dump_spec(spec_from_objects(V, W, psi))
    # integral literals in any spelling, and a genuine fraction
    text = text.replace("one -1 eps -> 1*eps", "one -1 eps -> 4/2*eps + -1*eps")
    spec = parse_spec(text)
    V2 = to_algebra(spec)
    W2 = to_module(spec, V2)
    psi2 = to_cochain(spec, V2, W2)
    assert V2.same_content(V)
    for table in (V2.Y.entries, W2.Y_W.entries, W2.T_W.columns, psi2.psi.entries):
        _assert_exact_form(table.values())
    assert psi2.psi.entries == {(1, -1, 1): {0: F(3, 2)}}
    for _u, _n, _v, terms in spec.modes:
        assert all(type(c) is int for c, _lab in terms)


def test_ring_elements_store_integral_parts_as_int():
    d = JetScalar(F(4, 2), {0: True})
    assert (type(d.value), type(d.slopes[0])) == (int, int)
    assert (d * JetScalar(F(1, 2), {0: F(3, 2)})).value == 1
    j = JetScalar(F(6, 3), {0: F(5, 1), 1: True, 2: F(1, 2), 3: 0})
    _assert_exact_form([{0: j}])
    assert j.slopes == {0: 5, 1: 1, 2: F(1, 2)}
    # the checker's symbolic cochain and the total table it builds
    V = build_preset("free-boson", 2)
    W = adjoint_module(V)
    slots = cochain_slots(V, W)
    psi = TwoCochain.from_slots(
        V, W, {s: JetScalar(0, {i: F(1)}) for i, s in enumerate(slots)})
    _assert_exact_form(psi.psi.entries.values())
    _assert_exact_form(build_extension(V, W, psi).total.Y.entries.values())
    for deformed in _boson_deformations():
        _assert_exact_form(deformed.Y.entries.values())


def test_set_entry_stores_bools_and_integral_fractions_as_int():
    sp = GradedSpace([("one", 0), ("x", 0)])
    fam = ModeFamily(sp, sp, sp)
    fam.set_entry(0, -1, 1, {1: True, 0: F(-8, 4)})
    assert fam.entry(0, -1, 1) == {1: 1, 0: -2}
    _assert_exact_form(fam.entries.values())
    tmap = GradedMap(sp, sp, 0)
    tmap.set_entry(1, 0, F(3, 1))
    assert type(tmap.column(0)[1]) is int


# ---------------------------------------------------------------------------
# output: coefficients as exact text, counts as numbers
# ---------------------------------------------------------------------------

def test_dump_spec_round_trips_byte_identically():
    algebras = [build_preset(name) for name in sorted(PRESETS)]
    algebras += _random_fractional_algebras()
    for V in algebras:
        text = dump_spec(spec_from_objects(V))
        again = to_algebra(parse_spec(text))
        assert dump_spec(spec_from_objects(again)) == text
    assert any("/" in dump_spec(spec_from_objects(V)) for V in algebras)
    V = build_preset("dual-numbers")
    W = adjoint_module(V)
    psi = TwoCochain.from_entries(V, W, {("eps", -1, "eps"): {"one": 2, "eps": F(1, 3)}})
    text = dump_spec(spec_from_objects(V, W, psi))
    assert "eps -1 eps -> 2*one + 1/3*eps" in text
    spec = parse_spec(text)
    V2 = to_algebra(spec)
    W2 = to_module(spec, V2)
    assert dump_spec(spec_from_objects(V2, W2, to_cochain(spec, V2, W2))) == text
    with pytest.raises(ValueError):
        spec_from_objects(_boson_deformations()[1])


def _broken_dual_numbers(tmp_path):
    bad = tmp_path / "bad.txt"
    text = dump_spec(spec_from_objects(build_preset("dual-numbers")))
    bad.write_text(text.replace("eps -1 one -> 1*eps", "eps -1 one -> 2*eps"))
    return bad


def test_check_json_prints_coefficients_as_strings_and_counts_as_numbers(
        tmp_path, capsys):
    bad = _broken_dual_numbers(tmp_path)
    assert main(["check", str(bad), "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["exit_code"] == 1
    data = report["data"]
    assert data["passed"] == {
        "grading": 2, "identity": 2, "creation": 1, "translation-shift": 4,
        "translation-bracket": 4, "skew-symmetry": 2, "jacobi": 22,
    }
    assert data["failed"] == [
        {"axiom": "creation", "instance": ["eps", -1, "one"], "residual": {"eps": "1"}},
        {"axiom": "skew-symmetry", "instance": ["one", -1, "eps"],
         "residual": {"eps": "-1"}},
        {"axiom": "skew-symmetry", "instance": ["eps", -1, "one"],
         "residual": {"eps": "1"}},
        {"axiom": "jacobi", "instance": ["eps", "one", "one", 0, -1, -1],
         "residual": {"eps": "2"}},
        {"axiom": "jacobi", "instance": ["eps", "one", "one", -1, 0, -1],
         "residual": {"eps": "2"}},
    ]
    assert main(["check", str(bad)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "FAIL jacobi ('eps', 'one', 'one', -1, 0, -1): residual {'eps': '2'}"


def test_cli_h1_h2_print_coefficients_as_strings(capsys):
    assert main(["h1", "--preset", "dual-numbers", "--json"]) == 0
    basis = json.loads(capsys.readouterr().out)["data"]["basis"]
    assert basis and all(type(c) is str for g in basis for col in g.values()
                         for c in col.values())
    assert main(["h2", "--preset", "dual-numbers", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)["data"]
    assert type(data["z2_dim"]) is int and type(data["h2_dim"]) is int
    reps = data["representatives"]
    assert reps and all(type(c) is str for r in reps for vec in r.values()
                        for c in vec.values())


def test_equiv_prints_an_integral_shear_unchanged(tmp_path, capsys):
    V = build_preset("free-boson", 2)
    W = adjoint_module(V)
    ix = V.space.index
    g = GradedMap(V.space, W.space, 0)
    for src, tgt, c in (("a1", "a1", 2), ("a2", "a1.1", -3), ("a1.1", "a1.1", 7),
                        ("a1.1", "a2", -1)):
        g.set_entry(ix[tgt], ix[src], c)
    cob = tmp_path / "cob.txt"
    cob.write_text(dump_spec(SpecFile(psi=spec_from_objects(V, psi=coboundary(V, W, g)).psi)))
    zero = tmp_path / "zero.txt"
    zero.write_text("[PSI]\n")
    args = ["equiv", "--preset", "free-boson", "--cutoff", "2", "--psi", str(cob),
            "--psi2", str(zero)]
    shear = {"a1": {"a1": "2"}, "a1.1": {"a1.1": "7", "a2": "-1"}, "a2": {"a1.1": "-3"}}
    for kind in ("extension", "deformation"):
        assert main([*args, "--kind", kind]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == f"shear: {shear}"
        assert main([*args, "--kind", kind, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["data"]["shear"] == shear
