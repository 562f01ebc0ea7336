"""Axiom reports: the counts against the instances they count.

``check_all``, ``check_module`` and ``verify_extension`` count passes per
axiom and skips per (axiom, offending weight); ``detail=True`` adds only
``skipped_instances``, the skips ``--json`` prints, and ``_gen_jacobi``
yields each triple's skips and derived passes as one block.  Every case
below runs under the lister of tests/listing.py, which lists each passed
and skipped instance as the drain sees it.  The report's counts must equal
those lists counted, the detail report's ``skipped_instances``, which keeps
each block whole, must expand to the listed skips, and a report made without
``detail`` must agree with it on all else.
The listed passes, the failures and the skips are pinned by sha256 digests
(first 16 hex digits) recorded from the checker as it was before reports
could count, so neither the instances checked nor the skips ``--json``
prints have moved.
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
import tempfile
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import listing
from vertexcoh.axioms import AxiomReport, JacobiBlock, Tally, check_all, check_module
from vertexcoh.cohomology import TwoCochain, coboundary, cochain_slots, vacuum_killing_basis
from vertexcoh.extensions import build_deformation, build_extension, verify_extension
from vertexcoh.presets import adjoint_module, build_preset
from vertexcoh.spaces import GradedMap
from vertexcoh.specfile import parse_spec, to_algebra

F = Fraction

EXACT_PRESETS = ("trivial", "dual-numbers", "split-pair", "graded-nilpotent")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# the structures carrying cochains: every exact preset and two boson cutoffs
COCHAIN_SETTINGS = [(p, None) for p in EXACT_PRESETS] + [("free-boson", 2), ("free-boson", 3)]


def corrupted_boson_4(seed: int):
    """The corrupted cutoff-4 boson table perfbench/inputs.py draws for ``seed``."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    with tempfile.TemporaryDirectory() as out:
        inputs.make_check_boson(random.Random(f"check-boson:{seed}"), Path(out))
        return to_algebra(parse_spec((Path(out) / "boson4-corrupt.txt").read_text()))


def seeded_cochains(V, W, seed) -> dict[str, TwoCochain]:
    """A seeded coboundary ("cob"), and a seeded cochain on every slot
    ("dense"), which is no cocycle wherever V has slots."""
    rng = random.Random(seed)
    g = GradedMap(V.space, W.space, 0)
    for b in vacuum_killing_basis(V, W):
        (src, col), = b.columns.items()
        (tgt, _one), = col.items()
        g.set_entry(tgt, src, F(rng.randint(-3, 3), rng.randint(1, 2)))
    dense = TwoCochain.from_slots(
        V, W, {s: F(rng.randint(-3, 3), rng.randint(1, 2)) for s in cochain_slots(V, W)})
    return {"cob": coboundary(V, W, g), "dense": dense}


def _structure(name, cutoff, tag):
    """The extension total or the deformed table along one seeded cochain."""
    V = build_preset(name, cutoff)
    W = adjoint_module(V)
    kind, which = tag.split("-")
    psi = seeded_cochains(V, W, f"count-reports:{name}:{cutoff}")[which]
    if kind == "extension":
        return "extension", build_extension(V, W, psi)
    return "algebra", build_deformation(V, psi).deformed


def _cases() -> dict:
    """name -> zero-argument builder of (kind, what the checker reads)."""
    cases = {}
    for name in EXACT_PRESETS:
        for cutoff in (None, 3):
            cases[f"{name}-{cutoff}"] = (
                lambda n=name, c=cutoff: ("algebra", build_preset(n, c)))
        cases[f"module-{name}"] = lambda n=name: ("module", _adjoint_pair(n, None))
    for cutoff in range(5):
        cases[f"free-boson-{cutoff}"] = (
            lambda c=cutoff: ("algebra", build_preset("free-boson", c)))
    cases["module-free-boson-3"] = lambda: ("module", _adjoint_pair("free-boson", 3))
    for seed in (1, 7):
        cases[f"corrupted-boson-4-seed-{seed}"] = (
            lambda s=seed: ("algebra", corrupted_boson_4(s)))
    for name, cutoff in COCHAIN_SETTINGS:
        for tag in ("extension-cob", "extension-dense", "deformed-cob", "deformed-dense"):
            cases[f"{name}-{cutoff}-{tag}"] = (
                lambda n=name, c=cutoff, t=tag: _structure(n, c, t))
    return cases


def _adjoint_pair(name, cutoff):
    V = build_preset(name, cutoff)
    return V, adjoint_module(V)


CASES = _cases()


def report(kind: str, obj, detail: bool) -> AxiomReport:
    if kind == "module":
        V, W = obj
        return check_module(V, W, AxiomReport(detail=detail))
    if kind == "extension":
        return verify_extension(obj, detail=detail)
    return check_all(obj, detail=detail)


def digests(passed: list, failed: list, skipped: list) -> tuple[str, str, str]:
    """sha256 prefixes of the passed, failed and skipped lists; residual
    coefficients as their exact text, sorted by label."""
    failed = [(a, inst, sorted((t, str(c)) for t, c in res.items()))
              for a, inst, res in failed]
    return tuple(hashlib.sha256(repr(entries).encode()).hexdigest()[:16]
                 for entries in (passed, failed, skipped))


# case: (verdict, passed, failed, skipped digests)
DETAIL_DIGESTS = {
    'corrupted-boson-4-seed-1':
        ('fail', 'e262cbf2cf3fe58f', '8c1462a0008630aa', '5eac65ce3f1e0ac1'),
    'corrupted-boson-4-seed-7':
        ('fail', '6f7e15387c1d367a', '1fd074cacafe6683', '5eac65ce3f1e0ac1'),
    'dual-numbers-3':
        ('pass', '075bd72edd14e1c8', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'dual-numbers-None':
        ('pass', '46919bd3426119c0', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'dual-numbers-None-deformed-cob':
        ('pass', '46919bd3426119c0', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'dual-numbers-None-deformed-dense':
        ('fail', '9be0cb7516a7dd6f', 'e51c630fd92870b7', '4f53cda18c2baa0c'),
    'dual-numbers-None-extension-cob':
        ('pass', '30a6a6f76cd45d16', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'dual-numbers-None-extension-dense':
        ('fail', 'f651ca66b8b3a588', 'efd62b0f1f35a9a2', '4f53cda18c2baa0c'),
    'free-boson-0':
        ('pass-within-window', '83d801d9b32ad080', '4f53cda18c2baa0c', 'ad408e9cd0c34f93'),
    'free-boson-1':
        ('pass-within-window', '31d016b401c7aa85', '4f53cda18c2baa0c', 'dbc6816a3fc4a375'),
    'free-boson-2':
        ('pass-within-window', '4b32e8d6000f5fa6', '4f53cda18c2baa0c', 'cb05d2f7650c2fba'),
    'free-boson-2-deformed-cob':
        ('pass-within-window', '4b32e8d6000f5fa6', '4f53cda18c2baa0c', 'cb05d2f7650c2fba'),
    'free-boson-2-deformed-dense':
        ('fail', 'd188adea31edee4a', '872ceac837de4ae9', 'cb05d2f7650c2fba'),
    'free-boson-2-extension-cob':
        ('pass-within-window', '2976dd83bfe60d7d', '4f53cda18c2baa0c', 'da46de6a1b64dd32'),
    'free-boson-2-extension-dense':
        ('fail', '490a5ee0dca249c5', '146f9b3d93afb36a', 'da46de6a1b64dd32'),
    'free-boson-3':
        ('pass-within-window', '869a56204b59c525', '4f53cda18c2baa0c', 'ff2710b0b69bd9c0'),
    'free-boson-3-deformed-cob':
        ('pass-within-window', '869a56204b59c525', '4f53cda18c2baa0c', 'ff2710b0b69bd9c0'),
    'free-boson-3-deformed-dense':
        ('fail', '8c1df70d610fd152', 'fb7ea8f52a4f6328', 'ff2710b0b69bd9c0'),
    'free-boson-3-extension-cob':
        ('pass-within-window', '321b26a057319122', '4f53cda18c2baa0c', '527b4c58520ca193'),
    'free-boson-3-extension-dense':
        ('fail', '490a8be317c7a844', '36280fc81829c511', '527b4c58520ca193'),
    'free-boson-4':
        ('pass-within-window', '520e6d0f7928a7ac', '4f53cda18c2baa0c', '5eac65ce3f1e0ac1'),
    'graded-nilpotent-3':
        ('pass', '944de503e5bb2f4d', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'graded-nilpotent-None':
        ('pass', 'cd320bebc0281c5c', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'graded-nilpotent-None-deformed-cob':
        ('pass', 'cd320bebc0281c5c', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'graded-nilpotent-None-deformed-dense':
        ('fail', 'ca0b957e4bd52931', 'a674c2092a81bc41', '4f53cda18c2baa0c'),
    'graded-nilpotent-None-extension-cob':
        ('pass', '2ee765725665af37', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'graded-nilpotent-None-extension-dense':
        ('fail', '7f9f7bbd58760209', 'b9b62158bda42e60', '4f53cda18c2baa0c'),
    'module-dual-numbers':
        ('pass', '7513b94505f7c477', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'module-free-boson-3':
        ('pass-within-window', '50924786e96166dc', '4f53cda18c2baa0c', '297abfa881028f3e'),
    'module-graded-nilpotent':
        ('pass', '9cbd6476f781e685', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'module-split-pair':
        ('pass', '0687dc10536165e5', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'module-trivial':
        ('pass', '57d0b3dc7006d1e2', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'split-pair-3':
        ('pass', '7bfc71977939eed4', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'split-pair-None':
        ('pass', 'ebb8aedc87459b0f', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'split-pair-None-deformed-cob':
        ('pass', 'ebb8aedc87459b0f', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'split-pair-None-deformed-dense':
        ('fail', '84c2f560d40e7269', 'c34d99fad00dc732', '4f53cda18c2baa0c'),
    'split-pair-None-extension-cob':
        ('pass', '93b03f1b1043248b', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'split-pair-None-extension-dense':
        ('fail', 'a20114be39755300', '0558aada07e488cb', '4f53cda18c2baa0c'),
    'trivial-3':
        ('pass', '46c81fa30c873880', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'trivial-None':
        ('pass', '003d65fc3ff109fe', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'trivial-None-deformed-cob':
        ('pass', '003d65fc3ff109fe', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'trivial-None-deformed-dense':
        ('fail', '72af3b44ee86d55c', '5cd2bdc86a6242f2', '4f53cda18c2baa0c'),
    'trivial-None-extension-cob':
        ('pass', '7f0ee3f84079a396', '4f53cda18c2baa0c', '4f53cda18c2baa0c'),
    'trivial-None-extension-dense':
        ('fail', 'c5e7339c2497c6f5', '2faff1c698cb6abd', '4f53cda18c2baa0c'),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_count_report_equals_the_detail_report(case, monkeypatch):
    lists = listing.install(monkeypatch)
    kind, obj = CASES[case]()
    detail, counted = report(kind, obj, True), report(kind, obj, False)
    passed, skipped = lists(detail)
    assert (detail.verdict, *digests(passed, detail.failed, skipped)) == DETAIL_DIGESTS[case]
    assert list(listing.expand(detail.skipped_instances)) == skipped
    assert lists(counted) == (passed, skipped)
    assert counted.skipped_instances is None
    # the tallies are the listed instances, counted
    assert detail.passed_counts() == Counter(a for a, _inst in passed)
    assert detail.skip_counts() == Counter(
        (a, weight) for a, _inst, (_kind, weight) in skipped)
    for attr, listed in (("passed", passed), ("failed", detail.failed), ("skipped", skipped)):
        for rep in (detail, counted):
            got = getattr(rep, attr)
            assert (len(got), bool(got)) == (len(listed), bool(listed)), attr
    assert counted.verdict == detail.verdict
    assert counted.passed_counts() == detail.passed_counts()
    assert counted.failed == detail.failed
    assert counted.skip_counts() == detail.skip_counts()


# case: (items in skipped_instances, skips) of the detail report
STORED = {
    "free-boson-4": (2472, 143429),
    "module-free-boson-3": (511, 22806),
    "free-boson-3-extension-cob": (3612, 181972),
}


@pytest.mark.parametrize("case", sorted(STORED))
def test_detail_report_keeps_fringe_runs_whole(case, monkeypatch):
    lists = listing.install(monkeypatch)
    kind, obj = CASES[case]()
    rep = report(kind, obj, True)
    _passed, skipped = lists(rep)
    items = rep.skipped_instances
    assert (len(items), len(rep.skipped)) == STORED[case]
    assert any(type(inst) is JacobiBlock for _a, inst, _why in items)
    expanded = list(listing.expand(items))
    assert expanded == skipped
    assert Counter((a, weight) for a, _inst, (_kind, weight) in expanded) == \
        rep.skip_counts()


def test_count_only_lists_refuse_to_be_read():
    for detail in (False, True):
        rep = check_all(build_preset("free-boson", 2), detail)
        assert rep.passed and rep.skipped and not rep.failed
        for attr in ("passed", "skipped"):
            assert type(getattr(rep, attr)) is Tally
            with pytest.raises(TypeError):
                list(getattr(rep, attr))
        assert rep.failed == []
        assert (rep.skipped_instances is None) == (not detail)
        assert weakref.ref(rep)() is rep
