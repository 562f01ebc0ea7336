"""``cli._skip_texts`` against ``json.dumps`` of each skip entry's dict.

Under ``--json`` each skipped instance is written as the text of
``{"axiom": axiom, "instance": instance, "reason": reason}``, built from
cached encodings of its strings rather than from that dict.  Fed seeded
items of every shape the checkers yield, plus labels json must escape and
values it encodes whole, the texts must be the ``json.dumps`` of the dicts,
one per instance, a run's instances in order.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import pytest

import listing
from vertexcoh import cli
from vertexcoh.axioms import InstanceRun

# plain labels, total-space fiber labels, and labels json must escape
LABELS = ["one", "a1", "a1a1", "a2", "w:one", "w:w:a1", "eps", "α", "ω_2", "é",
          'say "hi"', "back\\slash", "tab\there", "new\nline", "\x00", "\x1f",
          "\x7f", " ", "\ud800", "😀", ""]
AXIOMS = ["jacobi", "module-jacobi", "translation", "module-translation",
          "skew-symmetry", "identity"]
STRUCTURE = ["square-zero", "projection", "inclusion"]


def oracle(items) -> list[str]:
    return [json.dumps({"axiom": a, "instance": one, "reason": why})
            for a, one, why in listing.expand(items)]


def seeded_items(rng: random.Random) -> list:
    """Skips of every shape the checkers yield, reasons shared per weight
    as ``axioms._record`` shares them."""
    reasons = {w: ("TruncationBreach", w) for w in range(-1, 9)}

    def label():
        return rng.choice(LABELS)

    def mode():
        return rng.choice((rng.randrange(-6, 7), -2**70, 2**64 + 1))

    def reason():
        w = rng.randrange(-1, 9)
        # mostly the shared tuple, sometimes an equal one of its own
        return reasons[w] if rng.random() < 0.8 else ("TruncationBreach", w)

    items = []
    for _ in range(600):
        shape = rng.randrange(5)
        if shape == 0:      # a Jacobi single (u, v, w, p, q, r)
            inst = (label(), label(), label(), mode(), mode(), mode())
            items.append((rng.choice(AXIOMS[:2]), inst, reason()))
        elif shape == 1:    # a run of Jacobi fringe skips
            start = rng.randrange(-5, 5)
            ps = range(start, start + rng.randrange(0, 6))
            run = InstanceRun(label(), label(), label(), ps, mode(), mode())
            items.append((rng.choice(AXIOMS[:2]), run, reason()))
        elif shape == 2:    # translation, skew-symmetry and module checks
            items.append((rng.choice(AXIOMS[2:]), (label(), mode(), label()), reason()))
        elif shape == 3:    # extension structure checks
            items.append((rng.choice(STRUCTURE), (label(), mode(), label()), reason()))
        else:
            items.append(("vacuum-preserved", ("vacuum",), reason()))
    items.append(("grading", (), reasons[0]))
    return items


@pytest.mark.parametrize("seed", [20261020, 7, 91])
def test_texts_are_the_dumps_of_the_entries(seed):
    items = seeded_items(random.Random(seed))
    want = oracle(items)
    assert len(want) > len(items) // 2
    assert list(cli._skip_texts(items)) == want


def test_values_of_other_types_are_encoded_whole():
    # True == 1 == 1.0 and hash alike: a cache keyed by value would write
    # them all as the first one it met
    shared = ("TruncationBreach", 1)
    items = [
        ("jacobi", ("a", "b", "c", 1, 0, 1), shared),
        ("jacobi", ("a", "b", "c", True, 0, 1), shared),
        ("jacobi", ("a", "b", "c", 1.0, 0, 1), shared),
        ("jacobi", ("a", "b", "c", 1, 0, 1), ("TruncationBreach", True)),
        ("jacobi", ("a", "b", "c", 1, 0, 1), ("TruncationBreach", 1.0)),
        ("jacobi", InstanceRun("a", "b", "c", range(0, 3), True, 1), shared),
        ("jacobi", InstanceRun("a", "b", True, range(0, 2), 1, 1), shared),
        ("jacobi", InstanceRun("a", "b", "c", [1, True], 1, 1), shared),
        ("translation", ("a", None, "b"), shared),
        ("translation", ("a", (1, 2), "b"), shared),
        ("translation", ["a", 1, "b"], shared),
        (True, ("a", 1, "b"), shared),
        ("skew-symmetry", ("a", -1, "b"), ["TruncationBreach", 1]),
        ("skew-symmetry", ("a", -1, "b"), ("TruncationBreach", (1,))),
        ("skew-symmetry", ("a", -1, "b"), shared),
    ]
    texts = list(cli._skip_texts(items))
    assert texts == oracle(items)
    assert '"instance": ["a", "b", "c", true, 0, 1]' in texts[1]
    assert texts[3].endswith('"reason": ["TruncationBreach", true]}')


def test_a_value_json_cannot_encode_raises_as_json_does():
    item = ("jacobi", ("a", "b", "c", Fraction(1, 2), 0, 1), ("TruncationBreach", 2))
    with pytest.raises(TypeError):
        oracle([item])
    with pytest.raises(TypeError):
        list(cli._skip_texts([item]))
