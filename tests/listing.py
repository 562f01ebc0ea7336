"""Per-instance pass and skip lists of axiom reports, for tests.

An ``AxiomReport`` counts its passes and skips, and ``detail=True`` adds
only ``skipped_instances``, the skips ``--json`` prints, with each Jacobi
triple's skips kept whole as one ``JacobiBlock``; ``expand`` lists them one
instance at a time, and ``instances`` does the same for a checker
generator's stream, derived passes included.  Tests that compare checkers
instance by instance call ``install(monkeypatch)``: it routes the report
drain ``_record`` (in axioms, and in extensions, which imports it) through a
lister, which hands every item on to the real drain and lists, per report,
each passed instance as (axiom, instance) and each skipped one as (axiom,
instance, ("TruncationBreach", offending weight)), a block's derived passes
and skips expanded in order.  Those are the lists a detail report held when it listed
passes, and the real drain still counts, so the lists can be held against
the report's tallies.
"""

from __future__ import annotations

from vertexcoh import axioms, extensions
from vertexcoh.axioms import AxiomReport, JacobiBlock
from vertexcoh.spaces import TruncationBreach


def expand(items):
    """(axiom, instance, reason) skips, a detail report's, with every
    JacobiBlock expanded into its skips, in order."""
    for axiom, inst, why in items:
        if type(inst) is JacobiBlock:
            for one, reason in inst.skips():
                yield axiom, one, reason
        else:
            yield axiom, inst, why


def instances(stream):
    """A checker generator's (axiom, instance, result) stream with every
    JacobiBlock expanded, in order, into one item per instance: each derived
    pass with an empty residual, then each skip with its TruncationBreach."""
    for axiom, inst, result in stream:
        if type(inst) is JacobiBlock:
            for one in inst.passes():
                yield axiom, one, {}
            for one, (_kind, weight) in inst.skips():
                yield axiom, one, TruncationBreach(weight)
        else:
            yield axiom, inst, result


def install(monkeypatch):
    """Route every report drain through the lister.  Returns the function
    from a report to its (passed, skipped) lists, both empty for a report
    nothing was drained into."""
    drained: dict[AxiomReport, tuple[list, list]] = {}
    record = axioms._record

    def listing_record(report, space, generator):
        report = report if report is not None else AxiomReport()
        passed, skipped = drained.setdefault(report, ([], []))

        def listed():
            for axiom, inst, result in generator:
                if type(inst) is JacobiBlock:
                    passed.extend((axiom, one) for one in inst.passes())
                    skipped.extend((axiom, one, why) for one, why in inst.skips())
                elif isinstance(result, TruncationBreach):
                    skipped.append((axiom, inst, ("TruncationBreach", result.weight)))
                elif not result:
                    passed.append((axiom, inst))
                yield axiom, inst, result

        return record(report, space, listed())

    monkeypatch.setattr(axioms, "_record", listing_record)
    monkeypatch.setattr(extensions, "_record", listing_record)
    return lambda report: drained.get(report, ([], []))
