"""Per-instance pass and skip lists of axiom reports, for tests.

An ``AxiomReport`` counts its passes and skips, and ``detail=True`` adds
only ``skipped_instances``, the skips ``--json`` prints, with each run of
fringe skips kept whole as one ``InstanceRun``; ``expand`` lists them one
instance at a time.  Tests that compare checkers instance by instance call
``install(monkeypatch)``: it routes the report drain ``_record`` (in axioms,
and in extensions, which imports it) through a lister, which hands every
item on to the real drain and lists, per report, each passed instance as
(axiom, instance) and each skipped one as (axiom, instance,
("TruncationBreach", offending weight)), a run of fringe breaches expanded
in order.  Those are the lists a detail report held when it listed passes,
and the real drain still counts, so the lists can be held against the
report's tallies.
"""

from __future__ import annotations

from vertexcoh import axioms, extensions
from vertexcoh.axioms import AxiomReport, InstanceRun
from vertexcoh.spaces import TruncationBreach


def expand(items):
    """(axiom, instance, x) items, a report's skips or a generator's stream,
    with every InstanceRun expanded into its instances, in order."""
    for axiom, inst, x in items:
        for one in inst if type(inst) is InstanceRun else (inst,):
            yield axiom, one, x


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
                if isinstance(result, TruncationBreach):
                    reason = ("TruncationBreach", result.weight)
                    for one in inst if type(inst) is InstanceRun else (inst,):
                        skipped.append((axiom, one, reason))
                elif not result:
                    passed.append((axiom, inst))
                yield axiom, inst, result

        return record(report, space, listed())

    monkeypatch.setattr(axioms, "_record", listing_record)
    monkeypatch.setattr(extensions, "_record", listing_record)
    return lambda report: drained.get(report, ([], []))
