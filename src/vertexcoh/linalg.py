"""Sparse exact linear algebra over the rationals.

Systems are built around *unknown ids* — arbitrary hashable tags, usually
tuples like ("f", target, source) — registered in a fixed order that
determines pivoting.  Rows are sparse dicts id -> rational, an ``int`` or a
``Fraction`` (``scalars.exact``), each carrying a provenance tag naming the
constraint it came from, so a failed solve can say which identity ruled the
candidate out.

All routines are deterministic: the pivot of a row is its first nonzero
coefficient in registration order, and reduced row echelon form is unique for
a given unknown order, so kernel bases and solutions are reproducible across
runs.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional

from .scalars import exact

Row = dict[Hashable, int | Fraction]


class SubspaceNotContained(Exception):
    """A claimed subspace vector does not lie in the ambient span."""


class LinearSystem:
    """Sparse homogeneous system: ordered unknowns, tagged rows."""

    def __init__(self) -> None:
        self.unknowns: list[Hashable] = []
        self._pos: dict[Hashable, int] = {}
        self.rows: list[Row] = []
        self.tags: list[str] = []

    def add_unknown(self, uid: Hashable) -> None:
        """Register an unknown; re-registering is a no-op (order is kept)."""
        if uid not in self._pos:
            self._pos[uid] = len(self.unknowns)
            self.unknowns.append(uid)

    def add_unknowns(self, uids: Iterable[Hashable]) -> None:
        for uid in uids:
            self.add_unknown(uid)

    def position(self, uid: Hashable) -> int:
        return self._pos[uid]

    def add_row(self, coeffs: Row, tag: str = "") -> None:
        """Add a constraint sum(coeffs[u] * u) = 0; zero coefficients are dropped."""
        clean: Row = {}
        for uid, c in coeffs.items():
            if uid not in self._pos:
                raise KeyError(f"unknown id not registered: {uid!r}")
            if c:
                clean[uid] = exact(c)
        self.rows.append(clean)
        self.tags.append(tag)

    def __len__(self) -> int:
        return len(self.rows)


def _scaled_sub(target: dict[int, Fraction], factor: Fraction,
                source: dict[int, Fraction]) -> None:
    """target -= factor * source, in place, dropping zeros."""
    for pos, c in source.items():
        new = target.get(pos, 0) - factor * c
        if new:
            target[pos] = new
        else:
            target.pop(pos, None)


class Echelon:
    """Incremental reduced row echelon form over ids registered up front.

    ``pos`` gives each id its position; the pivot of a row is its first
    nonzero position.  ``pivots`` maps each pivot position to the unit-pivot
    row (keyed by position) and the tag of the row that contributed it.  Every
    insert back-substitutes into the existing rows, so they stay fully
    reduced and the row set is canonical for the registration order.
    """

    def __init__(self, ids: Iterable[Hashable]) -> None:
        self.pos: dict[Hashable, int] = {}
        for uid in ids:
            self.pos.setdefault(uid, len(self.pos))
        self.pivots: dict[int, tuple[dict[int, Fraction], str]] = {}

    def reduce(self, vec: Mapping[Hashable, Fraction]) -> dict[int, Fraction]:
        """The remainder of ``vec`` modulo the rows, keyed by position."""
        work = {self.pos[u]: c for u, c in vec.items() if c}
        pivots = self.pivots
        while work:
            hits = work.keys() & pivots.keys()
            if not hits:
                break
            p = min(hits)
            _scaled_sub(work, work[p], pivots[p][0])
        return work

    def insert(self, vec: Mapping[Hashable, Fraction], tag: str = "") -> Optional[int]:
        """Add ``vec`` as a row; returns its pivot position, or None if dependent."""
        work = self.reduce(vec)
        if not work:
            return None
        lead = min(work)
        inv = Fraction(1) / work[lead]
        # exact form: integral entries stay int, and so does reducing by them
        work = {p: exact(c * inv) for p, c in work.items()}
        for orow, _otag in self.pivots.values():
            if lead in orow:
                _scaled_sub(orow, orow[lead], work)
        self.pivots[lead] = (work, tag)
        return lead


def rref(system: LinearSystem) -> LinearSystem:
    """Reduced row echelon form: unit pivots, pivot-sorted rows, tags preserved.

    The tag of each output row is the tag of the input row that contributed
    its pivot.  rref is idempotent and canonical for the registered unknown
    order.
    """
    ech = Echelon(system.unknowns)
    for row, tag in zip(system.rows, system.tags):
        ech.insert(row, tag)

    out = LinearSystem()
    out.add_unknowns(system.unknowns)
    for lead in sorted(ech.pivots):
        prow, tag = ech.pivots[lead]
        out.add_row({system.unknowns[p]: c for p, c in prow.items()}, tag)
    return out


def kernel_basis(system: LinearSystem) -> list[Row]:
    """Basis of the solution space, one vector per free unknown, in unknown order.

    Read off the (unique) rref: the vector for free unknown u has a 1 at u and
    -coefficient at each pivot unknown, so the basis is canonical.
    """
    reduced = rref(system)
    rows_by_pivot: dict[Hashable, Row] = {}
    for row in reduced.rows:
        piv = min(row, key=system._pos.__getitem__)
        rows_by_pivot[piv] = row
    basis: list[Row] = []
    for free in system.unknowns:
        if free in rows_by_pivot:
            continue
        vec: Row = {free: 1}
        for piv, row in rows_by_pivot.items():
            c = row.get(free)
            if c:
                vec[piv] = -c
        basis.append(vec)
    return basis


def solve_affine(system: LinearSystem, rhs: list[Fraction]) -> Optional[Row]:
    """One solution of system * x = rhs, or None when inconsistent.

    ``rhs`` aligns with ``system.rows``.  Free unknowns are set to zero, so
    the returned solution is the canonical (pivot-supported) one.
    """
    if len(rhs) != len(system.rows):
        raise ValueError("right-hand side length does not match row count")

    # the right-hand side is the last column: a pivot there reads 0 = b != 0
    b_id = object()
    ech = Echelon([*system.unknowns, b_id])
    b_pos = ech.pos[b_id]
    for row, b in zip(system.rows, rhs):
        if ech.insert({**row, b_id: b}) == b_pos:
            return None

    solution: Row = {}
    for lead, (prow, _tag) in ech.pivots.items():
        if b_pos in prow:
            solution[system.unknowns[lead]] = prow[b_pos]
    return solution


def quotient_dim(space: list[Row], subspace: list[Row]) -> int:
    """dim(span(space) / span(subspace)); raises SubspaceNotContained if needed.

    Vectors are sparse dicts over any hashable ids; the unknown order is the
    first-appearance order over ``space`` then ``subspace``, which is
    deterministic for deterministically-built inputs.
    """
    order = [uid for vec in (*space, *subspace) for uid in vec]
    space_ech, sub_ech = Echelon(order), Echelon(order)
    space_rank = sum(space_ech.insert(v) is not None for v in space)
    sub_rank = 0
    for vec in subspace:
        if space_ech.reduce(vec):
            raise SubspaceNotContained(
                "subspace vector does not lie in the ambient span"
            )
        sub_rank += sub_ech.insert(vec) is not None
    return space_rank - sub_rank
