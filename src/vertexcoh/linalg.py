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

import math
from fractions import Fraction
from itertools import takewhile
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
        self.ids: list[Hashable] = list(self.pos)
        self.pivots: dict[int, tuple[dict[int, Fraction], Hashable]] = {}

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

    def insert(self, vec: Mapping[Hashable, Fraction], tag: Hashable = "") -> Optional[int]:
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

    def kernel(self) -> list[Row]:
        """The vectors every row annihilates, one per free id in order, by id.

        The vector for free id u has a 1 at u and -coefficient at each pivot
        id, so the basis is canonical for the row space.  Entries are put in
        exact form here: back-substitution can leave integral Fractions in
        the rows.
        """
        ids, pivots = self.ids, self.pivots
        basis = {p: {ids[p]: 1} for p in range(len(ids)) if p not in pivots}
        for lead in sorted(pivots):
            for p, c in pivots[lead][0].items():
                if p != lead:
                    basis[p][ids[lead]] = exact(-c)
        return list(basis.values())

    def extend(self, rows: Iterable[tuple[Row, Hashable]], bound: int | None = None) -> None:
        """Eliminate (row, tag) pairs, drawing rows only while they can matter.

        Below ``bound`` (default: the number of ids) each row is inserted.
        Once the rank reaches it, the kernel K of the rows so far is read
        off, and each further row is checked exactly against K instead: a
        row that annihilates K is skipped, one that does not is inserted and
        K is read again.  At full rank K = {0}, so no further row is drawn.

        Exactness: K, read off a subset of the rows, contains the kernel of
        all of them, and once every row annihilates K the two are equal.  A
        skipped row annihilates K = R^perp, R the span of the rows inserted,
        so it lies in R; a row is inserted exactly when it is independent of
        those before it, as in full elimination.  So the echelon ends with
        the same row space and the same pivots, each from the same row, and
        since the rref is canonical for the row space, every basis read off
        it is identical.  Any bound gives this result; a bound equal to the
        true rank makes the check pass on every row after it.
        """
        bound = len(self.pos) if bound is None else bound
        rows = iter(rows)
        columns = None          # K transposed once the rank reaches the bound
        while True:
            if columns is None and len(self.pivots) >= bound:
                columns = _kernel_columns(self.kernel())
                if columns is None:
                    return      # full rank: every further row is dependent
            item = next(rows, None)
            if item is None:
                return
            row, tag = item
            if columns is None or not _annihilates(row, columns):
                if self.insert(row, tag) is not None:
                    columns = None


def _kernel_columns(kernel: list[Row]) -> Optional[tuple[int, dict]]:
    """K transposed as id -> [(j, entry)], each vector scaled to integers.

    None when K = {0}.  Scaling by the denominators' lcm keeps the check in
    integer arithmetic and does not change which rows annihilate K.
    """
    if not kernel:
        return None
    columns: dict[Hashable, list] = {}
    for j, vec in enumerate(kernel):
        scale = math.lcm(*(c.denominator for c in vec.values()))
        for u, c in vec.items():
            columns.setdefault(u, []).append((j, int(c * scale)))
    return len(kernel), columns


def _annihilates(row: Row, kernel_columns: tuple[int, dict]) -> bool:
    """Exactly whether row . k = 0 for every vector k of K."""
    dim, columns = kernel_columns
    acc = [0] * dim
    for u, c in row.items():
        for j, k in columns.get(u, ()):
            acc[j] += c * k
    return not any(acc)


def rref(system: LinearSystem, bound: int | None = None) -> LinearSystem:
    """Reduced row echelon form: unit pivots, pivot-sorted rows, tags preserved.

    The tag of each output row is the tag of the input row that contributed
    its pivot.  rref is idempotent and canonical for the registered unknown
    order.  ``bound`` is Echelon.extend's: the result does not depend on it.
    """
    ech = Echelon(system.unknowns)
    ech.extend(zip(system.rows, system.tags), bound)

    out = LinearSystem()
    out.add_unknowns(system.unknowns)
    for lead in sorted(ech.pivots):
        prow, tag = ech.pivots[lead]
        out.add_row({system.unknowns[p]: c for p, c in prow.items()}, tag)
    return out


def kernel_basis(system: LinearSystem, bound: int | None = None) -> list[Row]:
    """Basis of the solution space, one vector per free unknown, in unknown order.

    Read off the echelon of the rows (Echelon.kernel), so the basis is
    canonical.  ``bound`` is an expected rank, passed to Echelon.extend: when
    the rank reaches it, the remaining rows are checked against the kernel
    rather than reduced.  The basis is the same for every bound.
    """
    ech = Echelon(system.unknowns)
    ech.extend(zip(system.rows, system.tags), bound)
    return ech.kernel()


def solve_affine(system: LinearSystem, rhs: list[Fraction]) -> Optional[Row]:
    """One solution of system * x = rhs, or None when inconsistent.

    ``rhs`` aligns with ``system.rows``.  Free unknowns are set to zero, so
    the returned solution is the canonical (pivot-supported) one.  Once the
    unknowns all have pivots the solution x is fixed, and each remaining row
    is only checked, exactly, for row . x = b (Echelon.extend).
    """
    if len(rhs) != len(system.rows):
        raise ValueError("right-hand side length does not match row count")

    # the right-hand side is the last column: a pivot there reads 0 = b != 0,
    # and no row drawn after it can change that
    b_id = object()
    ech = Echelon([*system.unknowns, b_id])
    b_pos = ech.pos[b_id]
    augmented = (({**row, b_id: b}, tag)
                 for row, b, tag in zip(system.rows, rhs, system.tags))
    ech.extend(takewhile(lambda _item: b_pos not in ech.pivots, augmented),
               bound=len(system.unknowns))
    if b_pos in ech.pivots:
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
