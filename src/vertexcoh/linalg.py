"""Sparse exact linear algebra over the rationals.

The one matrix type is ``Echelon``, built over *unknown ids* — arbitrary
hashable tags, usually tuples like ("f", source, target) — registered in a
fixed order that determines pivoting.  Rows are sparse dicts id -> rational,
an ``int`` or a ``Fraction`` (``scalars.exact``), drawn from a stream of
(row, tag) pairs; the tag names the constraint a row came from, so a failed
solve can say which identity ruled the candidate out.

All routines are deterministic: the pivot of a row is its first nonzero
coefficient in registration order, and reduced row echelon form is unique for
a given unknown order, so kernel bases and solutions are reproducible across
runs.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Hashable, Iterable, Mapping, Optional

from .scalars import exact

Row = dict[Hashable, int | Fraction]


class SubspaceNotContained(Exception):
    """A claimed subspace vector does not lie in the ambient span."""


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
        """The remainder of ``vec`` modulo the rows, keyed by position.

        Every id is looked up before zero coefficients are dropped, so an id
        that was never registered raises KeyError whatever its coefficient.
        """
        work = {p: c for p, c in zip(map(self.pos.__getitem__, vec), vec.values()) if c}
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
                columns = _kernel_columns(self.ids, self.kernel())
                if columns is None:
                    return      # full rank: every further row is dependent
            item = next(rows, None)
            if item is None:
                return
            row, tag = item
            if columns is None or not _annihilates(row, columns):
                if self.insert(row, tag) is not None:
                    columns = None


def _kernel_columns(ids: list[Hashable], kernel: list[Row]) -> Optional[tuple[int, dict]]:
    """K transposed as id -> [(j, entry)], each vector scaled to integers.

    None when K = {0}.  Every id has a column, so a row holding one that
    was never registered raises KeyError here, as it does in insert.
    Scaling by the denominators' lcm keeps the check in integer arithmetic
    and does not change which rows annihilate K.
    """
    if not kernel:
        return None
    columns: dict[Hashable, list] = {u: [] for u in ids}
    for j, vec in enumerate(kernel):
        scale = math.lcm(*(c.denominator for c in vec.values()))
        for u, c in vec.items():
            columns[u].append((j, int(c * scale)))
    return len(kernel), columns


def _annihilates(row: Row, kernel_columns: tuple[int, dict]) -> bool:
    """Exactly whether row . k = 0 for every vector k of K."""
    dim, columns = kernel_columns
    acc = [0] * dim
    for u, c in row.items():
        for j, k in columns[u]:
            acc[j] += c * k
    return not any(acc)


def rref(ids: Iterable[Hashable], rows: Iterable[tuple[Row, Hashable]],
         bound: int | None = None) -> list[tuple[Row, Hashable]]:
    """Reduced row echelon form of (row, tag) pairs over ``ids``.

    The unit pivot rows, by id and in pivot order, each with the tag of the
    input row that contributed its pivot.  rref is idempotent and canonical
    for the order of ``ids``.  ``bound`` is Echelon.extend's: the result
    does not depend on it.
    """
    ech = Echelon(ids)
    ech.extend(rows, bound)
    return [({ech.ids[p]: c for p, c in prow.items()}, tag)
            for _lead, (prow, tag) in sorted(ech.pivots.items())]


def solve_affine(ids: Iterable[Hashable],
                 rows: Iterable[tuple[Row, int | Fraction, Hashable]]) -> Optional[Row]:
    """One solution x of row . x = b for every (row, b, tag), or None.

    None when the rows are inconsistent; no row is drawn after the first
    one that shows it.  Free ids are set to zero, so the returned solution
    is the canonical (pivot-supported) one, in exact form.  Once the ids
    all have pivots the solution is fixed, and each remaining row is only
    checked, exactly, for row . x = b (Echelon.extend).
    """
    # the right-hand side is the last column: a pivot there reads 0 = b != 0,
    # and no row drawn after it can change that
    b_id = object()
    ech = Echelon([*ids, b_id])
    b_pos = ech.pos[b_id]

    def augmented():
        for row, b, tag in rows:
            yield {**row, b_id: b}, tag
            if b_pos in ech.pivots:
                return

    ech.extend(augmented(), bound=b_pos)
    if b_pos in ech.pivots:
        return None
    return {ech.ids[lead]: exact(prow[b_pos])
            for lead, (prow, _tag) in ech.pivots.items() if b_pos in prow}


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
