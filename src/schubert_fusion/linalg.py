"""Exact sparse linear algebra with fraction-free integer rows.

Vectors are plain dicts mapping indices to nonzero int coefficients (the
closure's wedge rows, the flag model's unit vectors and its integer-cleared
translates).
Indices may be any hashable, totally ordered values; in practice they are
ints (the closure's packed wedge indices, one int per orbit-sum monomial,
and the flag model's coordinate labels).  A SpanBasis maintains the span
of the inserted vectors in reduced row-echelon form over the integers:

* rows have pairwise distinct pivots (the smallest index in each support),
* every row is a primitive int vector (gcd content 1) with a positive pivot,
* no row is supported on another row's pivot.

Elimination cross-multiplies (fraction-free, in the style of Bareiss), so
all arithmetic is on Python ints; no fractions or floats anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction as rational  # the group parameters' scalar type
from math import gcd


def _cross_scale(target: dict, c: int, rp: int) -> int:
    """Scale target by rp/g in place, g = gcd(c, rp), and return c/g.

    Subtracting c/g times a row with pivot coefficient rp > 0 from the
    scaled target then cancels the target's coefficient c at that pivot.
    """
    g = gcd(c, rp)
    scale = rp // g
    if scale != 1:
        for q in target:
            target[q] *= scale
    return c // g


class SpanBasis:
    """Incrementally maintained span with exact membership tests."""

    __slots__ = ("_rows", "_columns")

    def __init__(self):
        self._rows = {}  # pivot index -> row dict
        self._columns = defaultdict(set)  # index -> pivots of rows supported there

    @property
    def dimension(self) -> int:
        return len(self._rows)

    def pivots(self) -> list:
        """Pivot indices in increasing index order."""
        return sorted(self._rows)

    def row_vectors(self) -> list:
        """Copies of the stored rows, ordered by pivot."""
        return [dict(self._rows[p]) for p in sorted(self._rows)]

    def reduce(self, vec: dict) -> dict:
        """A nonzero multiple of int vector vec's residual; empty iff in the span.

        Rows carry no foreign pivots, so a single pass over the initial
        support at pivot positions is a complete reduction.
        """
        residual = dict(vec)
        for p in sorted(i for i in residual if i in self._rows):
            c = residual.pop(p)
            row = self._rows[p]
            rp = row[p]
            if rp != 1:
                c = _cross_scale(residual, c, rp)
            for q, rc in row.items():
                if q == p:
                    continue
                nv = residual.get(q, 0) - c * rc
                if nv:
                    residual[q] = nv
                else:
                    residual.pop(q, None)
        return residual

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    def insert(self, vec: dict) -> bool:
        """Add vec to the span; True iff the dimension grew."""
        return self.insert_reduced(vec) is not None

    def insert_reduced(self, vec: dict):
        """Add vec to the span; return a copy of the stored row, or None.

        The returned row is the primitive residual with a positive pivot:
        usually far sparser than vec, with small int coefficients, which
        matters when the caller feeds rows back into further computation.
        """
        residual = self.reduce(vec)
        if not residual:
            return None
        pivot = min(residual)
        content = gcd(*residual.values())
        if residual[pivot] < 0:
            content = -content
        row = ({q: c // content for q, c in residual.items()}
               if content != 1 else residual)
        rp = row[pivot]
        # Eliminate the new pivot from every older row supported there.
        for other_pivot in list(self._columns.get(pivot, ())):
            other = self._rows[other_pivot]
            factor = other.pop(pivot)
            self._columns[pivot].discard(other_pivot)
            if rp != 1:
                factor = _cross_scale(other, factor, rp)
            for q, c in row.items():
                if q == pivot:
                    continue
                nv = other.get(q, 0) - factor * c
                if nv:
                    if q not in other:
                        self._columns[q].add(other_pivot)
                    other[q] = nv
                elif q in other:
                    del other[q]
                    self._columns[q].discard(other_pivot)
            if other[other_pivot] != 1:
                content = gcd(*other.values())
                if content != 1:
                    for q in other:
                        other[q] //= content
        self._rows[pivot] = row
        for q in row:
            self._columns[q].add(pivot)
        return dict(row)

    def __repr__(self):
        return f"SpanBasis(dimension={self.dimension})"
