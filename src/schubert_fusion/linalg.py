"""Exact sparse linear algebra over the rationals.

Vectors are plain dicts mapping indices to nonzero rational coefficients.
Indices may be any hashable, totally ordered values (nested int tuples in
practice), so the same machinery spans wedge-monomial tuples and plain
coordinate labels.  A SpanBasis maintains the span of the inserted vectors
in reduced row-echelon form:

* rows have pairwise distinct pivots (the smallest index in each support),
* every pivot coefficient is exactly 1,
* no row is supported on another row's pivot.

All arithmetic is exact; no floats anywhere.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction as rational

_ONE = rational(1)


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
        """Residual of vec after elimination; empty iff vec lies in the span.

        Rows carry no foreign pivots, so a single pass over the initial
        support at pivot positions is a complete reduction.
        """
        residual = {i: c for i, c in vec.items() if c}
        for p in sorted(i for i in residual if i in self._rows):
            c = residual.pop(p)
            for q, rc in self._rows[p].items():
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

        The returned row is the pivot-normalized residual: usually far
        sparser than vec, with tame coefficients, which matters when the
        caller feeds rows back into further computation.
        """
        residual = self.reduce(vec)
        if not residual:
            return None
        pivot = min(residual)
        inv = _ONE / residual[pivot]
        row = {q: c * inv for q, c in residual.items()}
        # Eliminate the new pivot from every older row supported there.
        for other_pivot in list(self._columns.get(pivot, ())):
            other = self._rows[other_pivot]
            factor = other.pop(pivot)
            self._columns[pivot].discard(other_pivot)
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
        self._rows[pivot] = row
        for q in row:
            self._columns[q].add(pivot)
        return dict(row)

    def __repr__(self):
        return f"SpanBasis(dimension={self.dimension})"
