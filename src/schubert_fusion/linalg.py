"""Exact sparse linear algebra with fraction-free integer rows.

Vectors are plain dicts mapping indices to nonzero int coefficients (the
closure's wedge rows, the flag model's unit vectors and its translates).
Indices may be any hashable, totally ordered values; in practice they are
ints (the closure's packed wedge indices, one int per orbit-sum monomial,
and the flag model's coordinate labels).  A SpanBasis maintains the span
of the inserted vectors in row-echelon form over the integers:

* rows have pairwise distinct pivots (the smallest index in each support),
* every row is a primitive int vector (gcd content 1) with a positive pivot.

A row may be supported on the pivots of rows inserted after it; it is never
rewritten once stored.  Elimination cross-multiplies (fraction-free, in the
style of Bareiss), so all arithmetic is on Python ints; no fractions or
floats anywhere.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from math import gcd


def __getattr__(name):
    """Resolve `rational` on first use, so importing the package skips `fractions`.

    No module of the package uses `rational`: it stays while perfbench/worker.py
    --probe reads `rational.__module__` as the name of the arithmetic backend.
    """
    if name == "rational":
        from fractions import Fraction
        return Fraction
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows = {}  # pivot index -> row dict

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

        Pivots are cleared in increasing order from a min-heap: subtracting
        the row of pivot p adds only indices above p.  A pivot whose entry
        has cancelled by the time it is popped is skipped.
        """
        residual = dict(vec)
        rows = self._rows
        pending = [i for i in residual if i in rows]
        heapify(pending)
        while pending:
            p = heappop(pending)
            c = residual.pop(p, 0)
            if not c:
                continue
            row = rows[p]
            rp = row[p]
            if rp != 1:
                c = _cross_scale(residual, c, rp)
            for q, rc in row.items():
                if q == p:
                    continue
                old = residual.get(q)
                if old is None:
                    residual[q] = -c * rc
                    if q in rows:
                        heappush(pending, q)
                else:
                    nv = old - c * rc
                    if nv:
                        residual[q] = nv
                    else:
                        del residual[q]
        return residual

    def contains(self, vec: dict) -> bool:
        """True iff int vector vec lies in the span; vec is not changed.

        A stored row's support starts at its pivot, so a member's smallest
        index is always a pivot.  Each step clears the smallest index left
        in the residual by its row, which adds only larger indices; once
        that index is not a pivot, no row can cancel it and the answer is
        False without finishing the reduction.  A scan by `min` suits the
        flag model's vectors of at most 2n coordinates.
        """
        residual = dict(vec)
        rows = self._rows
        while residual:
            p = min(residual)
            row = rows.get(p)
            if row is None:
                return False
            c = residual.pop(p)
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
                    del residual[q]
        return True

    def copy(self) -> "SpanBasis":
        """A new basis with the same span and the same rows.

        The pivot -> row map is copied and the rows are shared, which is
        safe because a stored row is never rewritten: inserting into either
        basis leaves the other's rows and dimension unchanged.
        """
        twin = SpanBasis()
        twin._rows = dict(self._rows)
        return twin

    def insert(self, vec: dict) -> bool:
        """Add vec to the span; True iff the dimension grew."""
        return self.insert_reduced(vec) is not None

    def insert_reduced(self, vec: dict):
        """Add vec to the span; return a copy of the stored row, or None.

        The row is the primitive residual with a positive pivot.  Any two
        full reductions of vec are proportional (a combination cancelling
        vec lies in the span and vanishes at every pivot), so the row
        depends on vec and the span only.  It is usually far sparser than
        vec, with small int coefficients, which matters when the caller
        feeds rows back into further computation.
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
        self._rows[pivot] = row
        return dict(row)

    def __repr__(self):
        return f"SpanBasis(dimension={self.dimension})"
