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

`closure_layers` is the one span closure: the span of a vector under
commuting operators, built layer by layer, one SpanBasis per layer.

`reduce` is the one elimination loop; `insert_reduced` and `contains` both
go through it.  Membership never changes the basis.  `contains` first
looks up the row at the vector's smallest index: a vector equal to that
stored row (or empty) is a member with no elimination, which is most of
the flag model's membership tests.  Any other vector is a member iff its
reduction is empty.
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
        """The stored rows themselves, ordered by pivot; read-only.

        No row is copied: a stored row is never rewritten, so the list
        stays valid as the basis grows, and a caller must not change a row.
        """
        return [self._rows[p] for p in sorted(self._rows)]

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

        An empty vec, or one equal to the stored row at its smallest index,
        is a member at the cost of one lookup and one dict comparison, with
        no copy of vec and no heap.  The flag model tests mostly such
        vectors (the rows of a subspace, and their images under t, which
        are often rows of the same subspace).  Any other vec is a member
        iff `reduce` leaves nothing.
        """
        if not vec or self._rows.get(min(vec)) == vec:
            return True
        return not self.reduce(vec)

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
        """Add vec to the span; return the stored row itself, or None.

        The row is read-only: it is never rewritten, and a caller must not
        change it either.  It is the primitive residual with a positive
        pivot.  Any two full reductions of vec are proportional (a
        combination cancelling vec lies in the span and vanishes at every
        pivot), so the row depends on vec and the span only.  It is
        usually far sparser than vec, with small int coefficients, which
        matters when the caller feeds rows back into further computation.

        A one-term vec {i: c} whose index i is not a pivot is already
        reduced (`reduce` clears pivots only), and its primitive form is
        {i: 1}, so that row is stored without elimination; the flag model
        inserts 2n unit vectors for every canonical chain.  A one-term vec
        at a pivot still goes through `reduce`: the row there may carry
        other entries, so vec need not be in the span.
        """
        if len(vec) == 1:
            (pivot,) = vec
            if pivot not in self._rows:
                row = self._rows[pivot] = {pivot: 1}
                return row
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
        return row

    def __repr__(self):
        return f"SpanBasis(dimension={self.dimension})"


def closure_layers(seed: dict, operators):
    """The span of int vector `seed` under commuting `operators`, by layers.

    Yields a SpanBasis per layer, the seed's first, each built only when
    asked for: layer k + 1 is spanned by the images of layer k's rows, and
    the first layer that adds nothing ends the iteration unyielded.  The
    operators map int vectors to int vectors and commute, and each raises a
    grading in which the seed is homogeneous by one step, so the images
    that make a layer are reduced against that layer's basis alone.  The
    sorted words op_{i_1} ... op_{i_k} (i_1 <= ... <= i_k) on the seed span
    the closure, so a row born from operator i meets only operators j >= i:
    operator j meets the first ends[j] rows of a layer.  Operators meet the
    stored rows, which stay no bigger than their layer, not the raw images,
    whose words grow in terms and coefficients with their length.
    """
    basis = SpanBasis()
    layer = [basis.insert_reduced(seed)] if seed else []
    ends = [len(layer)] * len(operators)
    while layer:
        yield basis
        basis = SpanBasis()
        born, born_ends = [], []
        for op, end in zip(operators, ends):
            for row in layer[:end]:
                image = op(row)
                if image:
                    row = basis.insert_reduced(image)
                    if row is not None:
                        born.append(row)
            born_ends.append(len(born))
        layer, ends = born, born_ends
