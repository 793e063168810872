"""Finite wedge models for the raising currents of sl2 current algebras.

A tensor factor of truncation m is the top exterior power of the
2m-dimensional space spanned by the particles

    v_i = v (x) t^i   and   u_i = u (x) t^i,      0 <= i < m,

where (v, u) is the standard 2-dimensional sl2 module written so that v has
h-weight -1, u has h-weight +1 and e.v = u.  The mode-j raising current
e_j = e (x) t^j sends v_i to u_{i+j} and kills anything shifted past the
truncation.  It acts as a derivation on each wedge factor and diagonally
across tensor factors.  The raising currents are the only operators the
package applies: every module is the span of a cyclic vector under them.

Equal-truncation factors are interchangeable, and every vector this package
ever builds (cyclic vectors and their images under currents acting on whole
blocks of equal factors) is invariant under permuting them.  States are
therefore stored in the orbit-sum basis: per block of equal truncations, an
index records the sorted multiset of factor monomials and stands for the sum
of all distinct arrangements of those monomials over the block's tensor
slots.  This keeps supports polynomial even when a module has a long tail of
identical small factors.  The canonical particle order puts every v before
every u, each kind sorted by mode, so top wedges are sorted and sign-free;
permuting whole tensor factors never introduces signs.

Block contents recur across states constantly, so they are interned, and a
state index is one Python int: block g's id sits in a fixed-width field
(`_FIELD_BITS` bits), block 0 in the most significant field.  Every index
of one state has the same number of fields, so comparing two indices as
ints is comparing their block-id tuples lexicographically.  A current
rewrites one field with a shift and an add, and the single-current images
of each block are memoized per (id, mode).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import namedtuple
from functools import lru_cache

V = 0  # particle kind v_i, h-weight -1
U = 1  # particle kind u_i, h-weight +1

_FIELD_BITS = 32    # width of one block-id field in a packed index

_BLOCK_IDS = {}     # sorted monomial tuple -> id
_BLOCKS = []        # id -> sorted monomial tuple
_BLOCK_GRADES = []  # id -> (h-weight, t-degree) of the block
_MOVES = {}         # (mode << _FIELD_BITS) | id -> tuple of (image id, multiplier)


def _intern_block(block, grade) -> int:
    """The id of a block, given its (h-weight, t-degree) for a new entry."""
    bid = _BLOCK_IDS.get(block)
    if bid is None:
        bid = len(_BLOCKS)
        if bid >> _FIELD_BITS:
            # a wider id would spill into the next field and alias an index
            raise OverflowError(f"more than 2**{_FIELD_BITS} interned blocks; "
                                "block ids no longer fit their index field")
        _BLOCK_IDS[block] = bid
        _BLOCKS.append(block)
        _BLOCK_GRADES.append(grade)
    return bid


@lru_cache(maxsize=None)
def factor_groups(shapes) -> tuple:
    """Runs of equal adjacent truncations, as (truncation, count) pairs."""
    groups = []
    for m in shapes:
        if groups and groups[-1][0] == m:
            groups[-1][1] += 1
        else:
            groups.append([m, 1])
    return tuple((m, c) for m, c in groups)


def pack_index(bids) -> int:
    """The packed index of a sequence of block ids, block 0 most significant."""
    index = 0
    for bid in bids:
        index = (index << _FIELD_BITS) | bid
    return index


def block_ids(index, count) -> tuple:
    """The `count` block ids packed in an index, block 0 first."""
    mask = (1 << _FIELD_BITS) - 1
    return tuple((index >> (_FIELD_BITS * (count - 1 - g))) & mask
                 for g in range(count))


def bigrade(index, count) -> tuple:
    """(h-weight, total t-degree) of a basis index of `count` blocks."""
    weight = 0
    tdeg = 0
    for bid in block_ids(index, count):
        w, t = _BLOCK_GRADES[bid]
        weight += w
        tdeg += t
    return weight, tdeg


class WedgeState(namedtuple("WedgeState", "shapes coeffs")):
    """Exact linear combination of orbit-sum basis indices.

    shapes fixes the per-factor truncations; coeffs maps indices to nonzero
    exact coefficients (ints in the span closure, whose rows come from the
    integer SpanBasis) and is treated as immutable.  An index is one int of
    fixed-width block-id fields, one per block of equal truncations in
    `factor_groups(shapes)`, block 0 most significant, so its int order is
    the lexicographic order of its block-id tuple.  The coefficient of an
    index is the coefficient of each individual arrangement it stands for.
    """

    __slots__ = ()

    def __add__(self, other: "WedgeState") -> "WedgeState":
        if self.shapes != other.shapes:
            raise ValueError("cannot add states over different factor shapes")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            nv = out.get(idx, 0) + c
            if nv:
                out[idx] = nv
            else:
                del out[idx]
        return WedgeState(self.shapes, out)


def top_wedge(shapes) -> WedgeState:
    """Cyclic vector: product over factors of v_0 ^ v_1 ^ ... ^ v_{m-1}."""
    shapes = tuple(shapes)
    for m in shapes:
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"factor truncation must be a positive integer, got {m!r}")
    index = pack_index(
        _intern_block((tuple((V, i) for i in range(m)),) * count,
                      (-m * count, count * m * (m - 1) // 2))
        for m, count in factor_groups(shapes)
    )
    return WedgeState(shapes, {index: 1})


def _block_moves(bid, mode):
    """Images of one interned block under e_mode, with integer multipliers.

    Computes and memoizes the entry of `_MOVES`; `apply_current` reads the
    table itself and calls this only on a miss.

    Replacing one factor monomial gamma by gamma' collects the arrangements
    of the new multiset; the multiplier carries the wedge sign and the
    multiplicity of gamma' in the new multiset (the number of slots the move
    could have landed in).
    """
    block = _BLOCKS[bid]
    weight, tdeg = _BLOCK_GRADES[bid]
    grade = (weight + 2, tdeg + mode)  # one v_i became u_{i+mode}
    limit = len(block[0])  # wedge degree equals the truncation
    acc = {}
    prev = None
    for slot in range(len(block)):
        mono = block[slot]
        if mono == prev:
            continue  # same source monomial, already processed
        prev = mono
        rest_block = block[:slot] + block[slot + 1:]
        for pos in range(limit):
            pkind, i = mono[pos]
            if pkind != V:
                break  # sources exhausted: V's precede all U's
            shifted = i + mode
            if shifted >= limit:
                break  # V modes ascend, later ones shift out too
            newp = (U, shifted)
            rest = mono[:pos] + mono[pos + 1:]
            q = bisect_left(rest, newp)
            if q < len(rest) and rest[q] == newp:
                continue  # repeated particle
            c = -1 if (q - pos) % 2 else 1
            new_mono = rest[:q] + (newp,) + rest[q:]
            r = bisect_left(rest_block, new_mono)
            new_block = rest_block[:r] + (new_mono,) + rest_block[r:]
            mult = 1
            k = r - 1
            while k >= 0 and rest_block[k] == new_mono:
                mult += 1
                k -= 1
            k = r
            while k < len(rest_block) and rest_block[k] == new_mono:
                mult += 1
                k += 1
            nbid = _intern_block(new_block, grade)
            acc[nbid] = acc.get(nbid, 0) + c * mult
    moves = tuple((b, c) for b, c in acc.items() if c)
    _MOVES[(mode << _FIELD_BITS) | bid] = moves
    return moves


def apply_current(mode: int, state: WedgeState, blocks=None) -> WedgeState:
    """Apply the raising current e_mode to a state.

    e_mode sends v_i to u_{i+mode}; shifts reaching the factor truncation
    vanish.  `blocks` restricts the diagonal action to the given blocks of
    equal truncations, as indices into `factor_groups(state.shapes)` (used
    for operators acting on one tensor block only); by default the current
    acts on every block.  A block index outside 0 .. len(groups) - 1
    raises ValueError.
    """
    if not isinstance(mode, int) or mode < 0:
        raise ValueError("current mode must be a nonnegative integer")
    groups = factor_groups(state.shapes)
    last = len(groups) - 1
    scope = range(len(groups)) if blocks is None else tuple(blocks)
    for g in scope:
        if not 0 <= g <= last:
            raise ValueError(f"block index {g!r} is outside 0..{last}")
    bits = _FIELD_BITS
    mask = (1 << bits) - 1
    key = mode << bits
    moves_of = _MOVES
    out = {}
    get = out.get
    for g in scope:
        if mode >= groups[g][0]:
            continue  # every shift lands at or past the truncation
        shift = bits * (last - g)
        for idx, coeff in state.coeffs.items():
            bid = (idx >> shift) & mask
            moves = moves_of.get(key | bid)
            if moves is None:
                moves = _block_moves(bid, mode)
            rest = idx - (bid << shift)
            for nbid, mul in moves:
                new_idx = rest + (nbid << shift)
                acc = get(new_idx, 0) + coeff * mul
                if acc:
                    out[new_idx] = acc
                else:
                    del out[new_idx]
    return WedgeState(state.shapes, out)
