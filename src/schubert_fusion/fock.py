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

Block contents recur across states constantly, so they are interned: a state
index is a tuple of small integer block ids, and the single-current images
of each block are memoized per id.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

V = 0  # particle kind v_i, h-weight -1
U = 1  # particle kind u_i, h-weight +1

_BLOCK_IDS = {}     # sorted monomial tuple -> id
_BLOCKS = []        # id -> sorted monomial tuple
_BLOCK_GRADES = []  # id -> (h-weight, t-degree) of the block
_MOVES = {}         # (id, mode) -> tuple of (image id, multiplier)


def _intern_block(block) -> int:
    bid = _BLOCK_IDS.get(block)
    if bid is None:
        bid = len(_BLOCKS)
        _BLOCK_IDS[block] = bid
        _BLOCKS.append(block)
        weight = tdeg = 0
        for mono in block:
            for kind, mode in mono:
                weight += 1 if kind == U else -1
                tdeg += mode
        _BLOCK_GRADES.append((weight, tdeg))
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


def bigrade(index) -> tuple:
    """(h-weight, total t-degree) of a basis index, summed over all factors."""
    weight = 0
    tdeg = 0
    for bid in index:
        w, t = _BLOCK_GRADES[bid]
        weight += w
        tdeg += t
    return weight, tdeg


@dataclass(frozen=True)
class WedgeState:
    """Exact linear combination of orbit-sum basis indices.

    shapes fixes the per-factor truncations; coeffs maps indices (one block
    id per block of equal truncations) to nonzero exact coefficients (ints
    in the span closure, whose rows come from the integer SpanBasis) and
    is treated as immutable.  The coefficient of an index is the coefficient
    of each individual arrangement it stands for.
    """

    shapes: tuple
    coeffs: dict

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
    index = tuple(
        _intern_block((tuple((V, i) for i in range(m)),) * count)
        for m, count in factor_groups(shapes)
    )
    return WedgeState(shapes, {index: 1})


def _block_moves(bid, mode):
    """Images of one interned block under e_mode, with integer multipliers.

    Replacing one factor monomial gamma by gamma' collects the arrangements
    of the new multiset; the multiplier carries the wedge sign and the
    multiplicity of gamma' in the new multiset (the number of slots the move
    could have landed in).
    """
    key = (bid, mode)
    cached = _MOVES.get(key)
    if cached is not None:
        return cached
    block = _BLOCKS[bid]
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
            nbid = _intern_block(new_block)
            acc[nbid] = acc.get(nbid, 0) + c * mult
    moves = tuple((b, c) for b, c in acc.items() if c)
    _MOVES[key] = moves
    return moves


def apply_current(mode: int, state: WedgeState, blocks=None) -> WedgeState:
    """Apply the raising current e_mode to a state.

    e_mode sends v_i to u_{i+mode}; shifts reaching the factor truncation
    vanish.  `blocks` restricts the diagonal action to the given blocks of
    equal truncations, as indices into `factor_groups(state.shapes)` (used
    for operators acting on one tensor block only); by default the current
    acts on every block.
    """
    if not isinstance(mode, int) or mode < 0:
        raise ValueError("current mode must be a nonnegative integer")
    groups = factor_groups(state.shapes)
    scope = range(len(groups)) if blocks is None else blocks
    out = {}
    for idx, coeff in state.coeffs.items():
        for g in scope:
            if mode >= groups[g][0]:
                continue  # every shift lands at or past the truncation
            head = idx[:g]
            tail = idx[g + 1:]
            for nbid, mul in _block_moves(idx[g], mode):
                new_idx = head + (nbid,) + tail
                acc = out.get(new_idx, 0) + coeff * mul
                if acc:
                    out[new_idx] = acc
                else:
                    del out[new_idx]
    return WedgeState(state.shapes, out)
