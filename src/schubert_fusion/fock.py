"""Finite wedge models for sl2 current-algebra modules.

A tensor factor of truncation m is the top exterior power of the
2m-dimensional space spanned by the particles

    v_i = v (x) t^i   and   u_i = u (x) t^i,      0 <= i < m,

where (v, u) is the standard 2-dimensional sl2 module written so that v has
h-weight -1, u has h-weight +1, e.v = u and f.u = v.  The mode-j current
x_j = x (x) t^j shifts particle modes by j and kills anything shifted past
the truncation.  Operators act as derivations on each wedge factor and
diagonally across tensor factors.

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
of each block are memoized per id.  `index_blocks` recovers the structural
form of an index.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache

V = 0  # particle kind v_i, h-weight -1
U = 1  # particle kind u_i, h-weight +1

E, F, H = "E", "F", "H"

_KIND_NAMES = {V: "v", U: "u"}

_BLOCK_IDS = {}     # sorted monomial tuple -> id
_BLOCKS = []        # id -> sorted monomial tuple
_BLOCK_GRADES = []  # id -> (h-weight, t-degree) of the block
_MOVES = {}         # (id, kind, mode) -> tuple of (image id, multiplier)


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


def monomial_from_particles(particles):
    """Canonically order a particle list.

    Returns (monomial, sign); sign is 0 and the monomial None when a particle
    repeats, since the wedge of a repeated particle vanishes.
    """
    items = list(particles)
    sign = 1
    # insertion sort, counting transpositions to keep the sign exact
    for i in range(1, len(items)):
        j = i
        while j > 0 and items[j] < items[j - 1]:
            items[j], items[j - 1] = items[j - 1], items[j]
            sign = -sign
            j -= 1
    for a, b in zip(items, items[1:]):
        if a == b:
            return None, 0
    return tuple(items), sign


def index_blocks(index) -> tuple:
    """Structural form of an index: per block, the tuple of factor monomials."""
    return tuple(_BLOCKS[bid] for bid in index)


def bigrade(index) -> tuple:
    """(h-weight, total t-degree) of a basis index, summed over all factors."""
    weight = 0
    tdeg = 0
    for bid in index:
        w, t = _BLOCK_GRADES[bid]
        weight += w
        tdeg += t
    return weight, tdeg


def format_index(index) -> str:
    factors = []
    for block in index_blocks(index):
        for mono in block:
            factors.append("^".join(f"{_KIND_NAMES[k]}{i}" for k, i in mono) or "1")
    return " | ".join(factors) if factors else "1"


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

    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __sub__(self, other: "WedgeState") -> "WedgeState":
        return self + other.scaled(-1)

    def scaled(self, c) -> "WedgeState":
        if not c:
            return WedgeState(self.shapes, {})
        return WedgeState(self.shapes, {i: c * v for i, v in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return "WedgeState(0)"
        parts = [f"{c}*({format_index(i)})" for i, c in sorted(self.coeffs.items())]
        return "WedgeState(" + " + ".join(parts) + ")"


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


def wedge_state(shapes, factor_particles, coeff=1) -> WedgeState:
    """Single orbit-sum state from per-factor particle lists.

    Each factor's particles are wedge-sorted (tracking the sign); factors in
    a block of equal truncations are then arranged into the block's canonical
    multiset order, which costs no sign.  The result has `coeff` times the
    accumulated sign on every arrangement of the given monomials.
    """
    shapes = tuple(shapes)
    if len(factor_particles) != len(shapes):
        raise ValueError("one particle list per factor required")
    monos = []
    sign = 1
    for particles, m in zip(factor_particles, shapes):
        mono, s = monomial_from_particles(particles)
        if s == 0:
            return WedgeState(shapes, {})
        if len(mono) != m:
            raise ValueError(f"wedge degree must equal the truncation {m}")
        for kind, mode in mono:
            if kind not in (V, U) or not 0 <= mode < m:
                raise ValueError(f"particle ({kind}, {mode}) outside factor of truncation {m}")
        sign *= s
        monos.append(mono)
    index = []
    pos = 0
    for _, count in factor_groups(shapes):
        index.append(_intern_block(tuple(sorted(monos[pos:pos + count]))))
        pos += count
    c = coeff * sign
    if not c:
        return WedgeState(shapes, {})
    return WedgeState(shapes, {tuple(index): c})


def _scope_blocks(shapes, factors):
    """Translate a factor-position scope into block indices.

    Restricted scopes must cover whole blocks of equal truncations: the
    orbit-sum basis cannot express an operator that tells interchangeable
    factors apart.
    """
    groups = factor_groups(shapes)
    if factors is None:
        return range(len(groups))
    wanted = set()
    for f in factors:
        if not 0 <= f < len(shapes):
            raise ValueError(f"factor position {f} out of range")
        wanted.add(f)
    blocks = []
    pos = 0
    for g, (_, count) in enumerate(groups):
        slots = set(range(pos, pos + count))
        if slots & wanted:
            if not slots <= wanted:
                raise ValueError(
                    "factor scope must cover whole blocks of equal truncations"
                )
            blocks.append(g)
            wanted -= slots
        pos += count
    return blocks


def _block_moves(bid, kind, mode):
    """Images of one interned block under a current, with integer multipliers.

    Replacing one factor monomial gamma by gamma' collects the arrangements
    of the new multiset; the multiplier carries the wedge sign and the
    multiplicity of gamma' in the new multiset (the number of slots the move
    could have landed in).
    """
    key = (bid, kind, mode)
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
            shifted = i + mode
            if kind == E:
                if pkind != V:
                    break  # sources exhausted: V's precede all U's
                if shifted >= limit:
                    break  # V modes ascend, later ones shift out too
                newp = (U, shifted)
                c = 1
            elif kind == F:
                if pkind != U:
                    continue
                if shifted >= limit:
                    break  # U modes ascend
                newp = (V, shifted)
                c = 1
            else:
                if shifted >= limit:
                    continue
                newp = (pkind, shifted)
                c = 1 if pkind == U else -1
            rest = mono[:pos] + mono[pos + 1:]
            q = bisect_left(rest, newp)
            if q < len(rest) and rest[q] == newp:
                continue  # repeated particle
            if (q - pos) % 2:
                c = -c
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


def apply_current(kind: str, mode: int, state: WedgeState, factors=None) -> WedgeState:
    """Apply the mode-`mode` current of kind E, F or H to a state.

    E sends v_i to u_{i+mode}, F sends u_i to v_{i+mode}, H sends v_i to
    -v_{i+mode} and u_i to u_{i+mode}; shifts reaching the factor truncation
    vanish.  `factors` restricts the diagonal action to the given tensor
    positions (used for operators acting on one tensor block only) and must
    cover whole blocks of equal truncations.
    """
    if kind not in (E, F, H):
        raise ValueError(f"unknown current kind {kind!r}")
    if not isinstance(mode, int) or mode < 0:
        raise ValueError("current mode must be a nonnegative integer")
    shapes = state.shapes
    groups = factor_groups(shapes)
    scope = _scope_blocks(shapes, factors)
    out = {}
    for idx, coeff in state.coeffs.items():
        for g in scope:
            if mode >= groups[g][0]:
                continue  # every shift lands at or past the truncation
            head = idx[:g]
            tail = idx[g + 1:]
            for nbid, mul in _block_moves(idx[g], kind, mode):
                new_idx = head + (nbid,) + tail
                acc = out.get(new_idx, 0) + coeff * mul
                if acc:
                    out[new_idx] = acc
                else:
                    del out[new_idx]
    return WedgeState(shapes, out)
