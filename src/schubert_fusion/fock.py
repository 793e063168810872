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

A factor monomial of truncation m is a 2m-bit int: bit i stands for v_i and
bit m + i for u_i, so it has m bits set.  The canonical particle order puts
every v before every u, each kind sorted by mode, which is the order of the
bits; top wedges are sorted and sign-free.  e_j acts on v_i when bit i is
set, i + j < m and bit m + i + j is clear, by one XOR, and its sign is the
parity of the bits set strictly between the two positions.

Equal-truncation factors are interchangeable, and every vector this package
ever builds (cyclic vectors and their images under currents acting on whole
blocks of equal factors) is invariant under permuting them.  States are
therefore stored in the orbit-sum basis: per block of equal truncations, an
index records the sorted multiset of factor monomials (a block: a sorted
tuple of masks) and stands for the sum of all distinct arrangements of
those monomials over the block's tensor slots.  This keeps supports
polynomial even when a module has a long tail of identical small factors.
Permuting whole tensor factors never introduces signs.

Block contents recur across states constantly, so a `WedgeModel` interns
them, and a state index is one Python int: block g's id sits in a
fixed-width field, block 0 in the most significant field.  Every index of
one state has the same number of fields, so comparing two indices as ints
is comparing their block-id tuples lexicographically.  The single-current
images of each block are memoized per block position and mode as
(shifted delta, multiplier) pairs, the delta being the id difference
already shifted into that position's field, so a current rewrites one
field with one add.  Blocks of one factor and of many share one move
path: a move replaces one copy of a monomial by a larger one, so the new
block is four slices of the old, and no two moves of a block share an image.

A model belongs to one closure: `top_wedge` creates it, every state derived
from that top wedge carries it, and it is freed with the last of them, so
no table is shared across the process.  It interns at most
WEDGE_BLOCK_BUDGET blocks, read when the model is created, and interning
past the budget raises DimensionCapError.  An id field is only as wide as
the model can need: a block of c factors of truncation m is a multiset of
c of the C(2m, m) monomials, so the model can never intern more than

    limit = min(budget, sum over groups (m, c) of C(C(2m, m) + c - 1, c))

distinct blocks, and a field is (limit - 1).bit_length() bits wide.  That
is 18 bits at the default budget of 2**18 only when the sum reaches it
(any m >= 11 does); the models of the fusion modules on (3, 4, 4, 5, 5)
and (2, 9, 14) need 15 and 10, so the packed indices of most closures fit
in one 30-bit CPython digit.  Every id fits its field, so the int order of
packed indices is still the order of their block-id tuples.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Sequence

from .types import DimensionCapError, check_int

WEDGE_BLOCK_BUDGET = 2 ** 18


def factor_groups(shapes) -> tuple:
    """Runs of equal adjacent truncations, as (truncation, count) pairs."""
    groups = []
    for m in shapes:
        if groups and groups[-1][0] == m:
            groups[-1][1] += 1
        else:
            groups.append([m, 1])
    return tuple((m, c) for m, c in groups)


def _id_limit(groups, budget) -> int:
    """min(budget, sum over `groups` of C(C(2m, m) + c - 1, c)), see above.

    Every count is taken saturating at the budget, so no binomial wider
    than the budget is ever formed: C(2k, k) grows by at least 2 per step
    in k, and C(r + s, r) by at least (r + 1) / r per step in r.
    """
    total = 0
    for m, count in groups:
        monomials = 1  # C(2k, k) for k = 0 .. m, saturating
        for k in range(1, m + 1):
            monomials = monomials * 2 * (2 * k - 1) // k
            if monomials >= budget:
                return budget
        # C(monomials + count - 1, count) = C(s + r, r), r the smaller side
        r, s = sorted((count, monomials - 1))
        blocks = 1
        for j in range(1, r + 1):
            blocks = blocks * (s + j) // j
            if total + blocks >= budget:
                return budget
        total += blocks
    return min(total, budget)


class WedgeModel:
    """The interned blocks and memoized moves of one wedge model.

    `blocks[id]` is a block (a sorted tuple of monomial masks), and
    `grades[id]` its (h-weight, t-degree).  `moves[g][mode]`, made on the
    first use of e_mode in position g, maps the id of a block in position g
    (an index into `groups`) to the tuple of (shifted delta, multiplier)
    pairs of its image under e_mode, one per move, where the shifted delta
    is (image id - id) moved into position g's field, so it adds to a whole
    packed index; no two pairs of an entry share a delta.
    `bits` is the width of one id field of a packed index: wide enough for
    every block the model can hold, no wider (see the module docstring).
    """

    __slots__ = ("shapes", "groups", "budget", "bits", "blocks", "grades",
                 "moves", "_ids", "__weakref__")

    def __init__(self, shapes):
        self.shapes = shapes
        self.groups = factor_groups(shapes)
        self.budget = WEDGE_BLOCK_BUDGET
        self.bits = (_id_limit(self.groups, self.budget) - 1).bit_length()
        self.blocks = []
        self.grades = []
        self.moves = [{} for _ in self.groups]
        self._ids = {}

    def intern(self, block, grade) -> int:
        """The id of a block, given its (h-weight, t-degree) for a new entry."""
        bid = self._ids.get(block)
        if bid is None:
            bid = len(self.blocks)
            if bid >= self.budget:
                raise DimensionCapError(
                    f"wedge model on {self.shapes} interned more than the "
                    f"budget of {self.budget} blocks")
            self._ids[block] = bid
            self.blocks.append(block)
            self.grades.append(grade)
        return bid

    def pack_index(self, bids) -> int:
        """The packed index of a sequence of block ids, block 0 most significant."""
        bits = self.bits
        index = 0
        for bid in bids:
            index = (index << bits) | bid
        return index

    def block_ids(self, index) -> tuple:
        """The block ids packed in an index, block 0 first."""
        bits = self.bits
        mask = (1 << bits) - 1
        last = len(self.groups) - 1
        return tuple((index >> (bits * (last - g))) & mask
                     for g in range(last + 1))

    def bigrade(self, index) -> tuple:
        """(h-weight, total t-degree) of a basis index."""
        weight = 0
        tdeg = 0
        for bid in self.block_ids(index):
            w, t = self.grades[bid]
            weight += w
            tdeg += t
        return weight, tdeg

    def _block_moves(self, g, bid, mode, moves_of) -> tuple:
        """Images of one interned block in position g under e_mode.

        Stores the entry in `moves_of`, the table `moves[g][mode]`, which
        `apply_current` reads itself, calling this only on a miss.

        Replacing one copy of a factor monomial gamma by gamma' collects
        the arrangements of the new multiset; the multiplier carries the
        wedge sign and the multiplicity of gamma' in the new multiset.  A
        move sets a bit above the one it clears, so gamma' > gamma goes in
        at some r >= end, the last copy of gamma being at end - 1.  Two
        moves share an image only if they share gamma and gamma', so
        nothing is merged; moves and the blocks they intern come in source
        order, monomials and then bits ascending.
        """
        block = self.blocks[bid]
        m = self.groups[g][0]
        up = m + mode  # v_i at bit i goes to u_{i+mode} at bit i + up
        sources = (1 << (m - mode)) - 1  # v_i with i + mode < m
        shift = self.bits * (len(self.groups) - 1 - g)
        ids = self._ids
        grade = None  # made on the first new block, shared by the rest
        moves = []
        end = 0
        while end < len(block):  # one pass per distinct monomial
            mono = block[end]
            end = bisect_right(block, mono, end)
            free = mono & sources & ~(mono >> up)  # sources with a free target
            if not free:
                continue
            head = block[:end - 1]  # the block below the last copy of mono
            while free:
                low = free & -free
                free ^= low
                target = low << up
                new_mono = mono ^ low ^ target
                r = bisect_left(block, new_mono, end)
                new_block = head + block[end:r] + (new_mono,) + block[r:]
                mult = bisect_right(block, new_mono, r) - r + 1
                if (mono & (target - (low << 1))).bit_count() & 1:
                    mult = -mult
                nbid = ids.get(new_block)
                if nbid is None:
                    if grade is None:  # one v_i became u_{i+mode}
                        weight, tdeg = self.grades[bid]
                        grade = (weight + 2, tdeg + mode)
                    nbid = self.intern(new_block, grade)
                moves.append(((nbid - bid) << shift, mult))
        moves = moves_of[bid] = tuple(moves)
        return moves


class WedgeState(namedtuple("WedgeState", "model coeffs")):
    """Exact linear combination of orbit-sum basis indices of one model.

    coeffs maps indices to nonzero exact coefficients (ints in the span
    closure, whose rows come from the integer SpanBasis) and is treated as
    immutable.  An index is one int of `model.bits`-wide block-id fields,
    one per block of equal truncations in `model.groups`, block 0 most
    significant, so its int order is the lexicographic order of its
    block-id tuple.  The coefficient of an index is the coefficient of each
    individual arrangement it stands for.
    """

    __slots__ = ()

    def __add__(self, other: "WedgeState") -> "WedgeState":
        if self.model is not other.model:
            raise ValueError("cannot add states of different wedge models")
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            nv = out.get(idx, 0) + c
            if nv:
                out[idx] = nv
            else:
                del out[idx]
        return WedgeState(self.model, out)


def top_wedge(shapes) -> WedgeState:
    """Cyclic vector: product over factors of v_0 ^ v_1 ^ ... ^ v_{m-1}.

    Creates the wedge model that every state derived from it shares.
    """
    shapes = tuple(shapes)
    for m in shapes:
        check_int(m, "factor truncation", 1)
    model = WedgeModel(shapes)
    index = model.pack_index(
        model.intern(((1 << m) - 1,) * count,
                     (-m * count, count * m * (m - 1) // 2))
        for m, count in model.groups
    )
    return WedgeState(model, {index: 1})


def apply_current(mode: int, state: WedgeState, blocks=None) -> WedgeState:
    """Apply the raising current e_mode to a state.

    e_mode sends v_i to u_{i+mode}; shifts reaching the factor truncation
    vanish.  `blocks` restricts the diagonal action to the given blocks of
    equal truncations, as indices into `state.model.groups` (used for
    operators acting on one tensor block only); by default the current
    acts on every block.  A `blocks` that is not a sequence, a block index
    outside 0 .. len(groups) - 1 or a repeated one raises ValueError.
    """
    check_int(mode, "current mode", 0)
    model = state.model
    groups = model.groups
    last = len(groups) - 1
    if blocks is None:
        scope = range(len(groups))
    else:
        if not isinstance(blocks, Sequence):
            raise ValueError(f"blocks must be a sequence of block indices, "
                             f"got {blocks!r}")
        scope = tuple(check_int(g, "block index", 0, last) for g in blocks)
        if len(set(scope)) < len(scope):
            raise ValueError(f"block indices must be distinct, got {scope!r}")
    bits = model.bits
    mask = (1 << bits) - 1
    out = {}
    get = out.get
    for g in scope:
        if mode >= groups[g][0]:
            continue  # every shift lands at or past the truncation
        moves_of = model.moves[g].setdefault(mode, {})
        shift = bits * (last - g)
        for idx, coeff in state.coeffs.items():
            bid = (idx >> shift) & mask
            moves = moves_of.get(bid)
            if moves is None:
                moves = model._block_moves(g, bid, mode, moves_of)
            for delta, mul in moves:
                new_idx = idx + delta
                out[new_idx] = get(new_idx, 0) + coeff * mul
    if not all(out.values()):  # cancelled terms go once, for the whole image
        out = {idx: c for idx, c in out.items() if c}
    return WedgeState(model, out)
