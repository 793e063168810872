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
`mask_current` applies e_j to a row {mask: coefficient} of one factor.

Factor coordinates.  A factor of truncation m only ever holds vectors of
its own cyclic module F_m, the span of the top wedge of shape (m,) under
the currents: the module on (2,) * m, the local Weyl module of dimension
2^m (Chari-Loktev), whose layer k (h-weight -m + 2k) has dimension
C(m, k).  The monomials spread F_m over Catalan(m + 1) masks, and the
spread multiplies across factors.  A `FactorBasis` closes F_m layer by
layer on monomial masks, with the bit moves above and the closure loop of
`fusion` (`linalg.closure_layers`), and reduces each layer fully: its
basis vector b_s has 1 at its pivot (its smallest mask), 0 at the other
pivots of its layer and only int entries.  That the entries are ints is
measured, not proved: in mask order every row of F_1 .. F_11 is, and
every row of F_12 .. F_16 up to the budget; in the order the moves first
reach the masks, rows of F_10 would need fractions.  A row that would
need one raises ArithmeticError.  A vector of the layer has its value at
s's pivot as its coordinate on s, so e_j acts on labels by the column
e_j(b_s) read at the next layer's pivots.  Labels are numbered layer by
layer, so every hop goes to a larger label, and a label's grade is the
bigrade of its pivot.

A state holds each factor as a label of its F_m.  Equal-truncation factors
are interchangeable, and every vector this package ever builds (cyclic
vectors and their images under currents acting on whole blocks of equal
factors) is invariant under permuting them.  States are therefore stored
in the orbit-sum basis: per block of equal truncations, an index records
the sorted multiset of factor labels (a block: a sorted tuple of labels)
and stands for the sum of all distinct arrangements of those labels over
the block's tensor slots.  This keeps supports polynomial even when a
module has a long tail of identical small factors.  Permuting whole
tensor factors never introduces signs.

Block contents recur across states constantly, so a `WedgeModel` interns
them, and a state index is one Python int: block g's id sits in a
fixed-width field, block 0 in the most significant field.  Every index of
one state has the same number of fields, so comparing two indices as ints
is comparing their block-id tuples lexicographically.  The single-current
images of each block are memoized per block position and mode as
(shifted delta, multiplier) pairs, the delta being the id difference
already shifted into that position's field, so a current rewrites one
field with one add; the multiplier is the column entry times the copies
of the new label in the new block.  Blocks of one factor and of many
share one move path: a move replaces one copy of a label by a larger one,
so the new block is four slices of the old, and no two moves of a block
share an image.

These coordinates are exact.  The cyclic vector lies in the tensor
product of the F_{m_j}, and each F_m is stable under every current, so
every vector of the closure lies there too; on it the coordinates are a
linear isomorphism, applied factor by factor, which commutes with the
currents and with orbit sums and keeps the bigrade.  So each bigrade's
span has the same dimension in labels as in monomials, and the character
is the same; a lone factor is no exception, its closure running on the
labels of the basis that spans it.  F_m is built when its model is made,
as deep as the closure can reach, and each column on its first use; a hop
that needs a layer past that depth raises rather than return no moves.

A model belongs to one closure: `cyclic_vector` creates it, with the
factor bases it owns, every state derived from that cyclic vector carries
it, and it is freed with the last of them, so no table is shared across
the process.  A model interns at most WEDGE_BLOCK_BUDGET blocks, every
block its moves reach, and a factor basis meets at most that many
monomials, the top and every monomial of an image it makes, the budget
read when each is created; going past it raises DimensionCapError.  An
id field is only as wide as the model can need: a block of c factors of
truncation m is a multiset of c of the 2^m labels, so the model can
never intern more than

    limit = min(budget, sum over groups (m, c) of C(2^m + c - 1, c))

distinct blocks, and a field is (limit - 1).bit_length() bits wide.  That
is 18 bits at the default budget of 2**18 only when the sum reaches it (a
lone factor of truncation m >= 18 does); the models of the fusion modules
on (2, 9, 14), (3, 4, 4, 5, 5) and (5, 5, 5, 5) need 8, 10 and 12, so the
packed indices of most closures fit in one 30-bit CPython digit.  Every
id fits its field, so the int order of packed indices is still the order
of their block-id tuples.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from collections.abc import Sequence
from itertools import islice

from .linalg import closure_layers
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
    """min(budget, sum over `groups` of C(2^m + c - 1, c)), see above.

    Every count is taken saturating at the budget, so no binomial wider
    than the budget is ever formed: C(r + s, r) grows by at least
    (r + 1) / r per step in r.
    """
    total = 0
    for m, count in groups:
        labels = 1 << min(m, budget.bit_length())  # 2^m, saturating
        if labels >= budget:
            return budget
        # C(labels + count - 1, count) = C(s + r, r), r the smaller side
        r, s = sorted((count, labels - 1))
        blocks = 1
        for j in range(1, r + 1):
            blocks = blocks * (s + j) // j
            if total + blocks >= budget:
                return budget
        total += blocks
    return min(total, budget)


def _bit_hops(mono, mode, m) -> list:
    """(new monomial, sign) of each move of e_mode on a truncation-m monomial.

    e_mode moves v_i (bit i) to u_{i+mode} (bit m + i + mode) when i + mode
    < m and the target is clear; the sign is the parity of the bits set
    strictly between the two.  Moves come with i ascending.
    """
    up = m + mode
    free = mono & ((1 << (m - mode)) - 1) & ~(mono >> up)
    hops = []
    while free:
        low = free & -free
        free ^= low
        target = low << up
        sign = -1 if (mono & (target - (low << 1))).bit_count() & 1 else 1
        hops.append((mono ^ low ^ target, sign))
    return hops


def mask_grade(mask, m) -> tuple:
    """(h-weight, t-degree) of a truncation-m monomial mask.

    u_i (bit m + i) has weight +1 and v_i (bit i) weight -1, each degree i.
    """
    return ((mask >> m).bit_count() * 2 - m,
            sum(i % m for i in range(2 * m) if mask >> i & 1))


def mask_current(mode, row, m, moves) -> dict:
    """e_mode on a row {mask: coefficient} of truncation m, no zero kept.

    `moves` memoizes the bit moves of each mask under e_mode and gets an
    entry for every mask of the row it lacks.
    """
    out = {}
    get = out.get
    for mono, c in row.items():
        hops = moves.get(mono)
        if hops is None:
            hops = moves[mono] = _bit_hops(mono, mode, m)
        for new, sign in hops:
            out[new] = get(new, 0) + c * sign
    return {mono: c for mono, c in out.items() if c}


class FactorBasis:
    """The row-reduced integral basis of F_m, the cyclic module of one factor.

    Label s stands for the basis vector b_s: `rows[s]` maps monomial masks
    to its coefficients, and `grades[s]` is the bigrade of its pivot, the
    smallest mask of the row.  Label 0 is the top wedge.  The layers are
    built when the basis is made, by `linalg.closure_layers`, up to `depth`
    layers past the top (at most m); a layer's labels follow its pivots in
    increasing order.  `hops(s, mode)` is the column of e_mode on b_s, made
    on its first use.  The bit moves of a monomial are memoized per mode,
    and the basis meets at most `budget` monomials, the top and every
    monomial of an image, read when it is made, as a wedge model interns
    at most that many blocks.
    """

    __slots__ = ("truncation", "depth", "budget", "rows", "grades",
                 "_columns", "_labels", "_moves", "_met", "__weakref__")

    def __init__(self, m, depth):
        self.truncation = m
        self.depth = min(m, depth)
        self.budget = WEDGE_BLOCK_BUDGET
        self.rows = []
        self.grades = []
        self._columns = [{} for _ in range(m)]  # per mode, {label: column}
        self._labels = {}  # the mask of a pivot -> its label
        self._moves = [{} for _ in range(m)]  # per mode, {mask: its bit moves}
        top = (1 << m) - 1
        self._met = {top}  # the top and every mask of an image, charged
        # the generator and the currents are dropped on return: kept, the
        # currents would tie the basis into a reference cycle
        currents = [lambda row, mode=mode: self._image(row, mode)
                    for mode in range(m)]
        layers = closure_layers({top: 1}, currents)
        for layer, basis in enumerate(islice(layers, self.depth + 1)):
            # back substitution, highest pivot first: a row holds no entry
            # below its pivot, and a reduced row is 0 at every other pivot,
            # so clearing one pivot leaves the row's entries at the others
            # alone
            pivots = basis.pivots()
            reduced = {}
            for p, echelon in zip(reversed(pivots),
                                  reversed(basis.row_vectors())):
                row = dict(echelon)
                for q, c in echelon.items():
                    if q not in reduced:
                        continue
                    for mono, rc in reduced[q].items():
                        value = row.get(mono, 0) - c * rc
                        if value:
                            row[mono] = value
                        else:
                            del row[mono]
                lead = row[p]
                if any(c % lead for c in row.values()):
                    raise ArithmeticError(f"a reduced row of F_{m} in layer "
                                          f"{layer} is not integral")
                reduced[p] = {mono: c // lead for mono, c in row.items()}
            for p in pivots:
                self._labels[p] = len(self.rows)
                self.rows.append(reduced[p])
                self.grades.append(mask_grade(p, m))

    def hops(self, label, mode) -> tuple:
        """(label', coefficient) pairs of e_mode(b_label), label' ascending.

        The coefficients are the values of the image at the next layer's
        pivots.  A nonzero image whose layer lies past `depth` raises
        RuntimeError; an image of 0 gives no pairs at any depth.
        """
        columns = self._columns[mode]
        column = columns.get(label)
        if column is None:
            image = self._image(self.rows[label], mode)
            m = self.truncation
            layer = (self.grades[label][0] + m) // 2 + 1
            if image and layer > self.depth:
                raise RuntimeError(f"the basis of F_{m} is built to layer "
                                   f"{self.depth}; a hop needs layer {layer}")
            labels = self._labels
            column = columns[label] = tuple(sorted(
                (labels[mono], c) for mono, c in image.items()
                if mono in labels))
        return column

    def _image(self, row, mode) -> dict:
        """e_mode on a row of masks, charging every mask of the image.

        Every mask of a row is the top or a mask of an earlier image, so
        the sources of the bit moves are charged with the images.
        """
        met = self._met
        image = mask_current(mode, row, self.truncation, self._moves[mode])
        met.update(image)
        if len(met) > self.budget:
            raise DimensionCapError(
                f"factor basis of F_{self.truncation} met more than the "
                f"budget of {self.budget} monomials")
        return image


class WedgeModel:
    """The interned blocks and memoized moves of one wedge model.

    `blocks[id]` is a block (a sorted tuple of labels), and `grades[id]`
    its (h-weight, t-degree).  `factors[g]` is the `FactorBasis` of
    position g's truncation, one per truncation.  `moves[g][mode]`, made on
    the first use of e_mode in position g, maps the id of a block in
    position g (an index into `groups`) to the tuple of (shifted delta,
    multiplier) pairs of its image under e_mode, one per move, where the
    shifted delta is (image id - id) moved into position g's field, so it
    adds to a whole packed index; no two pairs of an entry share a delta.
    `bits` is the width of one id field of a packed index: wide enough for
    every block the model can hold, no wider (see the module docstring).
    """

    __slots__ = ("shapes", "groups", "factors", "budget", "bits", "blocks",
                 "grades", "moves", "_ids", "__weakref__")

    def __init__(self, shapes, depth):
        """Each factor basis built to at most `depth` layers past its top."""
        self.shapes = shapes
        self.groups = factor_groups(shapes)
        self.budget = WEDGE_BLOCK_BUDGET
        bases = {}
        for m, _ in self.groups:
            if m not in bases:
                bases[m] = FactorBasis(m, depth)
        self.factors = tuple(bases[m] for m, _ in self.groups)
        self.bits = (_id_limit(self.groups, self.budget) - 1).bit_length()
        self.blocks = []
        self.grades = []
        self.moves = [{} for _ in self.groups]
        # one id dict per position: labels of two truncations may coincide
        self._ids = [{} for _ in self.groups]

    def intern(self, g, block, grade) -> int:
        """The id of a block in position g, given its (h-weight, t-degree)
        for a new entry."""
        ids = self._ids[g]
        bid = ids.get(block)
        if bid is None:
            bid = len(self.blocks)
            if bid >= self.budget:
                raise DimensionCapError(
                    f"wedge model on {self.shapes} interned more than the "
                    f"budget of {self.budget} blocks")
            ids[block] = bid
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

        Replacing one copy of a factor label gamma by gamma' collects the
        arrangements of the new multiset; the multiplier carries the hop's
        coefficient, the column entry of gamma' in e_mode(b_gamma), and the
        multiplicity of gamma' in the new multiset.  Every hop goes up,
        gamma' > gamma, so gamma' goes in at some r >= end, the last copy
        of gamma being at end - 1.  Two moves share an image only if they
        share gamma and gamma', so nothing is merged; moves and the blocks
        they intern come in source order, labels and then hops ascending.
        """
        block = self.blocks[bid]
        factor = self.factors[g]
        shift = self.bits * (len(self.groups) - 1 - g)
        ids = self._ids[g]
        grade = None  # made on the first new block, shared by the rest
        moves = []
        end = 0
        while end < len(block):  # one pass per distinct label
            label = block[end]
            end = bisect_right(block, label, end)
            hops = factor.hops(label, mode)
            if not hops:
                continue
            head = block[:end - 1]  # the block below the last copy of label
            for new_label, coeff in hops:
                r = bisect_left(block, new_label, end)
                new_block = head + block[end:r] + (new_label,) + block[r:]
                mult = coeff * (bisect_right(block, new_label, r) - r + 1)
                nbid = ids.get(new_block)
                if nbid is None:
                    if grade is None:  # one v_i became u_{i+mode}
                        weight, tdeg = self.grades[bid]
                        grade = (weight + 2, tdeg + mode)
                    nbid = self.intern(g, new_block, grade)
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


def cyclic_vector(shapes, depth) -> WedgeState:
    """The top wedge of `shapes`: label 0, the top of F_m, in every factor.

    Creates the wedge model that every state derived from it shares, each
    factor basis built to at most `depth` layers past its top, the deepest
    layer of one factor that a hop of the closure may need.
    """
    shapes = tuple(shapes)
    for m in shapes:
        check_int(m, "factor truncation", 1)
    model = WedgeModel(shapes, depth)
    index = model.pack_index(
        model.intern(g, (0,) * count, (-m * count, count * m * (m - 1) // 2))
        for g, (m, count) in enumerate(model.groups)
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
