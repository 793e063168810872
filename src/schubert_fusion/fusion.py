"""Fusion modules for the sl2 current algebra, built inside wedge models.

For a weakly increasing weight vector A = (a_1 <= ... <= a_n) the fusion
module is realized as the span of the cyclic vector

    (top wedge of shape m_1) (x) ... (x) (top wedge of shape m_{a_n - 1}),
    m_j = #{alpha : a_alpha >= j + 1},

under the raising currents e_0, ..., e_{n-1}.  Its dimension is the product
of the entries of A, and the basis is bigraded by (h-weight, energy); the
energy grading is normalized so the cyclic vector sits at 0.

Every closure runs in factor coordinates, each factor written in an
integral basis of its own cyclic module; its cyclic vector comes from
`fock.cyclic_vector`, with every factor basis built, when it is made, as
deep as the closure can reach, and the character it reads is the same
(the argument is in `fock`).

The closure runs degree by degree, in `linalg.closure_layers`, the loop
that also builds the factor bases.  The currents commute, so the sorted
words e_{i_1} ... e_{i_k} (i_1 <= ... <= i_k) on the cyclic vector span the
module: a row admitted to the basis from an image under e_i is hit only with
the e_j for j >= i, one degree after another.  All generated vectors are
bigrade-homogeneous, and reduction against rows whose pivots share the
bigrade keeps every stored row homogeneous, so the character can be read
off the pivot monomials.

The closure stops at h-weight 0 and the rest of the character is read off
by sl2 symmetry.  The cyclic vector holds only v-particles, so f (x) t^j
kills it, and so does h (x) t^j for j >= 1, which moves some v_i onto an
occupied v_{i+j} or past the truncation.  By PBW its span under the e_j is
then a g[t]-submodule, and each of its energy pieces is a finite-dimensional
sl2-module, whose character is symmetric under h -> -h.  Degree k of the
closure sits at h-weight -N + 2k, N = sum(a - 1), so degrees 0 .. N // 2
hold every row of weight <= 0; each weight w < 0 is mirrored to -w.  The
kernel submodules of `build_submodule` are closed the same way: their
generator is not a top wedge, but its span under the closure's operators is
still a module for the constant sl2 (the proof is in `build_submodule`), so
those closures stop at h-weight 0 too.

The second route to the character, `character_recursive`, needs no span:
it peels the short exact sequences 0 -> S -> M(A) -> M(A') -> 0 down to
single-weight strings.  Each stratum's character is packed into one int, a
fixed-width field per (h-weight <= 0, energy) of the top module, so a peel
is a shift and an add, and each target is read back by sl2 symmetry; a
field is as wide as the largest weight space of the targets needs.  The
strata are walked with an explicit stack, each quotient's subtree before
its kernel's, and nothing is kept between calls.  The walk interns each
stratum to a small int id the first time it meets it, so a stratum's
weight tuple is hashed once per user, and the plan and the memo are lists
indexed by id.  One call can peel several targets, the steps of a
stabilization chain: they share one memo, dropping each stratum after its
last user, and one packed layout, sized by the largest target; each target
is read out as soon as it is packed.  A caller that reads only the top
energy rows of each target has only those rows packed: every stratum it
needs is packed once, in a window anchored at its own top energy and as
wide as its widest user keeps.  Each top energy has a closed form
(`_top_energy`), so the walk skips the subtree of every quotient whose top
lies below the rows its user keeps, and a long chain plans little more than
the strata it packs.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections import Counter, namedtuple
from functools import lru_cache, partial
from itertools import (accumulate, chain, combinations_with_replacement,
                       islice, repeat)
from types import MappingProxyType

from .fock import WedgeState, apply_current, cyclic_vector, mask_current
from .linalg import closure_layers
# DimensionCapError lives in `types`; it is re-exported here
from .types import (DimensionCapError, _check_size, check_int,
                    weakly_increasing)


def factor_shapes(weights) -> tuple:
    """Wedge degrees of the tensor factors hosting the module for `weights`.

    Entry j (for j = 1 .. max(weights) - 1) counts the weights >= j + 1;
    zero counts are dropped.  Weights equal to 1 contribute no factor.
    """
    weights = weakly_increasing(weights, minimum=1, allow_empty=True)
    if not weights:
        return ()
    shapes = []
    for j in range(1, weights[-1]):
        m = sum(1 for a in weights if a >= j + 1)
        if m:
            shapes.append(m)
    return tuple(shapes)


class FusionModule(namedtuple("FusionModule", "weights dimension character")):
    """A built fusion module: its dimension and bigraded character.

    `character` is a read-only mapping (h-weight, energy) -> multiplicity.
    The energy grading of the character is normalized so the cyclic vector
    sits at 0; the span itself is not kept.
    """

    __slots__ = ()


def _close_under(seed, operators, layers) -> list:
    # The pivots of the seed's layer and of the next `layers` layers, layer
    # by layer; no operator meets the last of them.  `build_module` and
    # `build_submodule` stop at h-weight 0, the rest being fixed by sl2
    # symmetry.  The cap is charged the running total once per layer: each
    # caller's product preflight already bounds the span.
    model = seed.model
    on_rows = [lambda row, op=op: op(WedgeState(model, row)).coeffs
               for op in operators]
    pivots = []
    for basis in islice(closure_layers(seed.coeffs, on_rows), layers + 1):
        pivots += basis.pivots()
        _check_size(len(pivots), "span dimension")
    return pivots


def _mirrored_character(pivots, seed) -> dict:
    # the character of a closure stopped at h-weight 0: its pivots' bigrades,
    # energies taken from the seed's, each w < 0 mirrored to -w
    bigrade = seed.model.bigrade
    offset = bigrade(next(iter(seed.coeffs)))[1]
    char = {(w, t - offset): count
            for (w, t), count in Counter(map(bigrade, pivots)).items()}
    char.update({(-w, t): m for (w, t), m in char.items() if w < 0})
    return char


@lru_cache(maxsize=None)
def _build_module_cached(weights):
    n = len(weights)
    # layer k sits at h-weight -N + 2k: the first N // 2 layers past the
    # cyclic vector reach every row of weight <= 0, and the others mirror
    # them; no factor gets past layer N // 2 of its own module
    layers = (sum(weights) - n) // 2
    cyclic = cyclic_vector(factor_shapes(weights), layers)
    operators = [partial(apply_current, j) for j in range(n)]
    pivots = _close_under(cyclic, operators, layers)
    char = _mirrored_character(pivots, cyclic)
    dimension = sum(char.values())
    _check_size(dimension, "span dimension")
    return FusionModule(weights, dimension, MappingProxyType(char))


def build_module(weights) -> FusionModule:
    """Close the cyclic vector under e_0 .. e_{n-1} and return the module.

    The span is closed up to h-weight 0 and the character's positive
    weights are read off by sl2 symmetry.

    The result is cached per weights and shared by every caller, so it is
    an immutable tuple record and its character is read-only.
    The empty weight vector yields the one-dimensional trivial module.
    """
    weights = weakly_increasing(weights, minimum=1, allow_empty=True)
    # preflight on the expected size; the closure re-checks as it grows
    _check_size(math.prod(weights), f"module on {weights}")
    return _build_module_cached(weights)


def character(weights) -> dict:
    """Bigraded character {(h-weight, energy): multiplicity}."""
    return dict(build_module(weights).character)


def _peel_packed(targets, depth=None) -> list:
    """The character of each target, in order, as `_unpack` reads it.

    Each target is read out as soon as it is packed and its packed int is
    dropped once no later stratum uses it, so a long chain never holds all
    its steps at once.  With no `depth`, a character maps (h-weight,
    energy) to its multiplicity.  With a `depth`, it holds only the
    target's top depth + 1 energy rows and maps (h-weight, d) to its
    multiplicity, d the co-energy (the distance below its highest energy).
    """
    # Peel the smallest weight: the span decomposes against the kernel of
    # the surjection that shuffles (a_1, a_2) to (a_1 - 1, a_2 + 1).  The
    # kernel is the module on (a_2 - a_1 + 1, rest) (or on `rest` alone for
    # equal neighbours), raised in energy by one deepest-mode application
    # per factor below level a_1; its h-weights need no shift.  a_1 is the
    # smallest weight, so each of those a_1 - 1 factors holds every weight
    # of the stratum and the shift is a_1 - 1 times (length - 1).
    #
    # Each stratum's character is one int (Kronecker substitution): with
    # N = max sum(a - 1) over the targets, the multiplicity at (w, t) for
    # w <= 0 sits in field t * (N // 2 + 1) + (w + N) / 2, each field
    # `field` bits wide.  The quotient keeps sum(a - 1), the kernel lowers
    # it by 2 (a_1 - 1), and a stratum's h-weights share the parity of its
    # own sum and lie within -N .. N, so one layout serves every stratum of
    # every target that shares the parity of N, and a peel is a shift by
    # whole rows plus an add.  (A Schubert chain qualifies: each step adds
    # 2 top to the sum.)  A peel never moves an h-weight, so dropping the
    # fields of w > 0 commutes with every shift and add; each target is an
    # sl2-module (module docstring), and `_unpack` mirrors each w < 0.
    #
    # No carry crosses a field.  The multiplicity at (w, t) of the module M
    # on A is at most dim M_w, a coefficient of the product of the
    # 1 + z + ... + z^(a_i - 1).  Splitting off any one factor j writes that
    # coefficient as a sum of a_j consecutive coefficients of the product
    # of the others, which sum to prod_{i != j} a_i; so dim M_w <=
    # prod(A) // max(A).  char M = char Q + q^shift char K has nonnegative
    # terms, so dim Q_w <= dim M_w and dim K_w <= dim M_w: every stratum,
    # and every sum of two, stays within the bound of a target it serves,
    # at most the largest bound < 2**field.
    targets = [tuple(a for a in t if a > 1) for t in targets]
    if depth is not None:
        # a target has no energy below 0, so no window needs more rows than
        # the highest top energy, and a depth past it would only size masks
        depth = min(depth, max(map(_top_energy, targets)))
    sums = [sum(a - 1 for a in t) for t in targets]
    top = max(sums)
    if any((top - s) % 2 for s in sums):
        raise ValueError("peeled targets must share the parity of sum(a - 1)")
    largest = max(math.prod(t) // max(t, default=1) for t in targets)
    size = -(-largest.bit_length() // 8)  # whole bytes
    if size <= 8:  # 1, 2, 4 or 8 bytes: a C integer, which `_unpack` casts to
        size = 1 << (size - 1).bit_length()
    field = 8 * size
    row = (top // 2 + 1) * field
    # Plan first: a depth-first walk on an explicit stack lists each
    # stratum it reaches after its quotient and kernel, target by target,
    # each target's new strata in a batch of their own.  The walk interns
    # each stratum to a dense id the first time it meets it, so each
    # stratum's tuple is hashed on one dict lookup per child that reaches
    # it, and the steps, tops, widths, users and memo are lists indexed by
    # id.  Id 0 stands for a child that adds no row its user keeps; it
    # packs to 0.  A step is (quotient, kernel, quotient shift, kernel
    # shift): the bits each child is shifted up by before the two are
    # added; a string's step is its packed int.  Then pack in that order,
    # read each target out as soon as its strata are packed, and drop each
    # stratum once its last user (a later stratum, or the read-out of a
    # target) is done.  The quotient's subtree is walked, and so packed,
    # before the kernel's: that packs each stratum nearer its last user,
    # so fewer wait at once.  A full read of (2,) * 80 holds at most 42
    # strata at once this way, and 650 with the kernel's subtree first.
    #
    # With no depth the shifts are 0 and the kernel's energy shift, times
    # `row` bits.  With a depth every stratum is a window anchored at its
    # own top energy, and the gaps are each child's distance in rows below
    # its user's top.  `_top_energy` gives each top in closed form,
    # without a walk.  The shifted kernel always reaches its user's top,
    # so its gap is 0 and its top is its user's less the shift.  A window
    # holds at most depth + 1 rows, so a quotient more than depth rows
    # below its user's top adds no row any window keeps: it stands as id 0
    # and its subtree is not walked.  `_top_windows` then sizes each window
    # to its widest user, drops the strata no user keeps and turns the
    # gaps into shifts, and the same loop packs the rest.
    #
    # `strata` maps each id back to its stratum; the tops are read only
    # with a depth.  Each stratum is interned inline, where it is met: a
    # helper call per child took about a tenth longer on a full read.
    ids, strata, steps, tops = {}, [None], [None], [0]
    tids, batches = [], []
    for target in targets:
        tid = ids.setdefault(target, len(strata))
        if tid == len(strata):
            strata.append(target)
            steps.append(None)
            tops.append(0 if depth is None else _top_energy(target))
        batch, stack = [], [tid]
        while stack:
            i = stack.pop()
            if i < 0:  # ~i, whose children are planned
                batch.append(~i)
                continue
            if steps[i] is not None:
                continue
            cur = strata[i]
            if len(cur) <= 1:  # a string of m weights; () is the string (1,)
                m = cur[0] if cur else 1
                # its (m + 1) // 2 weights w <= 0, from w = 1 - m
                ones = ((1 << ((m + 1) // 2 * field)) - 1) // ((1 << field) - 1)
                steps[i] = ones << ((top - m + 1) // 2 * field)
                batch.append(i)
                continue
            a1, a2 = cur[0], cur[1]
            kernel = ((a2 - a1 + 1,) + cur[2:]) if a1 < a2 else cur[2:]
            at = bisect.bisect(cur, a2 + 1, 2)
            quotient = (((a1 - 1,) if a1 > 2 else ()) + cur[2:at] + (a2 + 1,)
                        + cur[at:])
            shift = (a1 - 1) * (len(cur) - 1)
            new = len(strata)
            k = ids.setdefault(kernel, new)
            if k == new:
                strata.append(kernel)
                steps.append(None)
                tops.append(tops[i] - shift)
                new += 1
            q = ids.setdefault(quotient, new)
            if q == new:
                strata.append(quotient)
                steps.append(None)
                tops.append(0 if depth is None else _top_energy(quotient))
            stack.append(~i)
            if steps[k] is None:
                stack.append(k)
            if depth is None:
                steps[i] = (q, k, 0, shift * row)
            else:
                gap = tops[i] - tops[q]
                if gap > depth:
                    q = 0
                steps[i] = (q, k, gap, 0)
            if q and steps[q] is None:
                stack.append(q)
        tids.append(tid)
        batches.append(batch)
    widths = None
    if depth is not None:
        steps, batches, widths = _top_windows(steps, batches, tids, depth, row)
    users = [0] * len(steps)
    for i in tids:
        users[i] += 1
    for i in chain.from_iterable(batches):
        step = steps[i]
        if step.__class__ is tuple:
            users[step[0]] += 1
            users[step[1]] += 1
    # id 0 packs to 0, and with no count of users to start from its count
    # only falls below 0, so it is never dropped
    users[0] = 0
    memo, reads = [None] * len(steps), []
    memo[0] = 0
    for tid, batch in zip(tids, batches):
        for i in batch:
            step = steps[i]
            if step.__class__ is int:  # a string
                memo[i] = step
                continue
            q, k, sq, sk = step
            packed = (memo[q] << sq) + (memo[k] << sk)
            # a window keeps its own width: above it a narrower child's
            # share may be missing, and cutting those rows off is exact,
            # since no field carries into the next
            memo[i] = (packed & ((1 << widths[i] * row) - 1) if widths
                       else packed)
            users[q] -= 1
            if not users[q]:
                memo[q] = None
            users[k] -= 1
            if not users[k]:
                memo[k] = None
        reads.append(_unpack(memo[tid], top, field))
        users[tid] -= 1
        if not users[tid]:
            memo[tid] = None
    return reads


def _top_energy(weights) -> int:
    """Highest energy of the fusion module on `weights`, in closed form.

    With m_(1) >= m_(2) >= ... the values a - 1 sorted in decreasing
    order, it is T(A) = sum over j >= 1 of floor(j / 2) m_(j): floor(n**2 /
    4) for (2,) * n, and min(m_1, m_2) for two parts.  It is the highest
    energy that peeling A finds, by induction along the peeling (see
    `_peel_packed`), from three facts about A = (a_1 <= a_2 <= ...) of
    length n, its kernel K and its quotient Q:

    (i) T(A) = T(K) + (a_1 - 1)(n - 1).  The n - 2 largest parts of A
        are those of K, in the same places.  For a_1 < a_2 the last part
        of K, a_2 - a_1, sits in place n - 1, where A has a_2 - 1; for
        a_1 = a_2 the kernel has no other part.  Either way T(A) - T(K) =
        (floor((n - 1) / 2) + floor(n / 2))(a_1 - 1) = (a_1 - 1)(n - 1),
        for unequal and for equal neighbours alike.
    (ii) T(Q) <= T(A).  Q trades a_1 - 1 and a_2 - 1 for a_1 - 2 and a_2,
        so the sorted parts of Q majorize those of A, and the weights
        floor(j / 2) do not decrease with j.
    (iii) A's top is the higher of Q's top and K's top plus the shift, as
        multiplicities are nonnegative; by (i) the shifted kernel reaches
        T(A), and by (ii) the quotient does not pass it, so the top is T(A)
        once it is T for Q and K.  Strings (a,) and () have top 0 = T.

    floor(j / 2) counts the even e <= j, so T is the sum over even e of the
    parts m_(e), m_(e + 1), ...: over the n - e + 1 smallest, a prefix of
    the weights sorted in increasing order, each prefix of i weights
    summing its a - 1 to the prefix sum less i.  The i = n - 1, n - 3, ...
    sum to floor(n**2 / 4).
    """
    sums = list(accumulate(sorted(weights), initial=0))
    n = len(weights)
    return sum(sums[n - 1:0:-2]) - n * n // 4


def _top_windows(steps, batches, targets, depth, row):
    """Steps, batches and widths that pack the top depth + 1 energy rows
    of each target, from a plan of windows anchored at each stratum's own
    top energy; strata and targets are ids, and steps and widths lists
    indexed by id.

    A stratum is packed once, `widths[id]` rows wide, the most any of its
    users keeps of it.  A child that adds no row its user keeps stands as
    id 0, and a stratum no user keeps is not packed at all.  Each kept
    step's gaps, in rows, become shifts of `row` bits a row.
    """
    # Users come after their children in the batches, so a reverse pass
    # meets every stratum after all its users have widened it.  A user w
    # rows wide keeps the rows of a child g rows below its top up to w - g.
    widths = [0] * len(steps)
    for i in targets:
        widths[i] = depth + 1

    def keep(child, rows):
        if not child or rows <= 0:
            return 0
        widths[child] = max(widths[child], rows)
        return child

    for batch in reversed(batches):
        for i in reversed(batch):
            width, step = widths[i], steps[i]
            if not width or step.__class__ is int:  # dropped, or a string
                continue
            quotient, kernel, gq, gk = step
            steps[i] = (keep(quotient, width - gq), keep(kernel, width - gk),
                        gq * row, gk * row)
    # a window goes in its stratum's batch, which comes before any target
    # that reads it
    batches = [[i for i in batch if widths[i]] for batch in batches]
    return steps, batches, widths


# memoryview formats of the C integers 1, 2, 4 and 8 bytes wide
_FIELD_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _unpack(packed, top, field) -> dict:
    # One to_bytes per call.  A row holds the fields of w = -top, ..., <= 0
    # at one energy; it is read out with its mirror image, the fields of
    # w > 0, so the dict runs energy by energy, h-weights ascending.  Each
    # row is an sl2-module's half character, and e is injective on its
    # weights w < 0, so the multiplicities do not fall from w = -top up to
    # w <= 0: the zero fields of a row are the ones that open it, and only
    # the rest reach the dict.  A field of a C integer's width is read with
    # the whole int through one memoryview cast; a wider field is read with
    # from_bytes, after the zero bytes that open each row.
    size = field // 8
    cols = top // 2 + 1
    row = cols * size
    rows = -(-packed.bit_length() // (8 * row))
    if size in _FIELD_FORMATS:
        data = packed.to_bytes(rows * row, sys.byteorder)
        fields = memoryview(data).cast(_FIELD_FORMATS[size]).tolist()
        if sys.byteorder == "big":  # the lowest field came last
            fields.reverse()
    else:
        data = packed.to_bytes(rows * row, "little")
        fields = []
        for end in range(row, rows * row + 1, row):
            chunk = data[end - row:end]
            start = (row - len(chunk.lstrip(b"\0"))) // size
            fields += [0] * start
            fields += [int.from_bytes(chunk[i:i + size], "little")
                       for i in range(start * size, row, size)]
    mirror = top % 2 - 2  # the last field of w < 0
    mults, keys = [], []
    for t in range(rows):
        half = fields[t * cols:(t + 1) * cols]
        lead = half.count(0)
        del half[:lead]
        mults += half
        mults += half[mirror::-1]
        keys.append(zip(range(2 * lead - top, top - 2 * lead + 1, 2), repeat(t)))
    return dict(zip(chain.from_iterable(keys), mults))


def _capped(weights, cap) -> tuple:
    if cap is not None:
        check_int(cap, "cap", 1)
    weights = weakly_increasing(weights, minimum=1, allow_empty=True)
    _check_size(math.prod(weights), f"character of {weights}", cap=cap)
    return weights


def character_recursive(weights, cap=None) -> dict:
    """Bigraded character by peeling, without any span computation.

    Splitting off the kernel of the adjacent-pair shuffle at the first
    position expresses the character through two smaller modules; iterating
    bottoms out in single-weight strings.  Each stratum's character is
    packed into one int, a field per (h-weight <= 0, energy) of the top
    module, so a peel is one shift and one add, and the weights > 0 are
    read back by sl2 symmetry; the strata are memoized per call
    and walked with an explicit stack, so no state outlives the call and
    long vectors do not hit the recursion limit.  Far cheaper than
    build_module for long weight vectors, and an independent oracle for
    the builder.  `cap`, a positive integer, bounds the product of the
    weights; None reads `types.DEFAULT_DIMENSION_CAP` at call time.
    """
    (char,) = _peel_packed([_capped(weights, cap)])
    return char


def _top_strata(chain, depth, cap) -> list:
    """The top energy rows of each weight vector of `chain`, peeled together.

    Each maps each co-energy d <= depth (the distance below the vector's
    top energy) to {h-weight: multiplicity}, d descending and h-weights
    ascending.  Only the top depth + 1 energy rows of each vector are
    packed.  Each vector is checked against `cap` as the chain is built,
    before any peeling, so the first one over it raises before any later
    one is built; all must share the parity of sum(a - 1), as the steps of
    a Schubert chain do.
    """
    tables = []
    for window in _peel_packed([_capped(w, cap) for w in chain], depth):
        strata = {}
        for (w, d), mult in window.items():
            strata.setdefault(d, {})[w] = mult
        tables.append(dict(reversed(strata.items())))
    return tables


class RelationReport(namedtuple("RelationReport",
                                "truncation max_power lowest")):
    """The powers 1 .. max_power of the current series on one top wedge.

    `lowest[i - 1]` is the least k whose z^k coefficient of the i-th power
    is nonzero, or None once that power has vanished.
    """

    __slots__ = ()


def check_relations(truncation: int, max_power: int) -> RelationReport:
    """Raise the current series to its powers on a single top wedge.

    The generating series e(z) = e_{n-1} + z e_{n-2} + ... + z^{n-1} e_0 is
    raised to the i-th power on the top wedge of shape (n,), and the lowest
    z-degree of each power is recorded; the defining current relations say
    that the i-th power is divisible by z^{n (i - 1)}.  Each coefficient of
    the series is a row {mask: coefficient} of one factor (`fock`).  Raises
    DimensionCapError once more than `types.RELATION_PARTICLE_CAP` particles
    are charged: n for each power, also after the series has vanished, and
    n for each term of every image.
    """
    n = check_int(truncation, "truncation", 1)
    check_int(max_power, "max power", 1)
    what = f"relation series on truncation {n}"
    series = None
    lowest = []
    produced = 0  # particles charged so far: the work done, bounded by the cap
    moves = {}  # mode -> the memoized bit moves of e_mode, made on first use
    for i in range(1, max_power + 1):
        produced += n  # the power's entry of `lowest`
        _check_size(produced, what, particles=True)
        if series is None:  # a 2n-bit mask, made once its first power is charged
            series = {0: {(1 << n) - 1: 1}}
        out = {}
        for deg, row in series.items():
            for k in range(n):
                mode = n - 1 - k
                image = mask_current(mode, row, n, moves.setdefault(mode, {}))
                produced += n * len(image)
                _check_size(produced, what, particles=True)
                out.setdefault(deg + k, Counter()).update(image)
        series = {deg: row for deg, total in out.items()
                  if (row := {mask: c for mask, c in total.items() if c})}
        lowest.append(min(series, default=None))
    return RelationReport(n, max_power, tuple(lowest))


def monomial_basis(truncation: int) -> list:
    """Sorted raising-mode words (i_1 <= ... <= i_k <= n - k), k = 0 .. n.

    Applied to the top wedge of shape (n,) these give a basis; there are
    binomial(n, k) words of each length k and 2^n in total.
    """
    n = check_int(truncation, "truncation", 1)
    words = []
    for k in range(n + 1):
        words.extend(combinations_with_replacement(range(n - k + 1), k))
    return words


class SubmoduleS(namedtuple(
        "SubmoduleS", "parent index case aprime adoubleprime dimension")):
    """Kernel of the weight-shuffling surjection at a chosen adjacent pair.

    For neighbours a_i < a_{i+1} the submodule is generated inside the
    parent's own wedge model: the generating vector lowers the extremal
    charge by two (top wedge -> its image under the factor's deepest raising
    mode) in every factor below level a_i, and the span is closed under the
    global raising currents together with one extra raising current acting
    only on the factors at levels >= a_i.  Those high levels host the tail
    `adoubleprime` of the tensor-product description, whose first block
    `aprime` (entries i, i+1 removed) names the abstract submodule.  The
    span is a module for the constant sl2, so the closure stops at h-weight
    0 and `dimension` mirrors the weights w < 0 (`build_submodule` has the
    proof).  For equal neighbours the submodule is the fusion module on
    `aprime`.
    `case` is "general" or "equal"; `adoubleprime` is None in the equal case.
    """

    __slots__ = ()


def _check_pair(weights, index) -> tuple:
    weights = weakly_increasing(weights, minimum=1)
    n = len(weights)
    if n == 1:
        raise ValueError("a one-entry vector has no adjacent pair")
    check_int(index, "index", 1, n - 1)
    return weights


def build_submodule(weights, index: int) -> SubmoduleS:
    """Build the kernel submodule at the adjacent pair `index`.

    Equal neighbours give the fusion module on `aprime`.  Unequal ones are
    closed in the parent's wedge model (see `SubmoduleS`), up to h-weight
    0, and the dimension is read off the pivots of weight <= 0, each weight
    w < 0 counted twice, once for its mirror -w.

    The span is a module for the constant sl2, so each energy piece of its
    character is symmetric under h -> -h.  Write n for the length of A, i
    for `index`, H for the high blocks (levels >= a_i) and e'_H, h'_H for
    e_{n-i-1}, h_{n-i-1} acting on H only; the closure's operators are
    the e_j, j < n, and e'_H, and they commute.
    (i) The generator is killed by f_0 and by every h_j with j >= 1: each
        of its factors is a top wedge, or one with v_0 moved to u_{m-1},
        and these moves land on occupied particles or past the
        truncation.  h'_H acts on it by 0 (n - i - 1 >= 1) or by a scalar
        (h_0 on H, for i = n - 1); h_0 acts by its h-weight.
    (ii) [f_0, e_j] = -h_j and [f_0, e'_H] = -h'_H.
    (iii) [h_j, e_k] = 2 e_{j+k} and [h'_H, e_k] = [h_k, e'_H] = 2 e'_H
        for k = 0 and 0 otherwise, and [h'_H, e'_H] is 2 e'_H for i = n - 1
        and 0 otherwise: every truncation is <= n, so e_{j+k} vanishes for
        j + k >= n, and every high truncation is <= n - i, so any current
        past mode n - i - 1 vanishes on H.
    So f_0 on a word in the operators times the generator is a sum of
    words in the operators times the generator, by (ii), (iii) and (i),
    and the span is stable under e_0, f_0 and h_0.  These keep the energy,
    so each energy piece is a finite-dimensional sl2-module.  Every
    operator raises the h-weight by 2, so layer k of the closure sits at
    w_gen + 2k, w_gen the generator's h-weight, and the first -w_gen // 2
    layers past it hold every row of weight <= 0.
    """
    weights = _check_pair(weights, index)
    n = len(weights)
    _check_size(math.prod(weights), f"submodule inside {weights}")
    left, right = weights[index - 1], weights[index]
    aprime = weights[:index - 1] + weights[index + 1:]
    if left == right:
        return SubmoduleS(weights, index, "equal", aprime, None,
                          build_module(aprime).dimension)
    adouble = tuple(a - left + 1 for a in weights[index:])
    shapes = factor_shapes(weights)
    # the generator lowers the a_i - 1 factors below level a_i by two each,
    # so w_gen = -sum(shapes) + 2 (a_i - 1); the generator puts those
    # factors at layer 1 of their modules, and the closure takes any
    # factor at most `layers` layers further
    layers = sum(shapes) // 2 - (left - 1)
    generator = cyclic_vector(shapes, layers + 1)
    # Factors at levels 1 .. a_i - 1 (positions below a_i - 1) get their
    # extremal charge lowered by two.  Levels below a_i all count at least
    # n - i + 1 weights while level a_i counts exactly n - i, so the split
    # never cuts through a block of equal truncations; the blocks at levels
    # >= a_i are the high ones.
    pos = 0
    high = []
    for g, (m, count) in enumerate(generator.model.groups):
        if pos < left - 1:
            assert pos + count <= left - 1, "level split cut a block of equal factors"
            for _ in range(count):
                generator = apply_current(m - 1, generator, blocks=(g,))
        else:
            high.append(g)
        pos += count
    operators = [partial(apply_current, j) for j in range(n)]
    extra_mode = n - index - 1
    operators.append(partial(apply_current, extra_mode, blocks=high))
    pivots = _close_under(generator, operators, layers)
    dimension = sum(_mirrored_character(pivots, generator).values())
    return SubmoduleS(weights, index, "general", aprime, adouble, dimension)


def kernel_dimension(weights, index: int) -> int:
    """Closed-form dimension of the kernel submodule at `index`.

    It is (a_{i+1} - a_i + 1) times the entries outside the pair, which is
    dim M(A) - dim M(A') by exactness; equal neighbours give the module on
    `aprime`.
    """
    weights = _check_pair(weights, index)
    left, right = weights[index - 1], weights[index]
    return (right - left + 1) * math.prod(weights[:index - 1] + weights[index + 1:])


def quotient_weights(weights, index: int) -> tuple:
    """Weights of the quotient in the short exact sequence at `index`."""
    entries = list(_check_pair(weights, index))
    entries[index - 1] -= 1
    entries[index] += 1
    if entries[index - 1] <= 0:
        raise ValueError("quotient weight would vanish; weights must exceed 1 here")
    return tuple(sorted(entries))


class ExactSequenceResult(namedtuple(
        "ExactSequenceResult", "weights index quotient dim_module "
        "dim_submodule dim_quotient holds")):
    """Dimensions in the sequence 0 -> S -> M(A) -> M(A') -> 0 at `index`.

    `quotient` is A'; `holds` says dim_submodule + dim_quotient == dim_module.
    """

    __slots__ = ()


def exact_sequence_check(weights, index: int) -> ExactSequenceResult:
    """Check dim(submodule) + dim(quotient) = dim(module) at `index`.

    The quotient dimension is the product of its entries; the other two are
    computed by span closures.
    """
    sub = build_submodule(weights, index)
    module = build_module(weights)
    quotient = quotient_weights(weights, index)
    dim_quotient = math.prod(quotient)
    holds = sub.dimension + dim_quotient == module.dimension
    return ExactSequenceResult(tuple(weights), index, quotient,
                               module.dimension, sub.dimension, dim_quotient, holds)
