"""Fusion modules for the sl2 current algebra, built inside wedge models.

For a weakly increasing weight vector A = (a_1 <= ... <= a_n) the fusion
module is realized as the span of the cyclic vector

    (top wedge of shape m_1) (x) ... (x) (top wedge of shape m_{a_n - 1}),
    m_j = #{alpha : a_alpha >= j + 1},

under the raising currents e_0, ..., e_{n-1}.  Its dimension is the product
of the entries of A, and the basis is bigraded by (h-weight, energy); the
energy grading is normalized so the cyclic vector sits at 0.

The closure runs degree by degree.  The currents commute, so the sorted
words e_{i_1} ... e_{i_k} (i_1 <= ... <= i_k) on the cyclic vector span the
module: a row admitted to the basis from an image under e_i is hit only with
the e_j for j >= i, one degree after another until a degree adds nothing.
All generated vectors are bigrade-homogeneous, and reduction against rows
whose pivots share the bigrade keeps every stored row homogeneous, so the
character can be read off the pivot monomials.

The second route to the character, `character_recursive`, needs no span:
it peels the short exact sequences 0 -> S -> M(A) -> M(A') -> 0 down to
single-weight strings.  Each stratum's character is packed into one int, a
fixed-width field per (h-weight, energy) of the top module, so a peel is a
shift and an add; the strata are walked with an explicit stack, and
nothing is kept between calls.  One call can peel several targets, the
steps of a stabilization chain: they share one memo, dropping each stratum
after its last user, and one packed layout, sized by the largest target;
each target is read out as soon as it is packed.
"""

from __future__ import annotations

import bisect
import math
from collections import Counter, namedtuple
from functools import lru_cache
from itertools import combinations_with_replacement
from types import MappingProxyType

# DimensionCapError lives in `fock`, which raises it too; it is re-exported here
from .fock import DimensionCapError, WedgeState, apply_current, top_wedge
from .linalg import SpanBasis
from .types import weakly_increasing

DEFAULT_DIMENSION_CAP = 100_000
RELATION_PARTICLE_CAP = 1_000_000


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


def _close_under(seed, operators) -> SpanBasis:
    # Work with the reduced rows, not the raw operator images: words in the
    # generators have term counts and coefficients that grow with the word
    # length, while the residuals stay no bigger than their grade stratum.
    #
    # Degree-ordered closure.  It relies on two preconditions: the operators
    # commute pairwise, and the seed is bigrade-homogeneous.  Commuting
    # operators span the module with the sorted words op_{i_1} ... op_{i_k}
    # (i_1 <= ... <= i_k) on the seed.  A layer holds the rows accepted from
    # images of the layer before, in the order of the operator that made
    # them; its first ends[j] rows (those born from operators 0 .. j) span
    # its sorted words whose largest index is at most j, so operator j
    # needs only them.  Every image lies one h-weight step above its layer,
    # so its reduction touches no row of another layer.
    basis = SpanBasis()
    if not seed.coeffs:
        return basis
    layer = [WedgeState(seed.model, basis.insert_reduced(seed.coeffs))]
    ends = [1] * len(operators)
    while layer:
        born, born_ends = [], []
        for op, end in zip(operators, ends):
            for state in layer[:end]:
                image = op(state)
                if not image.coeffs:
                    continue
                row = basis.insert_reduced(image.coeffs)
                if row is not None:
                    if basis.dimension > DEFAULT_DIMENSION_CAP:
                        raise DimensionCapError("span dimension exceeded the "
                                                f"cap of {DEFAULT_DIMENSION_CAP}")
                    born.append(WedgeState(image.model, row))
            born_ends.append(len(born))
        layer, ends = born, born_ends
    return basis


def _character_from_basis(basis, cyclic) -> MappingProxyType:
    bigrade = cyclic.model.bigrade
    offset = bigrade(next(iter(cyclic.coeffs)))[1]
    grades = (bigrade(pivot) for pivot in basis.pivots())
    return MappingProxyType(dict(Counter((w, t - offset) for w, t in grades)))


@lru_cache(maxsize=None)
def _build_module_cached(weights):
    cyclic = top_wedge(factor_shapes(weights))
    n = len(weights)
    operators = [
        (lambda s, j=j: apply_current(j, s)) for j in range(n)
    ]
    basis = _close_under(cyclic, operators)
    return FusionModule(weights, basis.dimension,
                        _character_from_basis(basis, cyclic))


def build_module(weights) -> FusionModule:
    """Close the cyclic vector under e_0 .. e_{n-1} and return the module.

    The result is cached per weights and shared by every caller, so it is
    an immutable tuple record and its character is read-only.
    The empty weight vector yields the one-dimensional trivial module.
    """
    weights = weakly_increasing(weights, minimum=1, allow_empty=True)
    # preflight on the expected size; the closure re-checks as it grows
    if math.prod(weights) > DEFAULT_DIMENSION_CAP:
        raise DimensionCapError(f"module on {weights} would exceed the cap "
                                f"of {DEFAULT_DIMENSION_CAP}")
    return _build_module_cached(weights)


def character(weights) -> dict:
    """Bigraded character {(h-weight, energy): multiplicity}."""
    return dict(build_module(weights).character)


def _peel_packed(targets, read) -> list:
    """read(packed, top, field) for each target, in order.

    Each target is read out as soon as it is packed and its packed int is
    dropped once no later stratum uses it, so a long chain never holds all
    its steps at once.
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
    # N = max sum(a - 1) over the targets, the multiplicity at (w, t) sits
    # in field t * (N + 1) + (w + N) / 2, each field `field` bits wide.  The
    # quotient keeps sum(a - 1), the kernel lowers it by 2 (a_1 - 1), and a
    # stratum's h-weights share the parity of its own sum and lie within
    # -N .. N, so one layout serves every stratum of every target that
    # shares the parity of N, and a peel is a shift by whole rows plus an
    # add.  (A Schubert chain qualifies: each step adds 2 top to the sum.)
    # No carry crosses a field: coefficients are nonnegative, a stratum's
    # multiplicities sum to the product of its weights, and neither the
    # quotient ((a_1 - 1)(a_2 + 1) < a_1 a_2) nor the kernel has a larger
    # product than its parent, so every field, sums included, stays at
    # most the largest target product < 2**field.
    targets = [tuple(a for a in t if a > 1) for t in targets]
    sums = [sum(a - 1 for a in t) for t in targets]
    top = max(sums)
    if any((top - s) % 2 for s in sums):
        raise ValueError("peeled targets must share the parity of sum(a - 1)")
    largest = max(math.prod(t) for t in targets)
    field = 8 * -(-largest.bit_length() // 8)  # whole bytes
    row = (top + 1) * field
    # Plan first: a depth-first walk on an explicit stack lists every
    # stratum after its quotient and kernel, target by target, and `ends`
    # marks where each target's new strata end.  Then pack in that order,
    # read each target out as soon as its strata are packed, and drop each
    # stratum once its last user (a later stratum, or the read-out of a
    # target) is done.
    plan, order, ends = {}, [], []
    for target in targets:
        stack = [(target, False)]
        while stack:
            cur, done = stack.pop()
            if done:
                order.append(cur)
                continue
            if cur in plan:
                continue
            if len(cur) <= 1:
                plan[cur] = None
                order.append(cur)
                continue
            a1, a2 = cur[0], cur[1]
            rest = list(cur[2:])
            kernel = ((a2 - a1 + 1,) + cur[2:]) if a1 < a2 else cur[2:]
            bisect.insort(rest, a2 + 1)
            quotient = ((a1 - 1,) if a1 > 2 else ()) + tuple(rest)
            plan[cur] = (quotient, kernel, (a1 - 1) * (len(cur) - 1) * row)
            stack += ((cur, True), (quotient, False), (kernel, False))
        ends.append(len(order))
    users = Counter(child for step in plan.values() if step
                    for child in step[:2])
    users.update(targets)
    memo, reads, start = {}, [], 0
    for target, end in zip(targets, ends):
        for cur in order[start:end]:
            step = plan[cur]
            if step is None:  # a string of m weights; () is the string (1,)
                m = cur[0] if cur else 1
                ones = ((1 << (m * field)) - 1) // ((1 << field) - 1)
                memo[cur] = ones << ((top - m + 1) // 2 * field)
                continue
            quotient, kernel, shift = step
            memo[cur] = memo[quotient] + (memo[kernel] << shift)
            for child in (quotient, kernel):
                users[child] -= 1
                if not users[child]:
                    del memo[child]
        start = end
        reads.append(read(memo[target], top, field))
        users[target] -= 1
        if not users[target]:
            del memo[target]
    return reads


def _unpack(packed, top, field) -> dict:
    # One to_bytes per call; whole zero rows and the zero ends of each row
    # are skipped at C speed before any field is read.
    size = field // 8
    row = (top + 1) * size
    rows = -(-packed.bit_length() // (8 * row))
    data = packed.to_bytes(rows * row, "little")
    char = {}
    for t in range(rows):
        chunk = data[t * row:(t + 1) * row]
        end = len(chunk.rstrip(b"\0"))
        if not end:
            continue
        start = (row - len(chunk.lstrip(b"\0"))) // size
        for i in range(start, -(-end // size)):
            mult = int.from_bytes(chunk[i * size:(i + 1) * size], "little")
            if mult:
                char[(2 * i - top, t)] = mult
    return char


def _capped(weights, cap) -> tuple:
    weights = weakly_increasing(weights, minimum=1, allow_empty=True)
    if math.prod(weights) > cap:
        raise DimensionCapError(
            f"character of {weights} would exceed the cap of {cap}")
    return weights


def character_recursive(weights, cap=DEFAULT_DIMENSION_CAP) -> dict:
    """Bigraded character by peeling, without any span computation.

    Splitting off the kernel of the adjacent-pair shuffle at the first
    position expresses the character through two smaller modules; iterating
    bottoms out in single-weight strings.  Each stratum's character is
    packed into one int, a field per (h-weight, energy) of the top module,
    so a peel is one shift and one add; the strata are memoized per call
    and walked with an explicit stack, so no state outlives the call and
    long vectors do not hit the recursion limit.  Far cheaper than
    build_module for long weight vectors, and an independent oracle for
    the builder.
    """
    (char,) = _peel_packed([_capped(weights, cap)], _unpack)
    return char


def _top_strata(chain, depth, cap) -> list:
    """(strata, total) for each weight vector of `chain`, peeled together.

    `strata` maps each co-energy d <= depth (the distance below the
    vector's top energy) to {h-weight: multiplicity}, d descending and
    h-weights ascending; `total` is the sum of all its multiplicities.
    Every vector is checked against `cap` before any peeling, and all must
    share the parity of sum(a - 1), as the steps of a Schubert chain do.
    """
    def read(packed, top, field):
        row = (top + 1) * field
        ones = (1 << field) - 1
        high = (packed.bit_length() - 1) // row
        low = max(high - depth, 0)
        strata = {}
        for (w, t), mult in _unpack(packed >> (low * row), top, field).items():
            strata.setdefault(high - low - t, {})[w] = mult
        # 2**field is 1 modulo `ones`, so the residue is the sum of the
        # fields; that sum lies in 1 .. ones, and a residue 0 means `ones`
        return strata, packed % ones or ones

    return _peel_packed([_capped(w, cap) for w in chain], read)


class RelationCheck(namedtuple(
        "RelationCheck", "power required_vanishing ok first_violation")):
    """The i-th power of the current series on one top wedge.

    The coefficients of z^k for k < `required_vanishing` must vanish; `ok`
    says they do, and `first_violation` is the least k whose coefficient
    does not (None when `ok`).
    """

    __slots__ = ()


class RelationReport(namedtuple("RelationReport",
                                "truncation max_power checks")):
    """One RelationCheck per power 1 .. max_power, in `checks`."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def check_relations(truncation: int, max_power: int) -> RelationReport:
    """Verify the defining current relations on a single top wedge.

    The generating series e(z) = e_{n-1} + z e_{n-2} + ... + z^{n-1} e_0 is
    raised to the i-th power on the top wedge of shape (n,); the coefficient
    of z^k must vanish for every k < n (i - 1), i.e. the i-th power is
    divisible by z^{n (i - 1)}.  Raises DimensionCapError once more than
    RELATION_PARTICLE_CAP particles are charged: n for each power, also
    after the series has vanished, and n for each term of every image.
    """
    n = truncation
    if not isinstance(n, int) or n < 1:
        raise ValueError("truncation must be a positive integer")
    if max_power < 1:
        raise ValueError("max power must be at least 1")
    cap = RELATION_PARTICLE_CAP
    over_cap = (f"relation series on truncation {n} produced more "
                f"than the cap of {cap} particles")
    series = {0: top_wedge((n,))}
    checks = []
    produced = 0  # particles charged so far: the work done, bounded by the cap
    for i in range(1, max_power + 1):
        produced += n  # the power's RelationCheck
        if produced > cap:
            raise DimensionCapError(over_cap)
        out = {}
        for deg, state in series.items():
            for k in range(n):
                image = apply_current(n - 1 - k, state)
                produced += n * len(image.coeffs)
                if produced > cap:
                    raise DimensionCapError(over_cap)
                if image.coeffs:
                    key = deg + k
                    out[key] = out[key] + image if key in out else image
        series = {k: s for k, s in out.items() if s.coeffs}
        required = n * (i - 1)
        violation = None
        for k in sorted(series):
            if k < required:
                violation = k
                break
        checks.append(RelationCheck(i, required, violation is None, violation))
    return RelationReport(n, max_power, tuple(checks))


def monomial_basis(truncation: int) -> list:
    """Sorted raising-mode words (i_1 <= ... <= i_k <= n - k), k = 0 .. n.

    Applied to the top wedge of shape (n,) these give a basis; there are
    binomial(n, k) words of each length k and 2^n in total.
    """
    n = truncation
    if not isinstance(n, int) or n < 1:
        raise ValueError("truncation must be a positive integer")
    words = []
    for k in range(n + 1):
        words.extend(combinations_with_replacement(range(n - k + 1), k))
    return words


def apply_monomial(modes, state: WedgeState) -> WedgeState:
    for j in modes:
        state = apply_current(j, state)
    return state


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
    `aprime` (entries i, i+1 removed) names the abstract submodule.  For
    equal neighbours the submodule is the fusion module on `aprime`.
    `case` is "general" or "equal"; `adoubleprime` is None in the equal case.
    """

    __slots__ = ()


def _check_pair(weights, index) -> tuple:
    weights = weakly_increasing(weights, minimum=1)
    n = len(weights)
    if n == 1:
        raise ValueError("a one-entry vector has no adjacent pair")
    if not isinstance(index, int) or not 1 <= index <= n - 1:
        raise ValueError(f"index must lie in 1..{n - 1}, got {index!r}")
    return weights


def build_submodule(weights, index: int) -> SubmoduleS:
    weights = _check_pair(weights, index)
    n = len(weights)
    if math.prod(weights) > DEFAULT_DIMENSION_CAP:
        raise DimensionCapError(f"submodule inside {weights} would exceed "
                                f"the cap of {DEFAULT_DIMENSION_CAP}")
    left, right = weights[index - 1], weights[index]
    aprime = weights[:index - 1] + weights[index + 1:]
    if left == right:
        return SubmoduleS(weights, index, "equal", aprime, None,
                          build_module(aprime).dimension)
    adouble = tuple(a - left + 1 for a in weights[index:])
    shapes = factor_shapes(weights)
    generator = top_wedge(shapes)
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
    operators = [
        (lambda s, j=j: apply_current(j, s)) for j in range(n)
    ]
    extra_mode = n - index - 1
    operators.append(
        lambda s: apply_current(extra_mode, s, blocks=high))
    basis = _close_under(generator, operators)
    return SubmoduleS(weights, index, "general", aprime, adouble, basis.dimension)


def kernel_dimension(weights, index: int) -> int | None:
    """Closed-form dimension of the kernel submodule at `index`, if known.

    Equal neighbours give the module on `aprime`; an unequal pair at either
    end of the vector gives (a_{i+1} - a_i + 1) times the entries outside the
    pair.  Returns None for an unequal interior pair, which has no closed
    form here.
    """
    weights = _check_pair(weights, index)
    n = len(weights)
    left, right = weights[index - 1], weights[index]
    if left == right:
        return math.prod(weights[:index - 1] + weights[index + 1:])
    if index == 1:
        return math.prod((right - left + 1,) + weights[2:])
    if index == n - 1:
        return math.prod(weights[:n - 2]) * (right - left + 1)
    return None


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
