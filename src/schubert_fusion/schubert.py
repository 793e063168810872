"""Schubert-variety invariants, line-bundle calculus, and the flag model.

Varieties are handled through computable shadows: the label of a variety is
the type (a composition), and the geometric statements exercised here are
the ones with exact numerical content — isomorphism by type, existence of
equivariant surjections, factorization of Poincare polynomials along bundle
projections, the lattice of line bundles with their curve degrees and
section counts, coordinate-ring Hilbert data, and the chain-of-subspaces
model with its unimodular group action over Q[t]/t^n.

The flag model lives in the 2n-dimensional space C^2 (x) C[t]/t^n with
basis v_0 .. v_{n-1}, u_0 .. u_{n-1} (coordinates 0 .. n-1 and n .. 2n-1).
A chain W_1 >= ... >= W_s belongs to the variety of its composition when it
is nested and t-stable with the prescribed codimension profile; each step
then absorbs the matching power of t.

The flag model's arithmetic runs on Python ints: chains are spanned by int
rows, and a `GroupElement` stores int numerators over one common
denominator, the form that `group_act` acts by and that
`random_group_element` builds by column operations.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple
from itertools import accumulate

from .linalg import SpanBasis
from .types import (Composition, _Validated, _check_size, check_int, leq,
                    type_of, weakly_increasing)

__all__ = [
    "BundleSplit", "FlagChain", "GroupElement",
    "isomorphic", "morphism_exists", "bundle_split", "line_bundle_exists",
    "curve_degrees", "sections_dim", "picard_rank", "coordinate_ring_dims",
    "canonical_flag", "flag_conditions", "flag_membership", "group_act",
    "identity_element", "exp_raising", "exp_lowering", "random_group_element",
]


def isomorphic(weights_a, weights_b) -> bool:
    """Varieties agree exactly when the weight vectors have the same type."""
    weights_a = weakly_increasing(weights_a, minimum=2)
    weights_b = weakly_increasing(weights_b, minimum=2)
    return type_of(weights_a) == type_of(weights_b)


def morphism_exists(source: Composition, target: Composition) -> bool:
    """Equivariant surjection from the `source` variety onto the `target` one.

    Exists exactly when the source type dominates the target in the
    refinement order.
    """
    if source.n != target.n:
        raise ValueError("types must have the same underlying n")
    return leq(target, source)


class BundleSplit(namedtuple("BundleSplit", "fiber base")):
    """Fibration of a Schubert variety over a smaller one.

    `fiber` and `base` are Compositions, the first `cut` parts and the rest.
    """

    __slots__ = ()


def bundle_split(composition: Composition, cut: int) -> BundleSplit:
    """Split off the first `cut` parts as the fiber type.

    The numerical shadow of the fibration is the factorization of the
    Poincare polynomial, which `acceptance.bundle_split_checks` checks.
    """
    parts = composition.parts
    if len(parts) == 1:
        raise ValueError("a one-part composition has no fibration to split")
    check_int(cut, "cut", 1, len(parts) - 1)
    return BundleSplit(Composition(parts[:cut]), Composition(parts[cut:]))


def line_bundle_exists(bundle, composition: Composition) -> bool:
    """The bundle with degree data `bundle` exists on the variety of the type.

    Existence is governed by the refinement order: the bundle's type must be
    dominated by the variety's type.
    """
    bundle = weakly_increasing(bundle, minimum=0)
    if len(bundle) != composition.n:
        raise ValueError("bundle length must equal the type's n")
    return leq(type_of(bundle), composition)


def curve_degrees(bundle) -> tuple:
    """Restriction degrees to the coordinate curves, outermost first.

    Entry j (j = 0 .. n-1) is b_1 + ... + b_{n-j}.
    """
    bundle = weakly_increasing(bundle, minimum=0)
    return tuple(accumulate(bundle))[::-1]


def sections_dim(bundle, composition: Composition) -> int:
    """Dimension of the space of global sections, by the fusion-module count.

    Equals the product of (b_i + 1); independent of which variety carries
    the bundle, as long as it exists there.
    """
    bundle = weakly_increasing(bundle, minimum=0)
    if not line_bundle_exists(bundle, composition):
        raise ValueError(f"bundle {bundle} does not exist on type {composition}")
    return math.prod(b + 1 for b in bundle)


def picard_rank(composition: Composition) -> int:
    """Rank of the lattice of line bundles: one generator per block."""
    return composition.s


def coordinate_ring_dims(weights, i_max: int) -> tuple:
    """Graded dimensions of the coordinate ring of the affine cone.

    The i-th graded piece is dual to the fusion module on
    (i(a_1 - 1) + 1, ..., i(a_n - 1) + 1), of dimension prod(i(a_j - 1) + 1).
    """
    weights = weakly_increasing(weights, minimum=1)
    check_int(i_max, "i_max", 0)
    # each of the i_max + 1 graded pieces is a product of len(weights) factors
    _check_size((i_max + 1) * len(weights),
                f"coordinate ring of {i_max + 1} graded pieces "
                f"over {len(weights)} weights")
    return tuple(
        math.prod(i * (a - 1) + 1 for a in weights) for i in range(i_max + 1)
    )


# ---------------------------------------------------------------------------
# Flag-chain model over C^2 (x) C[t]/t^n


def _unit_vector(coord):
    return {coord: 1}


def _shift_vector(vec, n):
    """Multiply by t: v_m -> v_{m+1}, u_m -> u_{m+1}, drop at n."""
    out = {}
    for coord, val in vec.items():
        if coord != n - 1 and coord != 2 * n - 1:  # v_{n-1} and u_{n-1}
            out[coord + 1] = val
    return out


class FlagChain(namedtuple("FlagChain", "truncation subspaces")):
    """Nested chain of subspaces of C^2 (x) C[t]/t^n, largest first.

    `subspaces` is a tuple of SpanBasis.
    """

    __slots__ = ()

    def dimensions(self) -> tuple:
        return tuple(w.dimension for w in self.subspaces)


def canonical_flag(composition: Composition) -> FlagChain:
    """The distinguished point: W_alpha = <all v_i; u_j for j >= tail sum>.

    The alpha-th subspace keeps the u-modes at or above the sum of the last
    alpha parts; the final one is the pure v-span.  The thresholds grow
    with alpha, so the chain is built from the smallest subspace up: each
    larger one extends a copy of the next smaller one by its extra u-modes,
    and every unit vector is inserted once.  The s subspaces of up to 2n
    rows each that the chain stores are charged against the dimension cap
    first.
    """
    n, s = composition.n, composition.s
    _check_size(s * 2 * n, f"flag chain of {s} subspaces in dimension {2 * n}")
    basis = SpanBasis()
    for m in range(n):
        basis.insert(_unit_vector(m))
    subspaces = [basis]
    threshold = n
    for part in composition.parts[:-1]:  # W_s first, then W_{s-1}, ..., W_1
        basis = basis.copy()
        for j in range(threshold - part, threshold):
            basis.insert(_unit_vector(n + j))
        threshold -= part
        subspaces.append(basis)
    return FlagChain(n, tuple(reversed(subspaces)))


def _contains_all(space: SpanBasis, vectors) -> bool:
    return all(space.contains(vec) for vec in vectors)


def _conditions(chain: FlagChain, composition: Composition):
    """Yield (name, holds) for the three flag conditions, in order, lazily.

    Each condition is decided only when the caller asks for it, so a caller
    that stops at the first failure skips the membership tests of the rest.
    """
    n = composition.n
    if chain.truncation != n:
        raise ValueError("chain truncation must equal the type's n")
    parts = composition.parts
    s = composition.s
    spaces = chain.subspaces

    expected_dims = []
    dim = 2 * n
    for alpha in range(1, s + 1):
        dim -= parts[s - alpha]
        expected_dims.append(dim)
    yield "profile", (
        len(spaces) == s and chain.dimensions() == tuple(expected_dims)
    )

    yield "nested", all(
        _contains_all(spaces[alpha], spaces[alpha + 1].row_vectors())
        for alpha in range(len(spaces) - 1)
    )

    yield "t_stable", all(
        _contains_all(space, (_shift_vector(row, n) for row in space.row_vectors()))
        for space in spaces
    )


def flag_conditions(chain: FlagChain, composition: Composition) -> dict:
    """Named membership conditions for a chain against a type.

    ``profile``: the subspace count is s and the codimension steps are
    i_s, i_{s-1}, ..., i_1 starting from the full space.
    ``nested``: each subspace contains the next.
    ``t_stable``: t W_alpha <= W_alpha for every alpha.

    Together they give t^{i_{s-alpha}} W_alpha <= W_{alpha+1}, where W_0 is
    the full space: W_alpha / W_{alpha+1} is a nilpotent C[t]-module of
    dimension i_{s-alpha}.  Every condition is decided, also after one has
    failed.
    """
    return dict(_conditions(chain, composition))


def flag_membership(chain: FlagChain, composition: Composition) -> bool:
    """True iff the chain satisfies every condition of `flag_conditions`.

    The conditions are decided in order and the first failure ends the
    test, so a chain whose dimension profile differs from the type's costs
    no membership test at all.
    """
    return all(holds for _, holds in _conditions(chain, composition))


# ---------------------------------------------------------------------------
# Unimodular group over Q[t]/t^n


def _poly_mul(p, q, n):
    out = [0] * n
    q_terms = [(j, b) for j, b in enumerate(q) if b]
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in q_terms:
            if i + j >= n:
                break
            out[i + j] += a * b
    return tuple(out)


def _poly_add(p, q):
    return tuple(a + b for a, b in zip(p, q))


class GroupElement(_Validated,
                   namedtuple("GroupElement", "truncation den vv vu uv uu")):
    """2x2 matrix over Q[t]/t^n with determinant 1, acting on the flag space.

    Rows are (vv, vu) and (uv, uu): the image of a pure v-vector has
    v-component vv and u-component uv, matching e.v = u for the raising
    generator.  Each entry is a tuple of n int coefficients of 1, t, ...,
    t^{n-1}, the numerators over the common denominator `den` > 0.  The
    record is kept in lowest terms, so equal elements are equal records,
    and the determinant is checked on ints: det(den g) must be den^2.
    """

    __slots__ = ()

    def __new__(cls, truncation, den, vv, vu, uv, uu):
        n = check_int(truncation, "truncation", 1)
        entries = tuple(tuple(entry) for entry in (vv, vu, uv, uu))
        for entry in entries:
            if len(entry) != n:
                raise ValueError("matrix entries must be length-n coefficient tuples")
            for c in entry:
                check_int(c, "matrix entry")
        check_int(den, "den", 1)
        common = math.gcd(den, *(c for entry in entries for c in entry))
        den = den // common
        vv, vu, uv, uu = (tuple(c // common for c in entry) for entry in entries)
        det = tuple(
            a - b for a, b in zip(_poly_mul(vv, uu, n), _poly_mul(vu, uv, n))
        )
        if det != (den * den,) + (0,) * (n - 1):
            raise ValueError("group element must have determinant 1")
        return super().__new__(cls, n, den, vv, vu, uv, uu)

    def __matmul__(self, other: "GroupElement") -> "GroupElement":
        if self.truncation != other.truncation:
            raise ValueError("cannot compose elements over different truncations")
        n = self.truncation
        return GroupElement(
            n, self.den * other.den,
            _poly_add(_poly_mul(self.vv, other.vv, n), _poly_mul(self.vu, other.uv, n)),
            _poly_add(_poly_mul(self.vv, other.vu, n), _poly_mul(self.vu, other.uu, n)),
            _poly_add(_poly_mul(self.uv, other.vv, n), _poly_mul(self.uu, other.uv, n)),
            _poly_add(_poly_mul(self.uv, other.vu, n), _poly_mul(self.uu, other.uu, n)),
        )


def _column_terms(v_part, u_part):
    """Nonzero (base, k, coeff) of one column: v-component first, then u."""
    return ([(0, k, c) for k, c in enumerate(v_part) if c]
            + [(len(v_part), k, c) for k, c in enumerate(u_part) if c])


def _image(vec, n, v_terms, u_terms):
    """Apply the matrix whose columns are `v_terms` and `u_terms` to vec."""
    out = {}
    for coord, val in vec.items():
        if coord < n:
            mode, terms = coord, v_terms
        else:
            mode, terms = coord - n, u_terms
        for base, k, coeff in terms:
            if mode + k >= n:
                continue
            target = base + mode + k
            acc = out.get(target, 0) + val * coeff
            if acc:
                out[target] = acc
            else:
                out.pop(target, None)
    return out


def identity_element(n: int) -> GroupElement:
    one = (1,) + (0,) * (n - 1)
    zero = (0,) * n
    return GroupElement(n, 1, one, zero, zero, one)


def _one_param(n, mode, z, lowering):
    """exp(z x t^mode) for the nilpotent raising or lowering generator.

    z is read as z.numerator / z.denominator, so it is an int or a
    quotient of ints; a float has neither and raises TypeError.
    """
    check_int(mode, "mode", 0, n - 1)
    try:
        p, q = z.numerator, z.denominator
    except AttributeError:
        raise TypeError(f"z must be an int or a quotient of ints, got {z!r}") from None
    one = (q,) + (0,) * (n - 1)
    zero = (0,) * n
    ztm = tuple(p if k == mode else 0 for k in range(n))
    if lowering:
        return GroupElement(n, q, one, ztm, zero, one)
    return GroupElement(n, q, one, zero, ztm, one)


def exp_raising(n: int, mode: int, z) -> GroupElement:
    return _one_param(n, mode, z, lowering=False)


def exp_lowering(n: int, mode: int, z) -> GroupElement:
    return _one_param(n, mode, z, lowering=True)


def random_group_element(n: int, rng: random.Random, length: int = 4) -> GroupElement:
    """Product of `length` random one-parameter elements exp(z x t^mode).

    Each factor draws z = p/q with p in -6..6 and q in 1..4, then the mode,
    then lowering or raising with even odds; the same draws, multiplied
    left to right, give the same element as folding `@` over `exp_lowering`
    and `exp_raising` from the identity.  The product is built on int
    numerators over one common denominator den: right-multiplying by a factor
    is a column operation, which scales every entry by q and adds p t^mode
    times one column into the other (the v column into the u column for
    lowering, the u column into the v column for raising).  Only the result
    is validated and reduced to lowest terms.  `n` must be a positive int
    and `length` a nonnegative int.
    """
    check_int(n, "n", 1)
    check_int(length, "length", 0)
    # columns: (vv, uv) is the image of v, (vu, uu) the image of u
    v_col = ([1] + [0] * (n - 1), [0] * n)
    u_col = ([0] * n, [1] + [0] * (n - 1))
    den = 1
    for _ in range(length):
        p, q = rng.randint(-6, 6), rng.randint(1, 4)
        mode = rng.randrange(n)
        source, target = (v_col, u_col) if rng.random() < 0.5 else (u_col, v_col)
        # over the new denominator den q: dst -> q dst + p t^mode src and
        # src -> q src, for the v and the u component of both columns
        den *= q
        for src, dst in zip(source, target):
            shifted = [0] * mode + src[:n - mode]
            dst[:] = [q * a + p * b for a, b in zip(dst, shifted)]
            src[:] = [q * a for a in src]
    (vv, uv), (vu, uu) = v_col, u_col
    return GroupElement(n, den, vv, vu, uv, uu)


def _shared_prefix(rows_a, rows_b) -> int:
    """Length of the longest common prefix of two row lists."""
    k = 0
    for a, b in zip(rows_a, rows_b):
        if a != b:
            break
        k += 1
    return k


def group_act(element: GroupElement, chain: FlagChain) -> FlagChain:
    """Transform every subspace of the chain by the group element.

    It acts by the element's int numerators, the matrix den g: that maps
    every subspace onto the same span as g, and the chain's rows are ints,
    so every image is an int vector.  A subspace's rows follow the vectors
    inserted into it and their order, up to scale; those are the same for
    g and den g, so the result is the same as acting by g itself.

    Each subspace inserts the images of its rows in pivot order, as if into
    an empty basis, and the work shared between subspaces is done once:
    each row's image is computed once per call, and when the next
    subspace's rows begin with the same rows as the current one's (the n
    v-rows of a canonical chain), it starts from a copy of the basis taken
    after that prefix.  A prefix shorter than the one the current subspace
    started from was never held alone, so that subspace starts empty.
    """
    n = chain.truncation
    if element.truncation != n:
        raise ValueError("group element truncation must match the chain")
    v_terms = _column_terms(element.vv, element.uv)
    u_terms = _column_terms(element.vu, element.uu)
    # images by row object: `SpanBasis.copy` shares rows, so a row that
    # several subspaces hold is one object, and `sources` keeps every row
    # alive, so no id is reused during the call
    images = {}
    sources = [space.row_vectors() for space in chain.subspaces]
    # shares[i]: how many rows subspace i + 1 shares with subspace i at the front
    shares = [_shared_prefix(a, b) for a, b in zip(sources, sources[1:])] + [-1]
    new_spaces = []
    start, basis = 0, SpanBasis()  # rows already inserted into basis
    for rows, shared in zip(sources, shares):
        handoff = basis.copy() if shared == start else None
        for k in range(start, len(rows)):
            row = rows[k]
            image = images.get(id(row))
            if image is None:
                image = images[id(row)] = _image(row, n, v_terms, u_terms)
            if image:
                basis.insert(image)
            if k + 1 == shared:
                handoff = basis.copy()
        new_spaces.append(basis)
        start, basis = (shared, handoff) if handoff is not None else (0, SpanBasis())
    return FlagChain(n, tuple(new_spaces))
