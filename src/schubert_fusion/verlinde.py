"""Level-k sl2 fusion ring and affine-limit bookkeeping.

The fusion ring at level k has basis [0], [1], ..., [k] indexed by
highest weights; the product truncates the classical Clebsch-Gordan
range at the level wall:

    [a] . [b] = sum of [c],  c = |a-b|, |a-b|+2, ..., min(a+b, 2k-a-b).

`product_chain` is the one product; `kac_walton` is its second route.

Products of the basis classes for a weakly increasing weight list B are
taken at level b_n + 1.  The coefficients of [0] .. [b_n] are the limit
multiplicities of the section spaces over the growing Schubert chain whose
direct limit realizes the generalized affine Grassmannian; the coefficient
of [b_n + 1] sits outside that range and is reported with a flag instead of
being dropped or reinterpreted.

Character stabilization is measured from the top end: energies are counted
downward from each module's maximal energy (the direct-limit embeddings
identify the top cells) while h-weights are kept absolute, which is the
combination observed to stabilize.
"""

from __future__ import annotations

import math
from collections import namedtuple
from types import MappingProxyType

from .fusion import _top_strata
from .types import _Validated, _check_size, check_int, weakly_increasing


def _check_level(k: int) -> int:
    """k itself, once it is a level whose k + 1 coefficients fit the cap.

    Every path that builds a coefficient vector checks its level here.
    """
    check_int(k, "level", 0)
    _check_size(k + 1, f"level {k}", f": its ring has {k + 1} classes")
    return k


class FusionRingElement(_Validated,
                        namedtuple("FusionRingElement", "level coeffs")):
    """Element of the level-k fusion ring in the basis [0] .. [k].

    `coeffs` holds level + 1 nonnegative integers, the coefficient of [c]
    at position c; a level whose level + 1 passes the dimension cap raises
    DimensionCapError.
    """

    __slots__ = ()

    def __new__(cls, level, coeffs):
        _check_level(level)
        coeffs = tuple(coeffs)
        if len(coeffs) != level + 1:
            raise ValueError("coefficient vector must have length level + 1")
        for c in coeffs:
            check_int(c, "coefficient", 0)
        return super().__new__(cls, level, coeffs)

    def classical_dimension(self) -> int:
        """Total dimension when each [c] is read as the (c+1)-dim sl2 module."""
        return sum(m * (c + 1) for c, m in enumerate(self.coeffs))

    def support(self) -> tuple:
        return tuple(c for c, m in enumerate(self.coeffs) if m)

    def __repr__(self):
        terms = [
            (f"{m}[{c}]" if m != 1 else f"[{c}]")
            for c, m in enumerate(self.coeffs) if m
        ]
        body = " + ".join(terms) if terms else "0"
        return f"FusionRingElement(level={self.level}, {body})"


def fuse(k: int, a: int, b: int) -> FusionRingElement:
    """Product [a] . [b] in the level-k fusion ring."""
    return product_chain(k, (a, b))


def product_chain(k: int, weights) -> FusionRingElement:
    """[w_1] . [w_2] . ... . [w_n] at level k, multiplied left to right.

    The running product is a sparse {class: coefficient} map, so a step
    costs only its coefficient updates: at most the product's support times
    the w + 1 classes one [w] reaches.  Each step is charged that bound
    before it runs, and the total is held to the dimension cap.
    """
    _check_level(k)
    weights = [check_int(w, "weight", 0, k) for w in weights]
    what = f"fusion product of {len(weights)} classes at level {k}"
    out = {weights[0]: 1} if weights else {0: 1}
    work = 0
    for w in weights[1:]:
        work += len(out) * (w + 1)
        _check_size(work, what, " coefficient updates")
        step = {}
        for a, ca in out.items():
            for c in range(abs(a - w), min(a + w, 2 * k - a - w) + 1, 2):
                step[c] = step.get(c, 0) + ca
        out = step
    coeffs = [0] * (k + 1)
    for c, m in out.items():
        coeffs[c] = m
    return FusionRingElement(k, coeffs)


def kac_walton(level: int, classical) -> tuple:
    """The level-k image of a classical product, by the Kac-Walton formula.

    `classical` maps each class c of an untruncated sl2 product to its
    multiplicity.  The affine Weyl group at level k acts on the shifted
    weight c + 1 by x -> -x and x -> x + 2(k + 2); each class is moved into
    1 .. k + 1 with the sign of its reflection, and a class on a wall
    (c + 1 a multiple of k + 2) goes to 0 (Kac, Infinite-dimensional Lie
    algebras, ch. 13; Walton, Nucl. Phys. B 340, 1990).  The level + 1
    coefficients come back as a plain tuple, not a FusionRingElement, so a
    wrong input's negative entry fails a comparison instead of raising.
    """
    _check_level(level)
    wall = level + 2
    out = [0] * (level + 1)
    for c, m in classical.items():
        x = (c + 1) % (2 * wall)
        if x > wall:
            x, m = 2 * wall - x, -m
        if x % wall:
            out[x - 1] += m
    return tuple(out)


class LimitDecomposition(namedtuple(
        "LimitDecomposition", "bundle level multiplicities "
        "boundary_coefficient boundary_nonzero")):
    """Multiplicities of the level-(b_n+1) product [b_1] ... [b_n].

    `multiplicities[j]` is the coefficient of [j] for j = 0 .. b_n; the
    coefficient of [b_n + 1] lies outside the decomposition range and is
    carried separately with `boundary_nonzero` set when it appears.
    """

    __slots__ = ()


def limit_multiplicities(bundle) -> LimitDecomposition:
    """The product [b_1] ... [b_n] of a weakly increasing bundle at level
    b_n + 1, split into the multiplicities of [0] .. [b_n] and the
    coefficient of the boundary class [b_n + 1], which is kept apart."""
    bundle = weakly_increasing(bundle, minimum=0)
    *mults, boundary = product_chain(bundle[-1] + 1, bundle).coeffs
    return LimitDecomposition(bundle, bundle[-1] + 1, tuple(mults), boundary,
                              boundary != 0)


def grassmannian_weights(bundle, steps: int) -> tuple:
    """Module weights (b_1+1, ..., b_n+1) extended by 2*steps copies of b_n+1."""
    bundle = weakly_increasing(bundle, minimum=0)
    check_int(steps, "steps", 0)
    grown = tuple(b + 1 for b in bundle) + (bundle[-1] + 1,) * (2 * steps)
    return grown


def grassmannian_section_dims(bundle, steps: int) -> int:
    """Section dimension over the 2*steps-extended Schubert variety."""
    bundle = weakly_increasing(bundle, minimum=0)
    base = math.prod(b + 1 for b in bundle)
    return base * (bundle[-1] + 1) ** (2 * steps)


class StabilizationReport(_Validated, namedtuple(
        "StabilizationReport", "bundle deg_max tables dims stable_from")):
    """Top-anchored character strata along the growing Schubert chain.

    `tables[i]` maps each co-energy d <= deg_max (distance below the module's
    maximal energy) to a {h-weight: multiplicity} mapping for the i-th
    module.  `stable_from` is the least i with tables[i] == tables[i+1] ==
    ... (None when the last two tables still differ).  `dims[i]` is the
    product of the i-th module's weights.

    `tables` is a tuple of read-only mappings of read-only mappings, as
    `FusionModule.character` is, so a report cannot be changed in place;
    like `FusionModule`, a report is not hashable.
    """

    __slots__ = ()

    def __new__(cls, bundle, deg_max, tables, dims, stable_from):
        tables = tuple(
            MappingProxyType({d: MappingProxyType(dict(stratum))
                              for d, stratum in table.items()})
            for table in tables)
        return super().__new__(cls, bundle, deg_max, tables, dims, stable_from)


def character_stabilization(bundle, i_max: int, deg_max: int,
                            cap=None) -> StabilizationReport:
    """Track the top end of the section-space characters as the chain grows.

    Characters come from the peeling recursion, so long extensions stay
    cheap: the whole chain is peeled at once, its steps sharing one memo of
    strata, and only each step's top deg_max + 1 energy rows are packed and
    read out, each step as soon as it is peeled.  Each stratum is packed
    once, in a window anchored at its own top energy, and the walk skips
    every quotient that lies wholly below the rows its user keeps, with its
    subtree, since each top energy has a closed form.  The cap, a positive
    integer, bounds every step's dimension (None reads the dimension cap at
    call time) and is checked for all steps before any peeling; the steps
    are built one at a time, so the first step over it raises before any
    later one is built.
    """
    bundle = weakly_increasing(bundle, minimum=0)
    # stabilization compares at least two tables
    check_int(i_max, "i_max", 1)
    check_int(deg_max, "deg_max", 0)
    chain = (grassmannian_weights(bundle, i) for i in range(i_max + 1))
    tables = _top_strata(chain, deg_max, cap)
    dims = tuple(math.prod(grassmannian_weights(bundle, i))
                 for i in range(i_max + 1))
    stable_from = None
    for i in range(i_max, 0, -1):
        if tables[i] != tables[i - 1]:
            break
        stable_from = i - 1
    return StabilizationReport(bundle, deg_max, tables, dims, stable_from)
