"""Type combinatorics: run-length types, the refinement order, Poincare data."""

import itertools
import math
import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schubert_fusion import acceptance, types
from schubert_fusion.fock import apply_current, cyclic_vector
from schubert_fusion.fusion import (DimensionCapError, build_module,
                                    build_submodule, character_recursive,
                                    check_relations, monomial_basis)
from schubert_fusion.schubert import (GroupElement, bundle_split,
                                      canonical_flag, coordinate_ring_dims,
                                      exp_raising, random_group_element)
from schubert_fusion.verlinde import (FusionRingElement,
                                      character_stabilization, fuse,
                                      grassmannian_weights)
from schubert_fusion.types import (
    Composition,
    PoincarePolynomial,
    canonical_A,
    compositions,
    leq,
    leq_by_vectors,
    poincare,
    poincare_recursive_single,
    type_of,
    weakly_increasing,
)


def comp(*parts):
    return Composition(tuple(parts))


small_compositions = st.integers(min_value=1, max_value=6).flatmap(
    lambda n: st.sampled_from(list(compositions(n))))


def test_type_of_examples():
    assert type_of((2, 2, 3)) == comp(2, 1)
    assert type_of((2, 3, 4)) == comp(1, 1, 1)
    assert type_of((5, 5, 5, 5)) == comp(4)


def test_type_of_rejects_decreasing():
    with pytest.raises(ValueError):
        type_of((3, 2))


def test_composition_validation():
    with pytest.raises(ValueError):
        comp(2, 0)
    with pytest.raises(ValueError):
        Composition(())


def test_records_validate_the_tuple_they_keep():
    # a one-shot iterable is converted before it is checked, so the check
    # sees the parts that are kept
    parts = Composition(p for p in (1, 2))
    assert parts == Composition((1, 2))
    assert parts.n == 3
    with pytest.raises(ValueError, match="at least one part"):
        Composition(p for p in ())
    with pytest.raises(ValueError, match="part must be a positive integer"):
        Composition(p for p in (1, 0))
    poly = PoincarePolynomial(c for c in (1, 2))
    assert poly.even_coeffs == (1, 2)
    assert poly.degree == 2
    with pytest.raises(ValueError, match="not canonical"):
        PoincarePolynomial(c for c in (1, 0))


@pytest.mark.parametrize("low, high, rule", [
    (None, None, "an integer"),
    (0, None, "a nonnegative integer"),
    (1, None, "a positive integer"),
    (2, None, "an integer >= 2"),
    (1, 3, "an integer in 1..3"),
])
def test_check_int_states_its_rule(low, high, rule):
    assert types.check_int(3, "x", low, high) == 3
    for bad in (True, 3.0, "3", None) + ((low - 1,) if low is not None else ()):
        with pytest.raises(ValueError,
                           match=f"^x must be {re.escape(rule)}, got "
                                 f"{re.escape(repr(bad))}$"):
            types.check_int(bad, "x", low, high)


# One case per integer check of the package: the call, with the argument
# under test as `v`, the name its message starts with, and one int out of
# its range.  A bool (an int subclass, equal and hash-equal to 0 or 1) and a
# float equal to an int are refused everywhere, as is the out-of-range int.
_INTEGER_SITES = {
    "max_n": (lambda v: acceptance.run_all(v), "max_n", 0),
    "count": (lambda v: acceptance.flag_checks(canonical_flag(comp(2, 1)),
                                               comp(2, 1), v), "count", -3),
    "current mode": (lambda v: apply_current(v, cyclic_vector((2,), 2)),
                     "current mode", -1),
    "block index": (lambda v: apply_current(0, cyclic_vector((2, 3), 3),
                                            (v,)),
                    "block index", 2),
    "truncation": (lambda v: check_relations(v, 1), "truncation", 0),
    "max power": (lambda v: check_relations(2, v), "max power", 0),
    "monomial truncation": (monomial_basis, "truncation", 0),
    "index": (lambda v: build_submodule((2, 3), v), "index", 2),
    "cut": (lambda v: bundle_split(comp(2, 1), v), "cut", 2),
    "i_max": (lambda v: coordinate_ring_dims((2, 2), v), "i_max", -1),
    "den": (lambda v: GroupElement(1, v, (1,), (0,), (0,), (1,)), "den", 0),
    "group truncation": (lambda v: GroupElement(v, 1, (1,), (0,), (0,), (1,)),
                         "truncation", 0),
    # every int is a matrix entry, so a third non-int stands in for the range
    "matrix entry": (lambda v: GroupElement(1, 1, (1,), (v,), (0,), (1,)),
                     "matrix entry", 0.5),
    "mode": (lambda v: exp_raising(2, v, 1), "mode", 2),
    "n": (lambda v: random_group_element(v, random.Random(0)), "n", 0),
    "length": (lambda v: random_group_element(2, random.Random(0), v),
               "length", -1),
    "compositions": (compositions, "n", 0),
    "recursion": (poincare_recursive_single, "n", -1),
    "level": (lambda v: fuse(v, 0, 0), "level", -1),
    "weight": (lambda v: fuse(2, v, 0), "weight", 3),
    "steps": (lambda v: grassmannian_weights((1,), v), "steps", -1),
    "stabilization i_max": (lambda v: character_stabilization((1,), v, 1),
                            "i_max", 0),
    "deg_max": (lambda v: character_stabilization((1,), 2, v), "deg_max", -1),
    "stabilization cap": (lambda v: character_stabilization((1,), 2, 1, cap=v),
                          "cap", 0),
    "peeling cap": (lambda v: character_recursive((2,), cap=v), "cap", 0),
    "entry": (lambda v: build_module((v, 2)), "entry", 0),
    "part": (lambda v: Composition((v, 1)), "part", 0),
    "Poincare coefficient": (lambda v: PoincarePolynomial((1, v)),
                             "coefficient", -1),
    "ring coefficient": (lambda v: FusionRingElement(1, (1, v)),
                         "coefficient", -1),
    "factor truncation": (lambda v: cyclic_vector((v,), 1),
                          "factor truncation", 0),
}


@pytest.mark.parametrize("site", _INTEGER_SITES)
def test_every_integer_argument_follows_one_rule(site):
    call, what, out_of_range = _INTEGER_SITES[site]
    for bad in (True, 2.0, out_of_range):
        with pytest.raises(ValueError,
                           match=f"^{what} must be .*, got {bad!r}$"):
            call(bad)


def test_compositions_count():
    # compositions of n are in bijection with subsets of the n-1 gaps
    for n in range(1, 8):
        assert len(list(compositions(n))) == 2 ** (n - 1)


def test_leq_examples():
    assert leq(comp(3), comp(1, 1, 1))
    assert not leq(comp(2, 1), comp(1, 2))
    assert not leq(comp(1, 2), comp(2, 1))
    assert leq(comp(2, 1), comp(2, 1))


def test_leq_needs_matching_n():
    with pytest.raises(ValueError):
        leq(comp(2), comp(1, 1, 1))
    with pytest.raises(ValueError):
        leq_by_vectors(comp(2), comp(1, 1, 1))


def test_leq_by_vectors_agrees_with_leq():
    for n in range(1, 6):
        for a, b in itertools.product(compositions(n), repeat=2):
            assert leq_by_vectors(a, b) == leq(a, b)


def test_weakly_increasing_validator():
    assert weakly_increasing([-2, 0, 0, 5]) == (-2, 0, 0, 5)
    assert weakly_increasing((), allow_empty=True) == ()
    assert weakly_increasing((2, 2), minimum=2) == (2, 2)
    for bad, minimum in (((), None), ((3, 2), None), ((1, 2.5), None),
                         ((0, 1), 1), ((-1, 0), 0)):
        with pytest.raises(ValueError):
            weakly_increasing(bad, minimum=minimum)


def test_canonical_A_examples():
    assert canonical_A(comp(2, 1)) == (2, 2, 3)
    assert canonical_A(comp(3)) == (2, 2, 2)
    assert canonical_A(comp(1, 1, 1)) == (2, 3, 4)


def test_poincare_examples():
    assert poincare(comp(4)).even_coeffs == (1, 1, 1, 1, 1)
    assert poincare(comp(1, 1)).even_coeffs == (1, 2, 1)
    assert poincare(comp(2, 1)).even_coeffs == (1, 2, 2, 1)


def test_poincare_structure():
    for n in range(1, 7):
        for c in compositions(n):
            poly = poincare(c)
            assert poly.even_coeffs[0] == 1
            assert poly.degree == 2 * c.n
            assert poly.evaluate(1) == math.prod(i + 1 for i in c.parts)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8))
def test_poincare_matches_the_product_fold(parts):
    # the prefix-sum windows give the generic product of the all-ones factors
    expected = PoincarePolynomial((1,))
    for part in parts:
        expected = expected * PoincarePolynomial((1,) * (part + 1))
    assert poincare(Composition(parts)) == expected


def _per_part_passes(parts):
    # one pass of prefix sums per part, as the reference: coefficient j of
    # the product with 1 + ... + q^{2i} is the sum of coefficients j - i .. j
    coeffs = [1]
    for part in parts:
        sums = [0] * (part + 1) + list(itertools.accumulate(coeffs + [0] * part))
        coeffs = [hi - lo for hi, lo in zip(sums[part + 1:], sums)]
    return tuple(coeffs)


def test_poincare_matches_the_per_part_passes():
    # the most frequent part's power comes from its recurrence: long runs,
    # runs split by other parts, several runs of one length, single parts
    rng = random.Random(29)
    cases = [[1] * 400, [2] * 300, [7] * 60, [1, 2, 3] * 50,
             [1] * 150 + [5] * 150, [1] * 500 + [7] * 6, [9], [4, 1], [3, 3],
             [12, 12, 1, 5], [40, 1, 40, 2, 40]]
    for _ in range(12):
        run = [rng.randint(1, 9)] * rng.randint(1, 120)
        rest = [rng.randint(1, 9) for _ in range(rng.randint(0, 60))]
        parts = run + rest
        rng.shuffle(parts)
        cases.append(parts)
    cases += [[rng.randint(1, 9) for _ in range(rng.randint(1, 150))]
              for _ in range(8)]
    for parts in cases:
        assert poincare(Composition(parts)).even_coeffs == _per_part_passes(parts)


def test_recursion_examples():
    assert poincare_recursive_single(0).even_coeffs == (1,)
    assert poincare_recursive_single(2).even_coeffs == (1, 1, 1)
    assert poincare_recursive_single(5) == poincare(comp(5))


def test_recursion_matches_closed_form():
    for n in range(13):
        expected = (1,) * (n + 1)
        assert poincare_recursive_single(n).even_coeffs == expected


def test_long_recursion_stays_within_recursion_limit():
    # the steps run upward from the parity base, not down a call stack
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 50)
    try:
        poly = poincare_recursive_single(3000)
    finally:
        sys.setrecursionlimit(limit)
    assert poly == poincare(comp(3000))


def test_polynomial_arithmetic():
    p = PoincarePolynomial((1, 1))
    assert (p * p).even_coeffs == (1, 2, 1)


def _schoolbook_product(x, y):
    # the double loop over every pair of coefficients, as the reference; a
    # zero factor leaves zeros on top, which the canonical form drops
    a, b = x.even_coeffs, y.even_coeffs
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    while len(out) > 1 and not out[-1]:
        out.pop()
    return PoincarePolynomial(out)


def test_product_matches_the_schoolbook_loop():
    # Kronecker substitution against the double loop, over the zero
    # polynomial, length-1 factors, inner zeros, coefficients that fill
    # whole bytes and fields from one byte to many
    polys = [PoincarePolynomial(c) for c in (
        (0,), (1,), (7,), (256,), (0, 0, 3), (255,) * 3, (2 ** 70, 0, 1))]
    rng = random.Random(5)
    for _ in range(40):
        top = rng.choice((1, 255, 2 ** 16, 2 ** 40))
        coeffs = [rng.randint(0, top) for _ in range(rng.randint(0, 29))]
        polys.append(PoincarePolynomial(coeffs + [rng.randint(1, top)]))
    for x, y in itertools.product(polys, repeat=2):
        assert x * y == _schoolbook_product(x, y)


def test_extremes():
    for n in range(1, 7):
        top, bottom = comp(*([1] * n)), comp(n)
        for c in compositions(n):
            assert leq(bottom, c)
            assert leq(c, top)


@settings(max_examples=60, deadline=None)
@given(small_compositions, small_compositions)
def test_antisymmetry(a, b):
    if a.n == b.n and leq(a, b) and leq(b, a):
        assert a == b


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.data())
def test_transitivity(n, data):
    comps = list(compositions(n))
    a = data.draw(st.sampled_from(comps))
    b = data.draw(st.sampled_from(comps))
    c = data.draw(st.sampled_from(comps))
    if leq(a, b) and leq(b, c):
        assert leq(a, c)


@settings(max_examples=60, deadline=None)
@given(small_compositions)
def test_canonical_A_roundtrip(c):
    vec = canonical_A(c)
    assert type_of(vec) == c
    assert all(x <= y for x, y in zip(vec, vec[1:]))


def test_order_matches_equality_pattern():
    # lo <= hi iff adjacent equalities of hi's canonical vector persist in lo's
    for n in range(1, 6):
        for lo, hi in itertools.product(compositions(n), repeat=2):
            av, bv = canonical_A(hi), canonical_A(lo)
            pattern = all(bv[i] == bv[i + 1]
                          for i in range(len(av) - 1) if av[i] == av[i + 1])
            assert leq(lo, hi) == pattern


@pytest.mark.parametrize("build, size", [
    (lambda: poincare(comp(2, 3)), 6),  # n + 1 coefficients
    (lambda: poincare_recursive_single(5), 6),
    (lambda: canonical_A(comp(2, 3)), 5),  # n entries
    # i_max + 1 entries of len(weights) factors each
    (lambda: coordinate_ring_dims((2,), 5), 6),
    (lambda: coordinate_ring_dims((2, 3, 3), 3), 12),
    (lambda: canonical_flag(comp(2, 3)), 20),  # s subspaces of 2n rows
])
def test_sizes_are_charged_against_the_cap(monkeypatch, build, size):
    # the cap is read at call time: a result of `size` entries fits a cap
    # of `size` and raises under one less
    monkeypatch.setattr(types, "DEFAULT_DIMENSION_CAP", size)
    build()
    monkeypatch.setattr(types, "DEFAULT_DIMENSION_CAP", size - 1)
    with pytest.raises(DimensionCapError, match=f"cap of {size - 1}"):
        build()
