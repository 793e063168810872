"""Variety-level predicates, the flag model, and the group action."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from schubert_fusion.schubert import (
    FlagChain,
    GroupElement,
    bundle_split,
    canonical_flag,
    coordinate_ring_dims,
    curve_degrees,
    exp_lowering,
    exp_raising,
    flag_conditions,
    flag_membership,
    group_act,
    identity_element,
    isomorphic,
    line_bundle_exists,
    morphism_exists,
    picard_rank,
    random_group_element,
    sections_dim,
    _shared_prefix,
)
from schubert_fusion.linalg import SpanBasis
from schubert_fusion.types import Composition, canonical_A, compositions, leq


def comp(*parts):
    return Composition(tuple(parts))


def test_isomorphic_examples():
    assert isomorphic((2, 2, 3), (5, 5, 9))
    assert not isomorphic((2, 3), (2, 2))
    assert isomorphic((2, 2, 2, 2), (7, 7, 7, 7))


def test_isomorphic_requires_entries_at_least_two():
    with pytest.raises(ValueError):
        isomorphic((1, 2), (1, 2))


def test_morphism_examples():
    assert morphism_exists(comp(1, 1, 1), comp(2, 1))
    assert not morphism_exists(comp(2, 1), comp(1, 2))
    assert morphism_exists(comp(2, 1), comp(3))


def test_morphism_order_properties():
    for n in range(1, 6):
        comps = list(compositions(n))
        for a in comps:
            assert morphism_exists(a, a)
        for a, b in itertools.product(comps, repeat=2):
            if morphism_exists(a, b) and morphism_exists(b, a):
                assert a == b


def test_bundle_split_examples():
    split = bundle_split(comp(2, 1), 1)
    assert split.fiber == comp(2) and split.base == comp(1)
    assert split.identity_holds
    assert bundle_split(comp(1, 1), 1).identity_holds


def test_bundle_split_range():
    with pytest.raises(ValueError):
        bundle_split(comp(2, 1), 2)


def test_bundle_split_of_one_part_composition():
    with pytest.raises(ValueError, match="one-part composition has no fibration"):
        bundle_split(comp(2), 1)


def test_line_bundle_exists_examples():
    assert line_bundle_exists((1, 1, 2), comp(2, 1))
    assert not line_bundle_exists((1, 2, 2), comp(2, 1))
    for c in compositions(3):
        assert line_bundle_exists((3, 3, 3), c)


def test_line_bundle_rejects_bad_input():
    with pytest.raises(ValueError):
        line_bundle_exists((2, 1), comp(1, 1))  # not weakly increasing
    with pytest.raises(ValueError):
        line_bundle_exists((1, 1), comp(2, 1))  # length mismatch
    with pytest.raises(ValueError):
        line_bundle_exists((-1, 2), comp(1, 1))  # negative weight
    with pytest.raises(ValueError):
        curve_degrees((-1, 0))


def test_curve_degrees_examples():
    assert curve_degrees((1, 2)) == (3, 1)
    assert curve_degrees((0, 0, 0)) == (0, 0, 0)
    assert curve_degrees((1, 1, 1)) == (3, 2, 1)


def test_curve_degrees_of_canonical_bundles():
    for n in range(1, 6):
        for c in compositions(n):
            degs = curve_degrees(tuple(a - 1 for a in canonical_A(c)))
            assert all(d > 0 for d in degs)
            assert all(x >= y for x, y in zip(degs, degs[1:]))


def test_sections_dim_examples():
    assert sections_dim((1, 1, 2), comp(2, 1)) == 12
    assert sections_dim((0, 0), comp(2)) == 1
    assert sections_dim((1, 1, 1), comp(1, 1, 1)) == 8


def test_sections_dim_requires_existence():
    with pytest.raises(ValueError):
        sections_dim((1, 2, 2), comp(2, 1))
    with pytest.raises(ValueError):
        sections_dim((-1, 0), comp(2))


def test_sections_independent_of_variety():
    bundle = (1, 1, 2)
    holders = [c for c in compositions(3) if line_bundle_exists(bundle, c)]
    dims = {sections_dim(bundle, c) for c in holders}
    assert dims == {12}


def test_picard_examples():
    assert picard_rank(comp(4)) == 1
    assert picard_rank(comp(1, 1, 1)) == 3
    assert picard_rank(comp(2, 1)) == 2


def test_picard_monotone_under_refinement():
    for n in range(1, 6):
        for lo, hi in itertools.product(compositions(n), repeat=2):
            if leq(lo, hi):
                assert picard_rank(lo) <= picard_rank(hi)


def test_coordinate_ring_dims():
    assert coordinate_ring_dims((2, 2), 2) == (1, 4, 9)
    assert coordinate_ring_dims((2, 3), 1) == (1, 6)
    assert coordinate_ring_dims((5, 7), 0) == (1,)


def test_canonical_flag_shapes():
    chain = canonical_flag(comp(3))
    assert chain.dimensions() == (3,)
    assert chain.subspaces[0].pivots() == [0, 1, 2]

    chain = canonical_flag(comp(1, 1))
    assert chain.dimensions() == (3, 2)
    assert chain.subspaces[0].pivots() == [0, 1, 3]

    chain = canonical_flag(comp(2, 1))
    assert chain.dimensions() == (5, 3)
    assert chain.subspaces[0].pivots() == [0, 1, 2, 4, 5]
    assert chain.subspaces[1].pivots() == [0, 1, 2]


def test_canonical_flags_are_members():
    for n in range(1, 6):
        for c in compositions(n):
            assert flag_membership(canonical_flag(c), c)


def _chain_of(n, vector_lists):
    """A chain whose subspaces are spanned by the given int vectors, in order."""
    subspaces = []
    for vectors in vector_lists:
        basis = SpanBasis()
        for vec in vectors:
            basis.insert(vec)
        subspaces.append(basis)
    return FlagChain(n, tuple(subspaces))


def test_canonical_flag_matches_one_insert_per_unit_vector():
    for n in range(1, 7):
        for c in compositions(n):
            vector_lists = []
            threshold = 0
            for part in reversed(c.parts):
                threshold += part
                vector_lists.append([{m: 1} for m in range(n)]
                                    + [{n + j: 1} for j in range(threshold, n)])
            expected = _chain_of(n, vector_lists)
            chain = canonical_flag(c)
            _assert_same_rows(chain, expected)
            for space, oracle in zip(chain.subspaces, expected.subspaces):
                assert space.pivots() == oracle.pivots()


def test_flag_conditions_names():
    conds = flag_conditions(canonical_flag(comp(2, 1)), comp(2, 1))
    assert conds == {"profile": True, "nested": True,
                     "t_stable": True, "t_power_steps": True}


def test_wrong_codimension_chain_fails():
    n = 3
    full = SpanBasis()
    for i in range(2 * n):
        full.insert({i: 1})
    chain = FlagChain(n, (full,))
    conds = flag_conditions(chain, comp(n))
    assert not conds["profile"]
    assert not flag_membership(chain, comp(n))


def test_u_span_chain_is_member():
    n = 3
    u_span = SpanBasis()
    for i in range(n, 2 * n):
        u_span.insert({i: 1})
    assert flag_membership(FlagChain(n, (u_span,)), comp(n))


def test_identity_action_fixes_chain():
    chain = canonical_flag(comp(2, 1))
    moved = group_act(identity_element(3), chain)
    assert [s.pivots() for s in moved.subspaces] == \
        [s.pivots() for s in chain.subspaces]


def test_exp_raising_moves_within_variety():
    n = 3
    g = exp_raising(n, 0, Fraction(1, 2))
    chain = group_act(g, canonical_flag(comp(n)))
    assert flag_membership(chain, comp(n))
    # W_1 becomes span(v_i + z u_i): no longer coordinate-pivoted on v only
    assert chain.subspaces[0].pivots() == [0, 1, 2]


def test_group_element_validation():
    n = 2
    with pytest.raises(ValueError):
        GroupElement(n, 1, (2, 0), (0, 0), (0, 0), (1, 0))
    # det = 1 + t/2: over den 2 the determinant of den g is 4 + 2t, not 4
    with pytest.raises(ValueError, match="determinant 1"):
        GroupElement(n, 2, (2, 1), (0, 0), (0, 0), (2, 0))
    # the diagonal entries 2 and 1/2
    g = GroupElement(n, 2, (4, 0), (0, 0), (0, 0), (1, 0))
    assert g @ GroupElement(n, 2, (1, 0), (0, 0), (0, 0), (4, 0)) \
        == identity_element(n)
    with pytest.raises(TypeError, match="must be ints"):
        GroupElement(n, 1, (1.0, 0), (0, 0), (0, 0), (1, 0))
    with pytest.raises(TypeError, match="must be ints"):
        GroupElement(n, 1, (Fraction(1), 0), (0, 0), (0, 0), (1, 0))
    with pytest.raises(TypeError, match="z must be an int"):
        exp_raising(n, 0, 0.5)


def test_group_element_is_kept_in_lowest_terms():
    g = GroupElement(2, 2, (2, 0), (0, 0), (0, 0), (2, 0))
    assert g == identity_element(2) and hash(g) == hash(identity_element(2))
    assert g.den == 1 and g.vv == (1, 0)
    half = exp_raising(2, 1, Fraction(1, 2))
    assert (half @ half).den == 1 and half @ half == exp_raising(2, 1, 1)
    for den in (0, -1, 1.0):
        with pytest.raises(ValueError, match="den must be a positive integer"):
            GroupElement(2, den, (1, 0), (0, 0), (0, 0), (1, 0))
    g = random_group_element(8, random.Random(0))
    entries = [c for entry in (g.vv, g.vu, g.uv, g.uu) for c in entry]
    assert type(g.den) is int and all(type(c) is int for c in entries)
    assert math.gcd(g.den, *entries) == 1


# The product that random_group_element's column operations replaced,
# kept as the reference: the same draws, folded with `@` from the identity.
def _random_group_element_oracle(n, rng, length=4):
    g = identity_element(n)
    for _ in range(length):
        z = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        mode = rng.randrange(n)
        factor = exp_lowering(n, mode, z) if rng.random() < 0.5 else exp_raising(n, mode, z)
        g = g @ factor
    return g


def test_random_group_element_matches_product_oracle():
    for n in range(1, 9):
        flags = [canonical_flag(c) for c in compositions(n)]
        for length in range(7):
            for seed in range(5):
                rng, oracle_rng = random.Random(seed), random.Random(seed)
                g = random_group_element(n, rng, length)
                expected = _random_group_element_oracle(n, oracle_rng, length)
                assert g == expected and hash(g) == hash(expected)
                # the same draws, in the same order
                assert rng.getstate() == oracle_rng.getstate()
                if length == 4:  # the length every caller uses
                    for flag in flags:
                        _assert_same_rows(group_act(g, flag),
                                          group_act(expected, flag))


@pytest.mark.parametrize("n, length, name", [
    (3, -1, "length"),   # was the identity
    (3, 2.5, "length"),  # was a TypeError from range
    (3, True, "length"),
    (0, 4, "n"),         # was "empty range for randrange()"
    (-2, 4, "n"),
    (True, 4, "n"),      # was an element of truncation True
    (2.0, 4, "n"),
])
def test_random_group_element_validates_its_arguments(n, length, name):
    with pytest.raises(ValueError, match=f"^{name} must be"):
        random_group_element(n, random.Random(0), length)


def test_group_products_are_unimodular():
    rng = random.Random(3)
    for _ in range(20):
        g = random_group_element(3, rng)
        h = random_group_element(3, rng)
        _ = g @ h  # determinant is validated on construction


def test_random_group_action_preserves_membership():
    rng = random.Random(0)
    for n in range(1, 5):
        comps = list(compositions(n))
        for _ in range(12):
            c = comps[rng.randrange(len(comps))]
            g = random_group_element(n, rng)
            assert flag_membership(group_act(g, canonical_flag(c)), c)


@pytest.mark.parametrize("exp", [exp_raising, exp_lowering])
def test_one_parameter_elements_need_an_int_mode(exp):
    # a float mode matched no coefficient and gave the identity
    for mode in (1.5, 1.0, "1", None, -1, 3):
        with pytest.raises(ValueError, match="mode must be an integer"):
            exp(3, mode, 1)
    assert exp(3, 2, 1) != identity_element(3)


def test_raising_lowering_do_not_commute():
    n = 2
    g = exp_raising(n, 0, Fraction(1))
    h = exp_lowering(n, 0, Fraction(1))
    assert (g @ h).vv != (h @ g).vv


# The Fraction-based group action that the integer one replaced, kept as
# the reference: every image is computed in Fractions and scaled by the lcm
# of its own denominators to enter the int-only SpanBasis (the same span),
# and the product multiplies the zero coefficients of the right factor too.
def _fraction_poly_mul_oracle(p, q, n):
    out = [0] * n
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if i + j >= n:
                break
            out[i + j] = out[i + j] + a * b
    return tuple(out)


def _fractions(element):
    """The entries of the element itself: numerators over its den."""
    return tuple(tuple(Fraction(c, element.den) for c in entry)
                 for entry in (element.vv, element.vu, element.uv, element.uu))


def _fraction_product_oracle(g, h):
    n = g.truncation
    g_vv, g_vu, g_uv, g_uu = _fractions(g)
    h_vv, h_vu, h_uv, h_uu = _fractions(h)

    def entry(a, b, c, d):
        return tuple(x + y for x, y in zip(_fraction_poly_mul_oracle(a, b, n),
                                           _fraction_poly_mul_oracle(c, d, n)))

    return (entry(g_vv, h_vv, g_vu, h_uv), entry(g_vv, h_vu, g_vu, h_uu),
            entry(g_uv, h_vv, g_uu, h_uv), entry(g_uv, h_vu, g_uu, h_uu))


def _fraction_group_act_oracle(element, chain):
    n = chain.truncation
    vv, vu, uv, uu = _fractions(element)
    new_spaces = []
    for space in chain.subspaces:
        basis = SpanBasis()
        for row in space.row_vectors():
            image = {}
            for coord, val in row.items():
                val = Fraction(val)
                if coord < n:
                    mode, pairs = coord, ((0, vv), (n, uv))
                else:
                    mode, pairs = coord - n, ((0, vu), (n, uu))
                for base, poly in pairs:
                    for k, coeff in enumerate(poly):
                        if not coeff or mode + k >= n:
                            continue
                        target = base + mode + k
                        acc = image.get(target, 0) + val * coeff
                        if acc:
                            image[target] = acc
                        else:
                            image.pop(target, None)
            if image:
                den = math.lcm(*(c.denominator for c in image.values()))
                basis.insert({i: int(c * den) for i, c in image.items()})
        new_spaces.append(basis)
    return FlagChain(n, tuple(new_spaces))


def _assert_same_rows(chain, expected):
    assert chain.truncation == expected.truncation
    assert len(chain.subspaces) == len(expected.subspaces)
    for space, oracle in zip(chain.subspaces, expected.subspaces):
        assert space.row_vectors() == oracle.row_vectors()


def test_group_act_matches_fraction_oracle_on_random_elements():
    for n in range(1, 7):
        for c in compositions(n):
            flag = canonical_flag(c)
            for seed in range(3):
                g = random_group_element(n, random.Random(f"{c.parts}:{seed}"))
                _assert_same_rows(group_act(g, flag),
                                  _fraction_group_act_oracle(g, flag))


@pytest.mark.parametrize("z", [Fraction(1, 2), Fraction(-3, 4), Fraction(0)],
                         ids=str)
def test_group_act_matches_fraction_oracle_on_one_parameter_elements(z):
    # lowering fixes a canonical flag (it holds every v), so act on a
    # translate of it as well
    rng = random.Random(7)
    for n in range(1, 6):
        for c in compositions(n):
            flag = canonical_flag(c)
            moved = _fraction_group_act_oracle(random_group_element(n, rng), flag)
            for mode in range(n):
                for g in (exp_raising(n, mode, z), exp_lowering(n, mode, z)):
                    for chain in (flag, moved):
                        _assert_same_rows(group_act(g, chain),
                                          _fraction_group_act_oracle(g, chain))


def _random_vectors(rng, coords, count):
    """`count` int vectors on 1 to 3 of `coords`, with entries in -3..3."""
    vectors = []
    for _ in range(count):
        support = rng.sample(coords, rng.randint(1, min(3, len(coords))))
        vectors.append({c: rng.randint(-3, 3) or 1 for c in support})
    return vectors


def _non_canonical_chains(n, rng):
    """Chains that share row prefixes in every way group_act must handle."""
    v_coords, u_coords = list(range(n)), list(range(n, 2 * n))
    low = _random_vectors(rng, v_coords, n - 1)  # pivots below every u-row's
    high = [_random_vectors(rng, u_coords, rng.randint(1, n)) for _ in range(3)]
    other = _random_vectors(rng, v_coords + u_coords, n)
    return {
        # a shared prefix of v-rows, then different u-rows
        "prefix": [low + high[0], low + high[1], low + high[2]],
        # nothing in common
        "disjoint": [high[0], other, high[1]],
        # a repeated subspace, and a prefix after it
        "repeat": [low + high[0], low + high[0], low],
        # not nested as a flag is: each subspace holds the one before it
        "growing": [low[:1], low, low + high[0]],
        # a long prefix, then a shorter one than the subspace started from
        "shrinking": [low + high[0], low + high[0][:1] + high[1], low[:1] + other],
    }


def _prefixes(chain):
    rows = [space.row_vectors() for space in chain.subspaces]
    return [_shared_prefix(x, y) for x, y in zip(rows, rows[1:])]


def test_group_act_matches_fraction_oracle_on_non_canonical_chains():
    rng = random.Random(17)
    seen = set()
    for n in range(2, 6):
        for _ in range(4):
            for kind, vector_lists in _non_canonical_chains(n, rng).items():
                chain = _chain_of(n, vector_lists)
                prefixes = _prefixes(chain)
                if kind == "disjoint":
                    assert prefixes == [0, 0]
                elif kind == "shrinking" and prefixes[0] > prefixes[1]:
                    seen.add(kind)
                elif kind != "shrinking" and all(prefixes):
                    seen.add(kind)
                elements = [random_group_element(n, rng) for _ in range(3)]
                elements += [exp_raising(n, rng.randrange(n), Fraction(-1, 2)),
                             exp_lowering(n, rng.randrange(n), Fraction(3, 4))]
                for g in elements:
                    _assert_same_rows(group_act(g, chain),
                                      _fraction_group_act_oracle(g, chain))
    assert seen == {"prefix", "repeat", "growing", "shrinking"}


def test_group_product_matches_fraction_oracle():
    rng = random.Random(11)
    for n in range(1, 7):
        for _ in range(10):
            g = random_group_element(n, rng)
            h = random_group_element(n, rng)
            gh = g @ h
            assert _fractions(gh) == _fraction_product_oracle(g, h)


def test_flag_model_runs_on_ints(monkeypatch):
    # the flag model hands SpanBasis int vectors only: unit vectors, their
    # t-shifts, and the images of int rows under the int matrix den g
    seen = []
    insert, contains = SpanBasis.insert, SpanBasis.contains

    def recording_insert(self, vec):
        seen.append(vec)
        return insert(self, vec)

    def recording_contains(self, vec):
        seen.append(vec)
        return contains(self, vec)

    monkeypatch.setattr(SpanBasis, "insert", recording_insert)
    monkeypatch.setattr(SpanBasis, "contains", recording_contains)
    rng = random.Random(5)
    stored = []
    for n in range(1, 6):
        for c in compositions(n):
            flag = canonical_flag(c)
            moved = group_act(random_group_element(n, rng), flag)
            assert flag_membership(flag, c) and flag_membership(moved, c)
            stored += [row for chain in (flag, moved)
                       for space in chain.subspaces for row in space.row_vectors()]
    assert len(seen) > 1000 and len(stored) > 100
    assert all(type(x) is int for vec in seen + stored for x in vec.values())
