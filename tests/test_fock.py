"""Wedge model sanity: signs, gradings, packed indices, and the current action."""

import math
import random
import time
from collections import Counter
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest

from schubert_fusion import fock
from schubert_fusion.fock import (
    DimensionCapError,
    FactorBasis,
    WedgeState,
    apply_current,
    cyclic_vector,
    factor_groups,
    top_wedge,
)
from schubert_fusion.fusion import factor_shapes

V, U = 0, 1


def only_term(state):
    (index, coeff), = state.coeffs.items()
    return index, coeff


def grade_of(state):
    """The bigrade of a one-term state."""
    return state.model.bigrade(only_term(state)[0])


def test_top_wedge_single_particle():
    state = top_wedge((1,))
    index, coeff = only_term(state)
    assert coeff == 1
    assert state.model.bigrade(index) == (-1, 0)


def test_top_wedge_shapes():
    assert grade_of(top_wedge((2,))) == (-2, 1)
    assert grade_of(top_wedge((3, 1))) == (-4, 3)
    assert grade_of(top_wedge((2, 2, 1))) == (-5, 2)


def test_e0_on_single_v():
    state = apply_current(0, top_wedge((1,)))
    index, coeff = only_term(state)
    assert coeff == 1
    assert state.model.bigrade(index) == (1, 0)


def test_e1_on_two_wedge_and_nilpotence():
    top = top_wedge((2,))
    once = apply_current(1, top)
    index, coeff = only_term(once)
    # u_1 ^ v_1 reorders to -(v_1 ^ u_1)
    assert once.model.bigrade(index) == (0, 2)
    assert coeff == -1
    assert not apply_current(1, once).coeffs


def test_mode_past_truncation_dies():
    top = top_wedge((2,))
    assert not apply_current(5, top).coeffs


def test_e_raises_weight_by_two():
    state = apply_current(0, top_wedge((3, 2)))
    for index in state.coeffs:
        # +2 weight, +0 energy over (-5, 4)
        assert state.model.bigrade(index) == (-3, 4)


def particle_grade(monos):
    """(h-weight, t-degree) summed over the particles of some monomials."""
    return (sum(1 if kind == U else -1 for mono in monos for kind, _ in mono),
            sum(i for mono in monos for _, i in mono))


# Masks and particle tuples: bit i of a truncation-m monomial is v_i and bit
# m + i is u_i; the tuple lists the particles, every v before every u.

def to_mask(mono):
    m = len(mono)
    return sum(1 << (i if kind == V else m + i) for kind, i in mono)


def to_particles(mask):
    m = mask.bit_count()
    return (tuple((V, i) for i in range(m) if mask >> i & 1)
            + tuple((U, i) for i in range(m) if mask >> (m + i) & 1))


def test_mask_helpers_round_trip():
    assert to_mask(((V, 0), (V, 1))) == 0b0011
    assert to_mask(((V, 1), (U, 0))) == 0b0110
    assert to_particles(0b1001) == ((V, 0), (U, 1))
    for m in range(1, 5):
        particles = [(V, i) for i in range(m)] + [(U, i) for i in range(m)]
        for mono in combinations(particles, m):
            assert to_particles(to_mask(mono)) == mono


def intern_particles(model, g, monos) -> int:
    """Intern a block of position g given as particle tuples, one per factor."""
    block = tuple(sorted(to_mask(mono) for mono in monos))
    return model.intern(g, block, particle_grade(monos))


def random_state(rng, shapes, terms=3):
    # canonical orbit-sum terms with random monomials: each factor's m
    # particles sorted (every v before every u), each block's monomials
    # sorted, so the state need not be reachable from a top wedge
    model = top_wedge(shapes).model
    out = WedgeState(model, {})
    for _ in range(terms):
        bids = []
        for g, (m, count) in enumerate(model.groups):
            particles = [(V, i) for i in range(m)] + [(U, i) for i in range(m)]
            monos = [tuple(sorted(rng.sample(particles, m))) for _ in range(count)]
            bids.append(intern_particles(model, g, monos))
        out = out + WedgeState(model, {model.pack_index(bids): rng.randint(1, 5)})
    return out


def test_raising_operators_commute():
    rng = random.Random(1)
    for shapes in ((3,), (3, 2), (4, 2)):
        state = random_state(rng, shapes)
        for i, j in ((0, 1), (1, 2), (0, 2)):
            ij = apply_current(i, apply_current(j, state))
            ji = apply_current(j, apply_current(i, state))
            assert ij.coeffs == ji.coeffs


def test_block_scopes_add_up_to_the_whole_current():
    # the diagonal action is the sum of its actions on single blocks
    rng = random.Random(2)
    for shapes in ((4, 2), (3, 3, 1), (2, 2, 1, 1)):
        blocks = range(len(factor_groups(shapes)))
        for _ in range(3):
            state = random_state(rng, shapes)
            for j in range(max(shapes) + 1):
                whole = apply_current(j, state)
                total = WedgeState(state.model, {})
                for g in blocks:
                    total = total + apply_current(j, state, blocks=(g,))
                assert total.coeffs == whole.coeffs
                assert apply_current(j, state, blocks=blocks).coeffs == whole.coeffs


@pytest.mark.parametrize("bad", [-1, 2, 5])
def test_block_index_out_of_range_raises(bad):
    # top_wedge((3, 2)) has two blocks; -1 would shift past the top field
    state = top_wedge((3, 2))
    assert len(state.model.groups) == 2
    with pytest.raises(ValueError, match="block index"):
        apply_current(0, state, blocks=(bad,))
    with pytest.raises(ValueError, match="block index"):
        apply_current(0, state, blocks=(0, bad))


def test_repeated_or_non_sequence_blocks_raise():
    # a repeated index would apply the current to its block twice
    state = top_wedge((2, 1))
    assert apply_current(0, state, blocks=(0,)).coeffs == {17: -1, 25: 1}
    with pytest.raises(ValueError, match="distinct"):
        apply_current(0, state, blocks=(0, 0))
    with pytest.raises(ValueError, match="sequence of block indices"):
        apply_current(0, state, blocks=5)


def test_single_factor_nilpotence():
    m = 3
    state = top_wedge((m,))
    for _ in range(m):
        state = apply_current(0, state)
    assert not apply_current(0, state).coeffs


def test_zero_factor_shapes_rejected():
    with pytest.raises(ValueError):
        top_wedge((0,))


# An independent model of the same action: explicit particle tuples, one per
# tensor factor, with every arrangement of an orbit sum spelled out, and
# wedge signs found by sorting.  It shares no code with `fock` beyond reading
# the block contents an index names, decoded from masks to particle tuples.

def explicit(state):
    """Expand orbit sums into {tuple of per-factor particle tuples: coeff}."""
    model = state.model
    out = {}
    for index, coeff in state.coeffs.items():
        blocks = [tuple(to_particles(mask) for mask in model.blocks[b])
                  for b in model.block_ids(index)]
        for parts in product(*(set(permutations(block)) for block in blocks)):
            word = tuple(mono for part in parts for mono in part)
            assert word not in out
            out[word] = coeff
    return out


def sort_sign(particles):
    """(sign of the sorting permutation, sorted tuple); sign 0 on a repeat."""
    items = list(particles)
    if len(set(items)) < len(items):
        return 0, None
    sign = 1
    for i in range(len(items)):  # bubble sort, one sign flip per swap
        for k in range(len(items) - 1 - i):
            if items[k] > items[k + 1]:
                items[k], items[k + 1] = items[k + 1], items[k]
                sign = -sign
    return sign, tuple(items)


def oracle_current(mode, shapes, vec, factors):
    """e_mode on explicit words, as a derivation on each factor in `factors`."""
    out = {}
    for word, coeff in vec.items():
        for f in factors:
            m = shapes[f]
            for pos, (kind, i) in enumerate(word[f]):
                if kind != V or i + mode >= m:
                    continue
                moved = word[f][:pos] + ((U, i + mode),) + word[f][pos + 1:]
                sign, mono = sort_sign(moved)
                if sign:
                    image = word[:f] + (mono,) + word[f + 1:]
                    out[image] = out.get(image, 0) + sign * coeff
    return {w: c for w, c in out.items() if c}


def block_factors(shapes, g):
    start = sum(count for _, count in factor_groups(shapes)[:g])
    return range(start, start + factor_groups(shapes)[g][1])


@pytest.mark.parametrize("shapes", [(3,), (2, 1), (4, 2), (3, 3, 1), (2, 2, 1, 1)])
def test_current_matches_explicit_particle_model(shapes):
    rng = random.Random(str(shapes))
    for _ in range(4):
        state = random_state(rng, shapes, terms=4)
        model = state.model
        vec = explicit(state)
        for mode in range(max(shapes) + 1):
            image = apply_current(mode, state)
            assert (explicit(image)
                    == oracle_current(mode, shapes, vec, range(len(shapes))))
            for index in image.coeffs:  # grades carried through the moves
                word = next(iter(explicit(WedgeState(model, {index: 1}))))
                assert model.bigrade(index) == particle_grade(word)
            for g in range(len(model.groups)):
                assert (explicit(apply_current(mode, state, blocks=(g,)))
                        == oracle_current(mode, shapes, vec,
                                          block_factors(shapes, g)))


def every_block(m, count):
    """Every block of `count` factors of truncation m, as particle tuples."""
    particles = [(V, i) for i in range(m)] + [(U, i) for i in range(m)]
    return combinations_with_replacement(combinations(particles, m), count)


@pytest.mark.parametrize("shapes", [(1,), (2,), (3,), (4,), (5,),
                                    (1, 1), (2, 2), (3, 3), (3, 1), (2, 2, 1),
                                    (1,) * 5, (2, 2, 2), (2, 2, 2, 1)])
def test_block_moves_match_the_particle_oracle(shapes):
    # every block of the first group, in the most significant field: every
    # one-factor block of truncation <= 5, every two-factor block of
    # truncation <= 3, every five-factor block of truncation 1 and every
    # three-factor block of truncation 2, under every mode below the
    # truncation: the masks' XOR moves, popcount signs, multiplicities and
    # shifted deltas against sorted particles.  Only blocks of three or
    # more factors can repeat both a move's source and its target
    # monomial.  The other groups hold their top wedges, and the current
    # acts on the first group alone as well as on the whole state.
    m, count = factor_groups(shapes)[0]
    top = top_wedge(shapes)
    model = top.model
    others = model.block_ids(only_term(top)[0])[1:]
    seen = 0
    for monos in every_block(m, count):
        index = model.pack_index((intern_particles(model, 0, monos),) + others)
        state = WedgeState(model, {index: 1})
        vec = explicit(state)
        for mode in range(m):
            for blocks, factors in ((None, range(len(shapes))),
                                    ((0,), range(count))):
                image = apply_current(mode, state, blocks)
                assert explicit(image) == oracle_current(mode, shapes, vec,
                                                         factors)
                for index in image.coeffs:
                    word = next(iter(explicit(WedgeState(model, {index: 1}))))
                    assert model.bigrade(index) == particle_grade(word)
        seen += 1
    assert seen == math.comb(math.comb(2 * m, m) + count - 1, count)


@pytest.mark.parametrize("weights", [(3, 3, 5, 5), (2, 9, 14)],
                         ids=["3,3,5,5", "2,9,14"])
def test_move_tables_need_no_merging(weights):
    # groups (4, 2), (2, 2) and (3, 1), (2, 7), (1, 5): walk every index
    # the currents reach from the top wedge, then check each table entry.
    # Two moves of a block with one image would replace the same monomial
    # by the same monomial, so the images of an entry are distinct and no
    # multiplier cancels; a multiplier counts the copies of the new
    # monomial, at most the group's factors and 1 for a single factor.
    top = top_wedge(factor_shapes(weights))
    model = top.model
    modes = range(max(m for m, _ in model.groups))
    seen = set(top.coeffs)
    frontier = list(seen)
    while frontier:
        reached = []
        for index in frontier:
            state = WedgeState(model, {index: 1})
            for mode in modes:
                for image in apply_current(mode, state).coeffs:
                    if image not in seen:
                        seen.add(image)
                        reached.append(image)
        frontier = reached
    largest = 0
    for (m, count), tables in zip(model.groups, model.moves):
        assert tables
        for table in tables.values():
            for moves in table.values():
                deltas = [delta for delta, _ in moves]
                assert len(set(deltas)) == len(deltas)
                for _, mult in moves:
                    assert 0 < abs(mult) <= count
                    assert count > 1 or abs(mult) == 1
                    largest = max(largest, abs(mult))
    assert largest > 1  # some move lands on a monomial already present


def test_explicit_model_signs():
    # u_1 ^ v_1 sorts to -(v_1 ^ u_1); a repeated particle kills the wedge
    assert sort_sign(((U, 1), (V, 1))) == (-1, ((V, 1), (U, 1)))
    assert sort_sign(((V, 0), (U, 2), (V, 1))) == (-1, ((V, 0), (V, 1), (U, 2)))
    assert sort_sign(((U, 0), (U, 0))) == (0, None)


def test_index_order_is_block_tuple_order():
    rng = random.Random(5)
    shapes = (3, 3, 1)
    state = random_state(rng, shapes, terms=40)
    model = state.model
    indices = list(state.coeffs)
    top = (1 << model.bits) - 1
    for _ in range(200):  # ids across the whole field, edges included
        bids = [rng.choice((0, 1, top - 1, top, rng.randrange(top + 1)))
                for _ in model.groups]
        index = model.pack_index(bids)
        assert model.block_ids(index) == tuple(bids)
        indices.append(index)
    assert (sorted(indices)
            == sorted(indices, key=lambda idx: model.block_ids(idx)))


def test_block_id_past_its_field_is_refused(monkeypatch):
    # a budget of 4 blocks gives 2-bit fields: the model holds ids 0..3 and
    # refuses a fifth block
    monkeypatch.setattr(fock, "WEDGE_BLOCK_BUDGET", 4)
    state = top_wedge((3,))
    model = state.model
    assert (model.budget, model.bits) == (4, 2)
    state = apply_current(0, state)  # u_0, u_1, u_2 each replace one v
    assert len(model.blocks) == 4
    with pytest.raises(DimensionCapError, match="budget of 4 blocks"):
        apply_current(0, state)
    assert len(model.blocks) == len(model.grades) == 4


@pytest.mark.parametrize("weights, bits, factor_bits", [
    # one factor of truncation 1: 2 monomials, and a lone factor keeps
    # wedge coordinates in its closure
    ((2,), 1, 1),
    # groups (3, 1), (2, 7), (1, 5): 20 + C(12, 7) + C(6, 5) = 818 blocks,
    # and 8 + C(10, 7) + C(6, 5) = 134 of labels
    ((2, 9, 14), 10, 8),
    # groups (5, 2), (4, 1), (2, 1): C(253, 2) + 70 + 6 = 32 207 blocks,
    # and C(33, 2) + 16 + 4 = 548 of labels
    ((3, 4, 4, 5, 5), 15, 10),
    # group (4, 4): C(73, 4) = 1 088 430 multisets pass the budget, and
    # C(19, 4) = 3 876 multisets of labels do not
    ((5, 5, 5, 5), 18, 12),
], ids=["2", "2,9,14", "3,4,4,5,5", "5,5,5,5"])
def test_id_fields_are_as_wide_as_the_model_can_need(weights, bits,
                                                     factor_bits):
    # a field holds every multiset of c monomials (C(2m, m) of them) of
    # each group (m, c), or of c labels (2^m of them) in factor
    # coordinates, and at most the budget's 2**18 blocks
    shapes = factor_shapes(weights)
    model = top_wedge(shapes).model
    assert model.budget == fock.WEDGE_BLOCK_BUDGET == 2 ** 18
    count = sum(math.comb(math.comb(2 * m, m) + c - 1, c)
                for m, c in model.groups)
    assert model.bits == bits == (min(count, 2 ** 18) - 1).bit_length()
    model = cyclic_vector(shapes, 1).model
    if len(shapes) > 1:
        assert all(factor is not None for factor in model.factors)
        count = sum(math.comb(2 ** m + c - 1, c) for m, c in model.groups)
    assert model.bits == factor_bits == (min(count, 2 ** 18) - 1).bit_length()


def test_field_width_of_a_long_factor_is_cheap():
    # C(2m, m) passes the budget at m = 11, and the width rule forms no
    # binomial past it: math.comb(2m, m) alone takes seconds at m = 200 000;
    # nor does the rule for labels form 2^m.  No factor model of such a
    # truncation is made here: it would build its factor bases, and the
    # product preflight keeps every factor of a closure to m <= log2 of
    # the dimension cap
    start = time.perf_counter()
    model = top_wedge((3_000_000,)).model
    assert time.perf_counter() - start < 0.2
    assert model.bits == 18
    start = time.perf_counter()
    limit = fock._id_limit(((3_000_000, 2),), 2 ** 18, True)
    assert time.perf_counter() - start < 0.2
    assert (limit - 1).bit_length() == 18


# The factor basis of F_m against its definition: the span of the top
# wedge of shape (m,) under the currents, in wedge coordinates.

def mask_grade(mask, m):
    """(h-weight, t-degree) of a truncation-m monomial mask."""
    particles = to_particles(mask)
    assert len(particles) == m
    return particle_grade([particles])


def wedge_state(model, row):
    """A one-factor state of `model` from a {mask: coefficient} row."""
    m = model.groups[0][0]
    return WedgeState(model, {
        model.pack_index((model.intern(0, (mask,), mask_grade(mask, m)),)): c
        for mask, c in row.items()})


def wedge_row(state):
    """The {mask: coefficient} row of a one-factor state."""
    return {state.model.blocks[index][0]: c
            for index, c in state.coeffs.items()}


def whole_factor_basis(m):
    basis = FactorBasis(m, m)
    for label in range(2 ** m):  # builds every layer the hops need
        for mode in range(m):
            basis.hops(label, mode)
    return basis


@pytest.mark.parametrize("m", range(1, 7))
def test_factor_basis_is_exact(m):
    basis = whole_factor_basis(m)
    rows, grades = basis.rows, basis.grades
    # layer k holds C(m, k) labels, 2^m in all, numbered layer by layer
    layers = [(w + m) // 2 for w, _ in grades]
    assert layers == sorted(layers)
    assert Counter(layers) == {k: math.comb(m, k) for k in range(m + 1)}
    pivots = [min(row) for row in rows]
    for label, row in enumerate(rows):
        # integral, 1 at its pivot and 0 at the other pivots of its layer,
        # labels of a layer in the order of their pivots, and the grade of
        # its pivot, shared by every monomial of the row
        assert all(type(c) is int for c in row.values())
        assert row[pivots[label]] == 1
        assert not any(pivots[other] in row for other in range(2 ** m)
                       if other != label and layers[other] == layers[label])
        assert {mask_grade(mask, m) for mask in row} == {grades[label]}
        if label and layers[label - 1] == layers[label]:
            assert pivots[label - 1] < pivots[label]
    # every hop goes to a larger label, and the column of e_j on b_s gives
    # back e_j(b_s) in wedge coordinates, term for term
    model = top_wedge((m,)).model
    hops = 0
    for label, row in enumerate(rows):
        for mode in range(m + 1):
            column = basis.hops(label, mode) if mode < m else ()
            assert all(target > label and c for target, c in column)
            assert [t for t, _ in column] == sorted({t for t, _ in column})
            total = WedgeState(model, {})
            for target, c in column:
                total = total + wedge_state(model, {
                    mask: c * rc for mask, rc in rows[target].items()})
            image = apply_current(mode, wedge_state(model, row))
            assert wedge_row(total) == wedge_row(image)
            hops += len(column)
    assert hops > 0


def test_factor_hop_past_its_depth_raises():
    # F_3 built to layer 1: a hop out of layer 1 with a nonzero image
    # needs layer 2 and raises, one whose image is 0 has no pairs
    basis = FactorBasis(3, 1)
    layer_one = {target for mode in range(3) for target, _ in basis.hops(0, mode)}
    assert layer_one == {1, 2, 3} and len(basis.rows) == 4
    with pytest.raises(RuntimeError, match="F_3 is built to layer 1"):
        basis.hops(1, 0)
    # e_2 moves v_0 to u_2 only, and nothing further
    (target, _), = basis.hops(0, 2)
    assert basis.hops(target, 2) == ()
    assert len(basis.rows) == 4


def test_factor_labels_of_two_truncations_do_not_collide():
    # the top blocks of (3, 3, 2) and of (3, 2, 2) hold label 0 only: one
    # id dict per position keeps a block of truncation 3 from standing for
    # one of truncation 2
    state = cyclic_vector((3, 3, 2, 2), 3)
    model = state.model
    assert [model.blocks[bid] for bid in model.block_ids(only_term(state)[0])] == [(0, 0), (0, 0)]
    assert model.factors[0] is not model.factors[1]
    grades = [model.grades[bid] for bid in model.block_ids(only_term(state)[0])]
    assert grades == [(-6, 6), (-4, 2)]


def test_top_wedges_make_distinct_models():
    first, second = top_wedge((3, 2)), top_wedge((3, 2))
    assert first.model is not second.model
    assert first.coeffs == second.coeffs
    assert (first + first).coeffs == {only_term(first)[0]: 2}
    with pytest.raises(ValueError, match="different wedge models"):
        first + second
    # images keep their model, and the two models share no table
    image = apply_current(0, first)
    assert image.model is first.model
    assert len(first.model.blocks) > len(second.model.blocks) == 2  # the top blocks
    with pytest.raises(ValueError, match="different wedge models"):
        image + apply_current(0, second)
