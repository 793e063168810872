"""Wedge model sanity: signs, gradings, packed indices, factor bases, and the
current action, against an independent model of explicit particles."""

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
    mask_current,
)
from schubert_fusion.fusion import factor_shapes

V, U = 0, 1


def only_term(state):
    (index, coeff), = state.coeffs.items()
    return index, coeff


def grade_of(state):
    """The bigrade of a one-term state."""
    return state.model.bigrade(only_term(state)[0])


def whole(shapes):
    """The top wedge of `shapes`, every factor basis built to its last layer."""
    return cyclic_vector(shapes, max(shapes, default=0))


def add(*rows):
    """The sum of some {index: coefficient} rows, with no zero kept."""
    out = Counter()
    for row in rows:
        out.update(row)
    return {index: c for index, c in out.items() if c}


def test_top_wedge_single_particle():
    state = cyclic_vector((1,), 1)
    index, coeff = only_term(state)
    assert coeff == 1
    assert state.model.bigrade(index) == (-1, 0)


def test_top_wedge_shapes():
    assert grade_of(cyclic_vector((2,), 1)) == (-2, 1)
    assert grade_of(cyclic_vector((3, 1), 1)) == (-4, 3)
    assert grade_of(cyclic_vector((2, 2, 1), 1)) == (-5, 2)


def test_e0_on_single_v():
    state = apply_current(0, cyclic_vector((1,), 1))
    index, coeff = only_term(state)
    assert coeff == 1
    assert state.model.bigrade(index) == (1, 0)


def test_e1_on_two_wedge_and_nilpotence():
    top = whole((2,))
    once = apply_current(1, top)
    index, coeff = only_term(once)
    # u_1 ^ v_1 reorders to -(v_1 ^ u_1), the basis vector of its layer
    # with that pivot
    assert once.model.bigrade(index) == (0, 2)
    assert coeff == -1
    assert not apply_current(1, once).coeffs


def test_mode_past_truncation_dies():
    top = whole((2,))
    assert not apply_current(5, top).coeffs


def test_e_raises_weight_by_two():
    state = apply_current(0, cyclic_vector((3, 2), 1))
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


def intern_labels(model, g, labels) -> int:
    """Intern a block of position g given as factor labels, one per factor."""
    grades = model.factors[g].grades
    return model.intern(g, tuple(sorted(labels)),
                        tuple(map(sum, zip(*(grades[s] for s in labels)))))


def random_state(rng, shapes, terms=3):
    # orbit-sum terms with random labels of each factor's whole basis, each
    # block's labels sorted, so the state need not be reachable from the
    # top wedge
    model = whole(shapes).model
    coeffs = []
    for _ in range(terms):
        bids = [intern_labels(model, g,
                              [rng.randrange(2 ** m) for _ in range(count)])
                for g, (m, count) in enumerate(model.groups)]
        coeffs.append({model.pack_index(bids): rng.randint(1, 5)})
    return WedgeState(model, add(*coeffs))


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
                image = apply_current(j, state)
                assert add(*(apply_current(j, state, blocks=(g,)).coeffs
                             for g in blocks)) == image.coeffs
                assert apply_current(j, state, blocks=blocks).coeffs == image.coeffs


@pytest.mark.parametrize("bad", [-1, 2, 5])
def test_block_index_out_of_range_raises(bad):
    # (3, 2) has two blocks; -1 would shift past the top field
    state = cyclic_vector((3, 2), 1)
    assert len(state.model.groups) == 2
    with pytest.raises(ValueError, match="block index"):
        apply_current(0, state, blocks=(bad,))
    with pytest.raises(ValueError, match="block index"):
        apply_current(0, state, blocks=(0, bad))


def test_repeated_or_non_sequence_blocks_raise():
    # a repeated index would apply the current to its block twice
    # e_0 on the top of F_2 is -b_1: block (1,) gets id 2 in a 3-bit field
    state = cyclic_vector((2, 1), 2)
    assert apply_current(0, state, blocks=(0,)).coeffs == {17: -1}
    with pytest.raises(ValueError, match="distinct"):
        apply_current(0, state, blocks=(0, 0))
    with pytest.raises(ValueError, match="sequence of block indices"):
        apply_current(0, state, blocks=5)


def test_single_factor_nilpotence():
    m = 3
    state = whole((m,))
    for _ in range(m):
        state = apply_current(0, state)
    assert not apply_current(0, state).coeffs


def test_zero_factor_shapes_rejected():
    with pytest.raises(ValueError):
        cyclic_vector((0,), 1)


# An independent model of the same action: explicit particle tuples, one per
# tensor factor, with every arrangement of an orbit sum spelled out, and
# wedge signs found by sorting.  It shares no code with `fock` beyond reading
# the block contents an index names and the row of masks each label stands
# for, decoded from masks to particle tuples.

def explicit(state):
    """Expand orbit sums and labels into {tuple of per-factor particle
    tuples: coeff}, each label spelled out as its factor basis row."""
    model = state.model
    bases = [basis for basis, (_, count) in zip(model.factors, model.groups)
             for _ in range(count)]
    out = Counter()
    for index, coeff in state.coeffs.items():
        blocks = [model.blocks[b] for b in model.block_ids(index)]
        for parts in product(*(set(permutations(block)) for block in blocks)):
            labels = [label for part in parts for label in part]
            rows = [basis.rows[label].items()
                    for basis, label in zip(bases, labels)]
            for terms in product(*rows):
                word = tuple(to_particles(mask) for mask, _ in terms)
                out[word] += coeff * math.prod(c for _, c in terms)
    return {word: c for word, c in out.items() if c}


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
    """Every block of `count` factors of truncation m: multisets of labels."""
    return combinations_with_replacement(range(2 ** m), count)


@pytest.mark.parametrize("shapes", [(1,), (2,), (3,), (4,), (5,),
                                    (1, 1), (2, 2), (3, 3), (3, 1), (2, 2, 1),
                                    (1,) * 5, (2, 2, 2), (2, 2, 2, 1)])
def test_block_moves_match_the_particle_oracle(shapes):
    # every block of the first group, in the most significant field: every
    # one-factor block of truncation <= 5, every two-factor block of
    # truncation <= 3, every five-factor block of truncation 1 and every
    # three-factor block of truncation 2, under every mode below the
    # truncation: the column entries, multiplicities, grades and shifted
    # deltas of the orbit-sum moves against sorted particles.  Only blocks
    # of three or more factors can repeat both a move's source and its
    # target label.  The other groups hold their top wedges, and the
    # current acts on the first group alone as well as on the whole state.
    m, count = factor_groups(shapes)[0]
    top = whole(shapes)
    model = top.model
    others = model.block_ids(only_term(top)[0])[1:]
    seen = 0
    for labels in every_block(m, count):
        index = model.pack_index((intern_labels(model, 0, labels),) + others)
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
    assert seen == math.comb(2 ** m + count - 1, count)


@pytest.mark.parametrize("weights", [(3, 3, 5, 5), (2, 9, 14)],
                         ids=["3,3,5,5", "2,9,14"])
def test_move_tables_need_no_merging(weights):
    # groups (4, 2), (2, 2) and (3, 1), (2, 7), (1, 5): walk every index
    # the currents reach from the top wedge, then check each table entry.
    # Two moves of a block with one image would replace the same label by
    # the same label, so the images of an entry are distinct and no
    # multiplier cancels; a multiplier is the column entry of the new
    # label times its copies in the new block, at most the group's
    # factors, and a column entry need not be +-1
    top = whole(factor_shapes(weights))
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
    most = 0
    last = len(model.groups) - 1
    for g, ((m, count), tables) in enumerate(zip(model.groups, model.moves)):
        assert tables
        shift = model.bits * (last - g)
        for mode, table in tables.items():
            for bid, moves in table.items():
                deltas = [delta for delta, _ in moves]
                assert len(set(deltas)) == len(deltas)
                block = Counter(model.blocks[bid])
                for delta, mult in moves:
                    image = Counter(model.blocks[bid + (delta >> shift)])
                    (old,), (new,) = block - image, image - block
                    copies = image[new]
                    assert 0 < copies <= count
                    column = dict(model.factors[g].hops(old, mode))
                    assert mult == column[new] * copies != 0
                    most = max(most, copies)
    assert most > 1  # some move lands on a label already present


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
    # a budget of 4 blocks gives 2-bit fields: the model of four factors of
    # truncation 1 (five multisets of their 2 labels) holds ids 0..3 and
    # refuses a fifth block
    monkeypatch.setattr(fock, "WEDGE_BLOCK_BUDGET", 4)
    state = cyclic_vector((1,) * 4, 1)
    model = state.model
    assert (model.budget, model.bits) == (4, 2)
    for _ in range(3):  # u_0 replaces one more v_0 each time
        state = apply_current(0, state)
    assert len(model.blocks) == 4
    with pytest.raises(DimensionCapError, match="budget of 4 blocks"):
        apply_current(0, state)
    assert len(model.blocks) == len(model.grades) == 4


@pytest.mark.parametrize("weights, bits", [
    # one factor of truncation 1: 2 labels
    ((2,), 1),
    # groups (3, 1), (2, 7), (1, 5): 8 + C(10, 7) + C(6, 5) = 134 blocks
    ((2, 9, 14), 8),
    # groups (5, 2), (4, 1), (2, 1): C(33, 2) + 16 + 4 = 548 blocks
    ((3, 4, 4, 5, 5), 10),
    # group (4, 4): C(19, 4) = 3 876 blocks
    ((5, 5, 5, 5), 12),
    # one factor of truncation 18: its 2**18 labels reach the budget
    ((2,) * 18, 18),
], ids=["2", "2,9,14", "3,4,4,5,5", "5,5,5,5", "2*18"])
def test_id_fields_are_as_wide_as_the_model_can_need(weights, bits):
    # a field holds every multiset of c labels (2^m of them) of each group
    # (m, c), and at most the budget's 2**18 blocks
    shapes = factor_shapes(weights)
    model = cyclic_vector(shapes, 1).model
    assert model.budget == fock.WEDGE_BLOCK_BUDGET == 2 ** 18
    count = sum(math.comb(2 ** m + c - 1, c) for m, c in model.groups)
    assert model.bits == bits == (min(count, 2 ** 18) - 1).bit_length()


def test_field_width_of_a_long_factor_is_cheap():
    # the width rule forms neither 2^m nor a binomial past the budget.  No
    # model of such a truncation is made here: it would build its factor
    # bases, and the product preflight keeps every factor of a closure to
    # m <= log2 of the dimension cap
    for count in (1, 2):
        start = time.perf_counter()
        limit = fock._id_limit(((3_000_000, count),), 2 ** 18)
        assert time.perf_counter() - start < 0.2
        assert (limit - 1).bit_length() == 18


# The factor basis of F_m against its definition: the span of the top
# wedge of shape (m,) under the currents, each current applied to particles.

def mask_grade(mask, m):
    """(h-weight, t-degree) of a truncation-m monomial mask."""
    particles = to_particles(mask)
    assert len(particles) == m
    return particle_grade([particles])


def particle_row(row):
    """A {mask: coefficient} row of one factor as explicit words."""
    return {(to_particles(mask),): c for mask, c in row.items()}


def test_mask_rows_match_the_particle_oracle():
    # every row of masks of truncation m <= 4 with one mask, and seeded
    # sums of them, under every mode: the bit moves, their signs and the
    # mask grades against sorted particles.  The memo gets one entry per
    # mask it lacked
    rng = random.Random(7)
    for m in range(1, 5):
        particles = [(V, i) for i in range(m)] + [(U, i) for i in range(m)]
        masks = [to_mask(mono) for mono in combinations(particles, m)]
        for mask in masks:
            assert fock.mask_grade(mask, m) == mask_grade(mask, m)
        rows = [{mask: 1} for mask in masks] + [
            {mask: rng.randint(-3, 3) or 1
             for mask in rng.sample(masks, min(3, len(masks)))}
            for _ in range(10)]
        for mode in range(m):
            moves = {}
            for row in rows:
                before = set(moves)
                image = mask_current(mode, row, m, moves)
                assert (particle_row(image)
                        == oracle_current(mode, (m,), particle_row(row), [0]))
                assert set(moves) == before | set(row)


def whole_factor_basis(m):
    basis = FactorBasis(m, m)
    for label in range(2 ** m):  # makes every column the hops need
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
    # back e_j(b_s), the current applied to the particles of each
    # monomial, term for term
    hops = 0
    for label, row in enumerate(rows):
        for mode in range(m + 1):
            column = basis.hops(label, mode) if mode < m else ()
            assert all(target > label and c for target, c in column)
            assert [t for t, _ in column] == sorted({t for t, _ in column})
            total = add(*({mask: c * rc for mask, rc in rows[target].items()}
                          for target, c in column))
            assert particle_row(total) == oracle_current(
                mode, (m,), particle_row(row), [0])
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
    first, second = cyclic_vector((3, 2), 3), cyclic_vector((3, 2), 3)
    assert first.model is not second.model
    assert first.model.factors[0] is not second.model.factors[0]
    assert first.coeffs == second.coeffs
    # images keep their model, and the two models share no table
    image = apply_current(0, first)
    assert image.model is first.model
    assert len(first.model.blocks) > len(second.model.blocks) == 2  # the top blocks
    assert not any(second.model.moves)
